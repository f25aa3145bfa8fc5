//! Property tests for batched Schnorr verification on the import path,
//! at mempool admission (module `admission`) and under tracing (module
//! `tracing`).
//!
//! The contract under test (E22): the batched random-linear-combination
//! signature check is a pure performance optimisation — accept/reject
//! verdicts, reported errors and post-import replica state are
//! byte-identical to the sequential per-transaction scan
//! ([`Block::verify_structure`], the [`Mempool::insert`] loop), the
//! Fiat–Shamir coefficients that seed each batch equation are a
//! deterministic function of their contents (so replicas derive identical
//! equations), each signature pays at most one elliptic-curve
//! verification across admission → proposal → import, and attaching a
//! trace sink changes none of it.

use proptest::prelude::*;

use tn_chain::prelude::*;
use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
use tn_core::platform::PlatformConfig;
use tn_crypto::{batch_coefficients, BatchItem, Keypair};
use tn_node::validator::{encode_payloads, ValidatorNode};
use tn_telemetry::{Registry, TelemetrySink};

fn batch_proposer() -> Keypair {
    Keypair::from_seed(b"batch proposer")
}

fn batch_signers(signers: usize) -> Vec<Keypair> {
    (0..signers.max(1))
        .map(|i| Keypair::from_seed(format!("batch signer {i}").as_bytes()))
        .collect()
}

/// A store at genesis, every batch signer funded.
fn batch_store() -> ChainStore {
    let genesis = State::genesis(batch_signers(6).iter().map(|k| (k.address(), 1_000_000)));
    ChainStore::new(genesis, &batch_proposer())
}

/// `count` blob transactions, signers in rotation, nonces from 0.
fn blob_txs(count: usize, signers: usize) -> Vec<Transaction> {
    let keys = batch_signers(signers);
    (0..count)
        .map(|i| {
            Transaction::signed(
                &keys[i % keys.len()],
                (i / keys.len()) as u64,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![i as u8, (i >> 8) as u8],
                },
            )
        })
        .collect()
}

/// A block of [`blob_txs`] that a fresh [`batch_store`] imports.
fn block_with_txs(count: usize, signers: usize) -> Block {
    let (block, _) = batch_store()
        .commit(
            &batch_proposer(),
            1,
            blob_txs(count, signers),
            &mut NoExecutor,
        )
        .expect("commits");
    assert_eq!(block.transactions.len(), count, "nothing dropped");
    block
}

/// Re-roots and re-signs a block after its transactions were mutated, so
/// only the per-transaction signatures are invalid.
fn reseal(block: &mut Block) {
    block.header.tx_root = Block::compute_tx_root(&block.transactions);
    block.signature = batch_proposer().sign(&block.header.digest());
}

/// What a fresh store's import (its check of a run of one) says of
/// `block`'s signatures and structure.
fn import_verdict(block: &Block) -> Result<(), ChainError> {
    batch_store().import(block, &mut NoExecutor).map(|_| ())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Valid blocks (any size, any signer diversity) are accepted by the
    /// import path — batching never rejects a valid block.
    #[test]
    fn valid_blocks_accepted_at_every_configuration(
        count in 0usize..48,
        signers in 1usize..6,
    ) {
        let block = block_with_txs(count, signers);
        prop_assert_eq!(block.verify_structure(), Ok(()));
        prop_assert_eq!(import_verdict(&block), Ok(()));
    }

    /// Corrupting any subset of signatures yields exactly the sequential
    /// scan's lowest-index error — the batch fallback preserves
    /// first-error localization.
    #[test]
    fn corrupted_blocks_report_the_sequential_first_error(
        corrupt_raw in proptest::collection::vec(0usize..32, 1..5),
    ) {
        let corrupt: std::collections::BTreeSet<usize> = corrupt_raw.into_iter().collect();
        let mut block = block_with_txs(32, 3);
        for (k, &idx) in corrupt.iter().enumerate() {
            if k % 2 == 0 {
                block.transactions[idx].fee ^= 1; // BadSignature
            } else {
                block.transactions[idx].from = Keypair::from_seed(b"eve").address(); // AddressMismatch
            }
        }
        reseal(&mut block);
        let seq = block.verify_structure();
        prop_assert!(seq.is_err());
        // The sequential verdict is the per-tx scan's first error.
        let first_bad = *corrupt.iter().min().unwrap();
        prop_assert_eq!(&seq, &block.transactions[first_bad].verify());
        prop_assert_eq!(&import_verdict(&block), &seq);
    }

    /// The Fiat–Shamir coefficients are a pure function of the batch
    /// contents and seed: recomputing them (as another replica would)
    /// gives bit-identical values, and any content change reroutes them.
    #[test]
    fn batch_coefficients_are_replica_deterministic(
        count in 1usize..24,
        signers in 1usize..4,
        seed in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let block = block_with_txs(count, signers);
        let items: Vec<BatchItem> = block
            .transactions
            .iter()
            .map(|tx| {
                let digest =
                    Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
                (tx.pubkey, digest, tx.signature)
            })
            .collect();
        let here = batch_coefficients(&items, &seed);
        let replica = batch_coefficients(&items, &seed);
        prop_assert_eq!(&here, &replica);
        prop_assert_eq!(here.len(), items.len());
        // A different seed (e.g. another block id) must reroute them.
        let mut other_seed = seed.clone();
        other_seed.push(0x5a);
        prop_assert_ne!(&here, &batch_coefficients(&items, &other_seed));
    }
}

/// Full-store determinism: the proposer, a replica importing its blocks
/// one by one and one taking them as a single run — cold, or with every
/// transaction already in its sigcache as admission would leave it — end
/// at identical head ids and state roots.
#[test]
fn replica_digests_identical_across_batch_configs() {
    let mut source = batch_store();
    let blocks: Vec<Block> = (1..)
        .zip(blob_txs(120, 4).chunks(40))
        .map(|(t, txs)| {
            let (block, _) = source
                .commit(&batch_proposer(), t, txs.to_vec(), &mut NoExecutor)
                .expect("commits");
            assert_eq!(block.transactions.len(), 40, "nothing dropped");
            block
        })
        .collect();
    let reference = (source.head_id(), source.head_state().root());
    for warm in [false, true] {
        let replica = || {
            let store = batch_store();
            if warm {
                for tx in blocks.iter().flat_map(|b| &b.transactions) {
                    store
                        .sig_cache()
                        .verify_tx(tx, &TelemetrySink::disabled())
                        .expect("valid");
                }
            }
            store
        };
        let mut one_by_one = replica();
        for block in &blocks {
            one_by_one.import(block, &mut NoExecutor).expect("imports");
        }
        let mut run = replica();
        let (_, verdict) = run.import_run(&blocks, &mut NoExecutor);
        verdict.expect("imports");
        for store in [one_by_one, run] {
            assert_eq!(
                (store.head_id(), store.head_state().root()),
                reference,
                "warm={warm}"
            );
        }
    }
}

fn governor() -> Keypair {
    // Well-known bootstrap key (see tn-core::pipeline::bootstrap).
    Keypair::from_seed(b"tn-platform-governor")
}

fn transfer(nonce: u64, fee: u64) -> Transaction {
    Transaction::signed(
        &governor(),
        nonce,
        fee,
        Payload::Transfer {
            to: Keypair::from_seed(b"recipient").address(),
            amount: 1,
        },
    )
}

/// Mempool admission pre-warms the cache: K submitted transactions cost K
/// EC verifications total, then the proposer's one signature pass is pure
/// cache hits.
#[test]
fn one_ec_verify_per_tx_across_admission_proposal_import() {
    let config = PlatformConfig::default();
    let mut node = ValidatorNode::new(0, &config);
    const K: u64 = 8;
    // The bootstrap anchor consumed governor nonce 0.
    let txs: Vec<Transaction> = (1..=K).map(|n| transfer(n, config.fee)).collect();
    for tx in &txs {
        node.submit(tx.clone()).expect("admitted");
    }
    let snap = node.metrics_snapshot();
    assert_eq!(
        snap.counter(MISS_COUNTER),
        Some(K),
        "each admission verifies once"
    );
    assert_eq!(snap.counter(HIT_COUNTER), None, "no hits yet");

    let outcome = node
        .apply_committed_batch(&encode_payloads(&txs))
        .expect("commits");
    assert_eq!(outcome.included, K as usize);
    assert_eq!(outcome.failed, 0);

    let snap = node.metrics_snapshot();
    assert_eq!(
        snap.counter(MISS_COUNTER),
        Some(K),
        "the commit adds zero EC verifications"
    );
    assert_eq!(
        snap.counter(HIT_COUNTER),
        Some(K),
        "the commit looks each signature up once, and finds it"
    );
}

/// Importing a block whose transactions are already cached performs zero
/// EC verifications: the hit counter advances by exactly the tx count.
#[test]
fn warm_cache_import_skips_ec_verification_entirely() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let registry = Registry::new();
    let mut store = ChainStore::new(State::genesis([(alice.address(), 10_000)]), &proposer);
    store.set_telemetry(registry.sink());

    const K: usize = 16;
    let txs: Vec<Transaction> = (0..K as u64)
        .map(|n| {
            Transaction::signed(
                &alice,
                n,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![n as u8],
                },
            )
        })
        .collect();
    // Proposing warms the cache: K misses, zero hits.
    let block = store.propose(&proposer, 10, txs, &mut NoExecutor);
    let before = registry.snapshot();
    assert_eq!(before.counter(MISS_COUNTER), Some(K as u64));
    assert_eq!(before.counter(HIT_COUNTER), None);

    store.import(&block, &mut NoExecutor).expect("imports");
    let after = registry.snapshot();
    assert_eq!(
        after.counter(MISS_COUNTER),
        Some(K as u64),
        "warm import must not re-verify any signature"
    );
    assert_eq!(
        after.counter(HIT_COUNTER),
        Some(K as u64),
        "hit count == tx count for the import"
    );
}

// ---------------------------------------------------------------------
// Batch admission (`Mempool::insert_batch`) against the plain
// `Mempool::insert` loop: the loop is the oracle, the batched form may
// differ from it in cost only.
// ---------------------------------------------------------------------

mod admission {
    use super::*;
    use tn_chain::block::{BATCH_CHUNK, BATCH_FALLBACK_COUNTER, BATCH_TXS_COUNTER};
    use tn_crypto::{Address, Hash256};

    fn signer(i: usize) -> Keypair {
        Keypair::from_seed(format!("admission signer {i}").as_bytes())
    }

    fn tx(signer_ix: usize, nonce: u64, fee: u64) -> Transaction {
        Transaction::signed(
            &signer(signer_ix),
            nonce,
            fee,
            Payload::Blob {
                tag: 7,
                data: vec![signer_ix as u8, nonce as u8],
            },
        )
    }

    /// `count` valid transactions, round-robin over three signers, nonces
    /// ascending per signer from `first_nonce`.
    fn valid_batch(count: usize, first_nonce: u64) -> Vec<Transaction> {
        (0..count)
            .map(|i| tx(i % 3, first_nonce + (i / 3) as u64, 1))
            .collect()
    }

    /// One admission scenario: what the pool and cache hold before the
    /// batch arrives, and the batch.
    #[derive(Clone, Default)]
    struct Scenario {
        name: &'static str,
        capacity: usize,
        /// Nonce already committed for signer 0 in the head state.
        committed_nonce: u64,
        /// Inserted one by one before the batch.
        pending: Vec<Transaction>,
        /// Verified into the shared sigcache before the batch.
        cached: Vec<Transaction>,
        batch: Vec<Transaction>,
    }

    /// Everything observable about one admission run.
    #[derive(Debug, PartialEq)]
    struct Observed {
        verdicts: Vec<Result<(), ChainError>>,
        pool: Vec<Hash256>,
        admitted: u64,
        rejected: u64,
        hits: u64,
        misses: u64,
        cached: usize,
        reject_events: Vec<String>,
    }

    /// Runs `scenario` on a fresh pool, through [`Mempool::insert_batch`]
    /// when `batched`, else through the oracle loop. Returns the
    /// observation and the batch-equation counters (`txs`, `fallback`).
    fn run(scenario: &Scenario, batched: bool) -> (Observed, u64, u64) {
        let mut state = State::genesis((0..3).map(|i| (signer(i).address(), 1_000_000)));
        for n in 0..scenario.committed_nonce {
            state
                .apply(&tx(0, n, 1), &Address::SYSTEM, &mut NoExecutor)
                .expect("setup tx applies");
        }
        let registry = Registry::new();
        let cache = SigCache::new(1 << 12);
        let mut pool = Mempool::new(scenario.capacity);
        pool.set_sig_cache(cache.clone());
        for t in &scenario.cached {
            cache
                .verify_tx(t, &TelemetrySink::disabled())
                .expect("cached txs are valid");
        }
        for t in &scenario.pending {
            pool.insert(t.clone(), &state).expect("pending txs admit");
        }
        // Only the batch itself is observed.
        pool.set_telemetry(registry.sink());
        let verdicts = if batched {
            pool.insert_batch(scenario.batch.clone(), &state)
        } else {
            let batch = scenario.batch.iter();
            batch.map(|t| pool.insert(t.clone(), &state)).collect()
        };
        let snap = registry.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        let observed = Observed {
            verdicts,
            pool: pool.iter().map(Transaction::id).collect(),
            admitted: count("mempool.admitted"),
            rejected: count("mempool.rejected"),
            hits: count(HIT_COUNTER),
            misses: count(MISS_COUNTER),
            cached: cache.len(),
            reject_events: snap
                .events
                .iter()
                .filter(|e| e.kind == "mempool_reject")
                .map(|e| e.detail.clone())
                .collect(),
        };
        (
            observed,
            count(BATCH_TXS_COUNTER),
            count(BATCH_FALLBACK_COUNTER),
        )
    }

    /// The oracle comparison for one scenario.
    fn assert_matches_loop(scenario: &Scenario) {
        let (oracle, _, _) = run(scenario, false);
        assert_eq!(
            oracle.verdicts.len(),
            scenario.batch.len(),
            "{}: one verdict per transaction",
            scenario.name
        );
        assert_eq!(
            oracle.admitted + oracle.rejected,
            scenario.batch.len() as u64
        );
        let (got, batch_txs, _) = run(scenario, true);
        assert_eq!(got, oracle, "{}", scenario.name);
        assert!(
            batch_txs <= got.misses,
            "{}: every batched signature is one counted miss",
            scenario.name
        );
    }

    fn corrupt_signature(tx: &mut Transaction) {
        tx.fee ^= 1;
    }

    fn scenarios() -> Vec<Scenario> {
        let base = Scenario {
            capacity: 1_000,
            ..Scenario::default()
        };
        let mut out = Vec::new();
        for (name, at) in [
            ("bad signature first", 0usize),
            ("bad signature middle", 11),
            ("bad signature last", 23),
        ] {
            let mut batch = valid_batch(24, 0);
            corrupt_signature(&mut batch[at]);
            out.push(Scenario {
                name,
                batch,
                ..base.clone()
            });
        }
        let mut batch = valid_batch(24, 0);
        batch[5].from = signer(2).address();
        out.push(Scenario {
            name: "address mismatch",
            batch,
            ..base.clone()
        });
        let mut batch = valid_batch(12, 0);
        batch.insert(7, batch[2].clone());
        batch.push(batch[0].clone());
        out.push(Scenario {
            name: "in-batch duplicate",
            batch,
            ..base.clone()
        });
        // A repeated *invalid* transaction is checked (and missed) twice.
        let mut batch = valid_batch(12, 0);
        corrupt_signature(&mut batch[4]);
        batch.push(batch[4].clone());
        out.push(Scenario {
            name: "in-batch duplicate of a bad signature",
            batch,
            ..base.clone()
        });
        out.push(Scenario {
            name: "already-pending duplicate",
            pending: valid_batch(6, 0),
            batch: valid_batch(15, 0),
            ..base.clone()
        });
        out.push(Scenario {
            name: "stale nonce",
            committed_nonce: 2,
            batch: valid_batch(12, 0),
            ..base.clone()
        });
        let mut batch = valid_batch(9, 0);
        batch.extend([tx(1, 1, 10), tx(1, 1, 5), tx(1, 1, 10), tx(2, 0, 3)]);
        out.push(Scenario {
            name: "in-batch replace-by-fee",
            batch,
            ..base.clone()
        });
        out.push(Scenario {
            name: "over-capacity tail",
            capacity: 10,
            pending: valid_batch(3, 0),
            batch: valid_batch(18, 1),
            ..base.clone()
        });
        // Rejections ahead of the tail free room the pre-pass could not
        // count on; a replacement is admitted at capacity.
        let mut batch = valid_batch(12, 0);
        corrupt_signature(&mut batch[1]);
        batch[3].from = signer(0).address();
        batch.push(tx(0, 0, 9));
        out.push(Scenario {
            name: "over-capacity tail behind rejections",
            capacity: 8,
            batch,
            ..base.clone()
        });
        out.push(Scenario {
            name: "full pool",
            capacity: 3,
            pending: valid_batch(3, 0),
            batch: valid_batch(6, 0),
            ..base.clone()
        });
        out.push(Scenario {
            name: "empty batch",
            ..base.clone()
        });
        out.push(Scenario {
            name: "one transaction",
            batch: valid_batch(1, 0),
            ..base.clone()
        });
        out.push(Scenario {
            name: "all cached",
            cached: valid_batch(16, 0),
            batch: valid_batch(16, 0),
            ..base.clone()
        });
        out.push(Scenario {
            name: "half cached",
            cached: valid_batch(8, 0),
            batch: valid_batch(16, 0),
            ..base.clone()
        });
        // Both sides of one equation's worth of signatures, clean and
        // with a bad signature on the boundary.
        for (name, count) in [
            ("one short of an equation", BATCH_CHUNK - 1),
            ("one equation", BATCH_CHUNK),
            ("one past an equation", BATCH_CHUNK + 1),
        ] {
            out.push(Scenario {
                name,
                batch: valid_batch(count, 0),
                ..base.clone()
            });
            let mut batch = valid_batch(count, 0);
            corrupt_signature(&mut batch[(BATCH_CHUNK - 1).min(count - 1)]);
            out.push(Scenario {
                name,
                batch,
                ..base.clone()
            });
        }
        out
    }

    #[test]
    fn insert_batch_equals_the_insert_loop() {
        for scenario in scenarios() {
            assert_matches_loop(&scenario);
        }
    }

    /// Where the equations run and where they do not.
    #[test]
    fn equations_cover_exactly_the_uncached_candidates() {
        let all = scenarios();
        let by_name = |name: &str| {
            all.iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("scenario {name}"))
        };
        // A clean batch: every signature through an equation, none twice.
        let clean = Scenario {
            name: "clean",
            capacity: 1_000,
            batch: valid_batch(24, 0),
            ..Scenario::default()
        };
        let (got, batch_txs, fallback) = run(&clean, true);
        assert_eq!((batch_txs, got.misses, got.hits, fallback), (24, 24, 0, 0));
        // Cached signatures are hits beside the equation, not in it.
        let (got, batch_txs, _) = run(by_name("half cached"), true);
        assert_eq!((batch_txs, got.misses, got.hits), (8, 8, 8));
        let (got, batch_txs, _) = run(by_name("all cached"), true);
        assert_eq!((batch_txs, got.misses, got.hits), (0, 0, 16));
        // Everything already pending leaves at the duplicate check.
        let pending = Scenario {
            name: "all pending",
            capacity: 1_000,
            pending: valid_batch(12, 0),
            batch: valid_batch(12, 0),
            ..Scenario::default()
        };
        let (got, batch_txs, _) = run(&pending, true);
        assert_eq!((batch_txs, got.misses + got.hits, got.rejected), (0, 0, 12));
        // One bad signature fails its own equation only: the other
        // equation's share stays batched, the failed share is rescanned.
        let mut batch = valid_batch(BATCH_CHUNK + 8, 0);
        corrupt_signature(&mut batch[BATCH_CHUNK + 7]);
        let two = Scenario {
            name: "two equations, the second bad",
            capacity: 1_000,
            batch,
            ..Scenario::default()
        };
        let (got, batch_txs, fallback) = run(&two, true);
        let n = BATCH_CHUNK as u64;
        assert_eq!((batch_txs, got.misses, fallback), (n, n + 8, 1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random mixes of everything above: colliding nonces and fees
        /// (duplicates, replace-by-fee), corrupted signatures and
        /// senders, a random capacity, pending and cached prefixes.
        #[test]
        fn random_batches_equal_the_insert_loop(
            picks in proptest::collection::vec((0usize..3, 0u64..5, 1u64..4, 0u8..8), 0..28),
            capacity in 0usize..24,
            committed_nonce in 0u64..3,
            pending in 0usize..6,
            cached in 0usize..10,
        ) {
            let batch: Vec<Transaction> = picks
                .iter()
                .map(|&(s, nonce, fee, fault)| {
                    let mut t = tx(s, nonce, fee);
                    match fault {
                        0 => corrupt_signature(&mut t),
                        1 => t.from = signer((s + 1) % 3).address(),
                        _ => {}
                    }
                    t
                })
                .collect();
            let scenario = Scenario {
                name: "random",
                capacity,
                committed_nonce,
                pending: valid_batch(pending.min(capacity), committed_nonce),
                cached: batch.iter().filter(|t| t.verify().is_ok()).take(cached).cloned().collect(),
                batch,
            };
            let (oracle, _, _) = run(&scenario, false);
            let (got, _, _) = run(&scenario, true);
            prop_assert_eq!(got, oracle);
        }
    }
}

// ---------------------------------------------------------------------
// Tracing does not change verification: the same inputs through a node or
// a store with a trace sink attached, and without one, prove the same
// signatures in the same equations, look the same ids up in the sigcache
// and reach the same digests. A trace is only an audit of the program if
// recording it leaves the program as it is.
// ---------------------------------------------------------------------

mod tracing {
    use super::*;
    use tn_chain::block::{BATCH_CHUNKS_COUNTER, BATCH_HEADERS_COUNTER, BATCH_TXS_COUNTER};
    use tn_crypto::Hash256;
    use tn_telemetry::Snapshot;
    use tn_trace::Tracer;

    const COUNTERS: [&str; 5] = [
        BATCH_TXS_COUNTER,
        BATCH_HEADERS_COUNTER,
        BATCH_CHUNKS_COUNTER,
        HIT_COUNTER,
        MISS_COUNTER,
    ];

    /// What moved on the signature path between two snapshots.
    fn moved(before: &Snapshot, after: &Snapshot) -> Vec<(&'static str, u64)> {
        let count = |snap: &Snapshot, name| snap.counter(name).unwrap_or(0);
        COUNTERS
            .iter()
            .map(|&name| (name, count(after, name) - count(before, name)))
            .collect()
    }

    fn moved_by(delta: &[(&'static str, u64)], name: &str) -> u64 {
        delta
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// `count` transfers signed by the bootstrap governor, from `first`
    /// (the bootstrap anchor spent nonce 0).
    fn transfers(first: u64, count: u64) -> Vec<Transaction> {
        (first..first + count)
            .map(|nonce| transfer(nonce, 1))
            .collect()
    }

    /// A default node, with a trace sink attached when `tracer` is given.
    fn node(tracer: Option<&Tracer>) -> ValidatorNode {
        let mut node = ValidatorNode::new(0, &PlatformConfig::default());
        if let Some(tracer) = tracer {
            node.set_trace(tracer.sink(0));
        }
        node
    }

    /// Admission of one 128-transaction ingest batch, then the block cut
    /// from it: counters and execution digest.
    fn admit_and_commit(tracer: Option<&Tracer>) -> (Vec<(&'static str, u64)>, Hash256) {
        let mut node = node(tracer);
        let before = node.metrics_snapshot();
        let outcome = node.submit_batch(transfers(1, 128));
        assert_eq!(outcome.accepted, 128);
        let made = node.produce_block_from_mempool(128).expect("commits");
        assert_eq!(made.map(|m| m.included), Some(128));
        (
            moved(&before, &node.metrics_snapshot()),
            node.execution_digest(),
        )
    }

    #[test]
    fn tracing_does_not_change_batch_admission() {
        let (plain, digest) = admit_and_commit(None);
        let tracer = Tracer::new(1);
        let (traced, traced_digest) = admit_and_commit(Some(&tracer));
        assert_eq!(traced, plain);
        assert_eq!(traced_digest, digest);
        assert_eq!(
            moved_by(&traced, BATCH_TXS_COUNTER),
            128,
            "admission batched"
        );
        assert!(!tracer.collect().named("tx.admission").is_empty());
    }

    /// A source node's chain past the bootstrap: three blocks of 40.
    fn source_chain() -> (Vec<Block>, Hash256, u64) {
        let mut source = node(None);
        let height = source.height();
        for block in 0..3 {
            assert_eq!(
                source.submit_batch(transfers(1 + 40 * block, 40)).accepted,
                40
            );
            source.produce_block_from_mempool(40).expect("commits");
        }
        (
            source.blocks_after(height),
            source.execution_digest(),
            height,
        )
    }

    fn catch_up(blocks: &[Block], tracer: Option<&Tracer>) -> (Vec<(&'static str, u64)>, Hash256) {
        let mut node = node(tracer);
        let before = node.metrics_snapshot();
        let (applied, verdict) = node.apply_synced_blocks(blocks);
        assert_eq!((applied, verdict.is_ok()), (blocks.len(), true));
        (
            moved(&before, &node.metrics_snapshot()),
            node.execution_digest(),
        )
    }

    #[test]
    fn tracing_does_not_change_catch_up() {
        let (blocks, digest, _) = source_chain();
        let (plain, plain_digest) = catch_up(&blocks, None);
        let tracer = Tracer::new(1);
        let (traced, traced_digest) = catch_up(&blocks, Some(&tracer));
        assert_eq!(traced, plain);
        assert_eq!((traced_digest, plain_digest), (digest, digest));
        assert_eq!(
            moved_by(&traced, BATCH_TXS_COUNTER),
            120,
            "one run, batched"
        );
        assert_eq!(moved_by(&traced, BATCH_HEADERS_COUNTER), 3);
        assert!(!tracer.collect().named("chain.import").is_empty());
    }

    /// A chain of `blocks` × `per_block` blob transactions on a fresh
    /// store, and that store's genesis owner.
    fn store_chain(blocks: usize, per_block: usize) -> (Keypair, Keypair, Vec<Block>) {
        let alice = Keypair::from_seed(b"tracing alice");
        let proposer = Keypair::from_seed(b"tracing proposer");
        let mut source = ChainStore::new(State::genesis([(alice.address(), 1_000_000)]), &proposer);
        let chain = (0..blocks)
            .map(|b| {
                let txs = (0..per_block)
                    .map(|i| {
                        let nonce = (b * per_block + i) as u64;
                        let data = nonce.to_be_bytes().to_vec();
                        Transaction::signed(&alice, nonce, 1, Payload::Blob { tag: 1, data })
                    })
                    .collect();
                let (block, _) = source
                    .commit(&proposer, b as u64 + 1, txs, &mut NoExecutor)
                    .expect("commits");
                block
            })
            .collect();
        (alice, proposer, chain)
    }

    /// What importing `blocks` as one run did on a fresh store.
    #[derive(Debug, PartialEq)]
    struct Imported {
        moved: Vec<(&'static str, u64)>,
        imported: usize,
        verdict: Result<(), ChainError>,
        head: Hash256,
        state_root: Hash256,
    }

    fn import_run(
        alice: &Keypair,
        proposer: &Keypair,
        blocks: &[Block],
        tracer: Option<&Tracer>,
    ) -> Imported {
        let mut store = ChainStore::new(State::genesis([(alice.address(), 1_000_000)]), proposer);
        let registry = Registry::new();
        store.set_telemetry(registry.sink());
        if let Some(tracer) = tracer {
            store.set_trace(tracer.sink(0));
        }
        let before = registry.snapshot();
        let (receipts, verdict) = store.import_run(blocks, &mut NoExecutor);
        Imported {
            moved: moved(&before, &registry.snapshot()),
            imported: receipts.len(),
            verdict,
            head: store.head_id(),
            state_root: store.head_state().root(),
        }
    }

    #[test]
    fn tracing_does_not_change_run_import() {
        let (alice, proposer, blocks) = store_chain(6, 24);
        let plain = import_run(&alice, &proposer, &blocks, None);
        let tracer = Tracer::new(1);
        let traced = import_run(&alice, &proposer, &blocks, Some(&tracer));
        assert_eq!(traced, plain);
        assert_eq!((traced.imported, traced.verdict), (6, Ok(())));
        assert_eq!(moved_by(&traced.moved, BATCH_TXS_COUNTER), 144);
        // Every signature was proved by an equation: no lone check, so no
        // `tx.verify` span.
        let trace = tracer.collect();
        assert_eq!(trace.named("chain.import").len(), 6);
        assert!(trace.named("tx.verify").is_empty());

        // One bad transaction signature in block 3: the equation fails,
        // the block is checked alone, and only that check records
        // `tx.verify` spans, each with its index.
        let mut poisoned = blocks;
        poisoned[3].transactions[5].signature.s[31] ^= 1;
        poisoned[3].header.tx_root = Block::compute_tx_root(&poisoned[3].transactions);
        poisoned[3].signature = proposer.sign(&poisoned[3].header.digest());
        let plain = import_run(&alice, &proposer, &poisoned, None);
        let tracer = Tracer::new(1);
        let traced = import_run(&alice, &proposer, &poisoned, Some(&tracer));
        assert_eq!(traced, plain);
        assert_eq!(traced.imported, 3);
        assert_eq!(traced.verdict, Err(ChainError::BadSignature));
        let spans = tracer.collect();
        let mut checked: Vec<_> = spans
            .named("tx.verify")
            .iter()
            .map(|span| (span.arg("index"), span.args.len()))
            .collect();
        checked.sort_unstable();
        let expect: Vec<_> = (0..6).map(|i| (Some(i), 1)).collect();
        assert_eq!(checked, expect, "block 3 alone, up to its bad transaction");
    }
}
