//! Property tests for batched Schnorr verification on the import path
//! and (module `admission`, below) at mempool admission.
//!
//! The contract under test (E22): the batched random-linear-combination
//! signature check is a pure performance optimisation — for **every**
//! worker-pool size × batch chunk size, accept/reject verdicts, reported
//! errors and post-import replica state are byte-identical to the
//! sequential per-transaction scan, and the Fiat–Shamir coefficients that
//! seed each batch equation are a deterministic function of block
//! contents (so replicas with different parallelism derive identical
//! equations).

use proptest::prelude::*;

use tn_chain::block::BatchVerifyPolicy;
use tn_chain::prelude::*;
use tn_crypto::{batch_coefficients, BatchItem, Keypair};
use tn_par::Pool;
use tn_telemetry::TelemetrySink;
use tn_trace::TraceSink;

fn block_with_txs(count: usize, signers: usize) -> Block {
    let proposer = Keypair::from_seed(b"batch proposer");
    let keys: Vec<Keypair> = (0..signers.max(1))
        .map(|i| Keypair::from_seed(format!("batch signer {i}").as_bytes()))
        .collect();
    let txs: Vec<Transaction> = (0..count)
        .map(|i| {
            Transaction::signed(
                &keys[i % keys.len()],
                i as u64,
                1,
                Payload::Blob {
                    tag: 1,
                    data: vec![i as u8, (i >> 8) as u8],
                },
            )
        })
        .collect();
    Block::build(
        &proposer,
        1,
        tn_crypto::sha256::sha256(b"parent"),
        tn_crypto::sha256::sha256(b"state"),
        1000,
        txs,
    )
}

/// Re-roots and re-signs a block after its transactions were mutated, so
/// only the per-transaction signatures are invalid.
fn reseal(block: &mut Block) {
    block.header.tx_root = Block::compute_tx_root(&block.transactions);
    block.signature = Keypair::from_seed(b"batch proposer").sign(&block.header.digest());
}

fn verdict_with(
    block: &Block,
    workers: usize,
    policy: BatchVerifyPolicy,
) -> Result<(), ChainError> {
    block.verify_structure_policy(
        &Pool::new(workers),
        None,
        &TelemetrySink::disabled(),
        &TraceSink::disabled(),
        0,
        policy,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Valid blocks (any size, any signer diversity) are accepted by every
    /// pool × chunk configuration — batching never rejects a valid block.
    #[test]
    fn valid_blocks_accepted_at_every_configuration(
        count in 0usize..48,
        signers in 1usize..6,
        workers in 1usize..6,
        chunk in 1usize..64,
    ) {
        let block = block_with_txs(count, signers);
        prop_assert_eq!(block.verify_structure(), Ok(()));
        let policy = BatchVerifyPolicy { enabled: true, chunk };
        prop_assert_eq!(verdict_with(&block, workers, policy), Ok(()));
    }

    /// Corrupting any subset of signatures yields exactly the sequential
    /// scan's lowest-index error for every pool × chunk configuration —
    /// the batch fallback preserves first-error localization.
    #[test]
    fn corrupted_blocks_report_the_sequential_first_error(
        corrupt_raw in proptest::collection::vec(0usize..32, 1..5),
        workers in 1usize..6,
        chunk in 1usize..64,
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
        let policy = BatchVerifyPolicy { enabled: true, chunk };
        prop_assert_eq!(&verdict_with(&block, workers, policy), &seq);
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

/// Full-store determinism: replicas importing the same blocks through any
/// batch policy × worker count end at identical head ids and state roots.
#[test]
fn replica_digests_identical_across_batch_configs() {
    let alice = Keypair::from_seed(b"alice");
    let proposer = Keypair::from_seed(b"proposer");
    let build = |workers: usize, policy: BatchVerifyPolicy| {
        let mut store = ChainStore::new(State::genesis([(alice.address(), 10_000)]), &proposer);
        store.set_verify_pool(Pool::new(workers));
        store.set_batch_policy(policy);
        let txs: Vec<Transaction> = (0..40u64)
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
        let block = store.propose(&proposer, 10, txs, &mut NoExecutor);
        store.import(&block, &mut NoExecutor).expect("imports");
        (store.head_id(), store.head_state().root())
    };
    let reference = build(1, BatchVerifyPolicy::disabled());
    for workers in [1usize, 2, 8] {
        for chunk in [1usize, 7, 512] {
            let policy = BatchVerifyPolicy {
                enabled: true,
                chunk,
            };
            assert_eq!(
                build(workers, policy),
                reference,
                "workers={workers} chunk={chunk}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Batch admission (`Mempool::insert_batch`) against the plain
// `Mempool::insert` loop: the loop is the oracle, the batched form may
// differ from it in cost only.
// ---------------------------------------------------------------------

mod admission {
    use super::*;
    use tn_chain::block::{BATCH_FALLBACK_COUNTER, BATCH_TXS_COUNTER};
    use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
    use tn_crypto::{Address, Hash256};
    use tn_telemetry::Registry;

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

    /// Runs `scenario` on a fresh pool; `batched` is `None` for the
    /// oracle loop. Returns the observation and the batch-equation
    /// counters (`txs`, `fallback`).
    fn run(
        scenario: &Scenario,
        batched: Option<(Pool, BatchVerifyPolicy)>,
    ) -> (Observed, u64, u64) {
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
        let verdicts = match batched {
            None => scenario
                .batch
                .iter()
                .map(|t| pool.insert(t.clone(), &state))
                .collect(),
            Some((workers, policy)) => {
                pool.insert_batch(scenario.batch.clone(), &state, &workers, policy)
            }
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

    fn configurations() -> Vec<(Pool, BatchVerifyPolicy)> {
        let mut out = vec![(Pool::new(2), BatchVerifyPolicy::disabled())];
        for workers in [1usize, 2, 4] {
            for chunk in [1usize, 7, 512] {
                let policy = BatchVerifyPolicy {
                    enabled: true,
                    chunk,
                };
                out.push((Pool::new(workers), policy));
            }
        }
        out
    }

    /// The oracle comparison for one scenario, every configuration.
    fn assert_matches_loop(scenario: &Scenario) {
        let (oracle, _, _) = run(scenario, None);
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
        for (pool, policy) in configurations() {
            let (got, batch_txs, _) = run(scenario, Some((pool, policy)));
            assert_eq!(
                got,
                oracle,
                "{}: workers={} policy={policy:?}",
                scenario.name,
                pool.workers()
            );
            assert!(
                batch_txs <= got.misses,
                "{}: every batched signature is one counted miss",
                scenario.name
            );
            if !policy.enabled {
                assert_eq!(
                    batch_txs, 0,
                    "{}: disabled policy batches nothing",
                    scenario.name
                );
            }
        }
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
        let config = (Pool::new(2), BatchVerifyPolicy::default());
        // A clean batch: every signature through an equation, none twice.
        let clean = Scenario {
            name: "clean",
            capacity: 1_000,
            batch: valid_batch(24, 0),
            ..Scenario::default()
        };
        let (got, batch_txs, fallback) = run(&clean, Some(config));
        assert_eq!((batch_txs, got.misses, got.hits, fallback), (24, 24, 0, 0));
        // Cached signatures are hits beside the equation, not in it.
        let (got, batch_txs, _) = run(by_name("half cached"), Some(config));
        assert_eq!((batch_txs, got.misses, got.hits), (8, 8, 8));
        let (got, batch_txs, _) = run(by_name("all cached"), Some(config));
        assert_eq!((batch_txs, got.misses, got.hits), (0, 0, 16));
        // Everything already pending leaves at the duplicate check.
        let pending = Scenario {
            name: "all pending",
            capacity: 1_000,
            pending: valid_batch(12, 0),
            batch: valid_batch(12, 0),
            ..Scenario::default()
        };
        let (got, batch_txs, _) = run(&pending, Some(config));
        assert_eq!((batch_txs, got.misses + got.hits, got.rejected), (0, 0, 12));
        // One bad signature fails its own equation only: the other
        // equation's share stays batched, the failed share is rescanned.
        let halves = BatchVerifyPolicy {
            enabled: true,
            chunk: 12,
        };
        let (got, batch_txs, fallback) =
            run(by_name("bad signature last"), Some((Pool::new(2), halves)));
        assert_eq!((batch_txs, got.misses, fallback), (12, 24, 1));
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
            workers in 1usize..4,
            chunk in 1usize..16,
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
            let (oracle, _, _) = run(&scenario, None);
            let policy = BatchVerifyPolicy { enabled: true, chunk };
            let (got, _, _) = run(&scenario, Some((Pool::new(workers), policy)));
            prop_assert_eq!(got, oracle);
        }
    }
}
