//! Differential oracle for the run import path: [`ChainStore::import_run`]
//! against the loop it replaces — [`ChainStore::import`] block by block,
//! stopping at the first refusal.
//!
//! A run proves all its signatures in shared equations before any block
//! is executed, so the two failures these tests are written to catch are
//! a **fallback** that loses the sequential verdict (a failed equation
//! must send every block it touched back to the per-block check: same
//! blocks imported, same error for the first bad one) and a **cache** that
//! learns something no verification established (an equation that failed
//! records nothing; one that held records exactly its own signatures).
//! Both stores start cold and are compared on what they imported, the
//! error they returned, their receipts, head, state root and sigcache.
//! Runs sit on both sides of one equation's worth of signatures
//! ([`BATCH_CHUNK`]); the chunk boundaries below it are the `prove_run`
//! unit tests' in `block.rs`.
//!
//! To see it fail: make `prove_run` in `block.rs` report a block as proved
//! when one of its chunks failed (`.all(|held| *held)` → `.any(..)`), or
//! let `batch_verify_chunk` write its keys to the cache before it
//! evaluates the equation.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tn_chain::block::{
    BATCH_CHUNK, BATCH_CHUNKS_COUNTER, BATCH_FALLBACK_COUNTER, BATCH_HEADERS_COUNTER,
    BATCH_TXS_COUNTER,
};
use tn_chain::prelude::*;
use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
use tn_crypto::sha256::{sha256, tagged_hash};
use tn_crypto::{Hash256, Keypair};
use tn_telemetry::Registry;

fn proposer() -> Keypair {
    Keypair::from_seed(b"oracle proposer")
}

fn senders() -> Vec<Keypair> {
    (0..3u8)
        .map(|i| Keypair::from_seed(&[b's', b'e', b'n', b'd', i]))
        .collect()
}

fn fresh_store() -> ChainStore {
    let genesis = State::genesis(senders().iter().map(|k| (k.address(), 1_000_000)));
    ChainStore::new(genesis, &proposer())
}

/// A valid chain on the genesis of [`fresh_store`]: block `i` carries
/// `tx_counts[i]` transactions (blobs and transfers, senders in rotation).
fn chain(tx_counts: &[usize]) -> Vec<Block> {
    let senders = senders();
    let mut nonces = [0u64; 3];
    let mut source = fresh_store();
    let mut serial = 0u32;
    tx_counts
        .iter()
        .enumerate()
        .map(|(height, &count)| {
            let txs = (0..count)
                .map(|_| {
                    serial += 1;
                    let who = serial as usize % senders.len();
                    let payload = if serial.is_multiple_of(3) {
                        Payload::Transfer {
                            to: senders[(who + 1) % senders.len()].address(),
                            amount: 1 + u64::from(serial % 7),
                        }
                    } else {
                        Payload::Blob {
                            tag: 1,
                            data: serial.to_be_bytes().to_vec(),
                        }
                    };
                    let tx = Transaction::signed(&senders[who], nonces[who], 1, payload);
                    nonces[who] += 1;
                    tx
                })
                .collect();
            let (block, _) = source
                .commit(&proposer(), height as u64 + 1, txs, &mut NoExecutor)
                .expect("source chain commits");
            assert_eq!(block.transactions.len(), count, "nothing dropped");
            block
        })
        .collect()
}

/// What is wrong with the run handed to both stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Nothing: every block is valid and links.
    None,
    /// One bit of block `k`'s proposer signature flipped.
    HeaderSig,
    /// One bit of a transaction signature in block `k` flipped.
    TxSig,
    /// A transaction's fee changed after signing.
    TxBody,
    /// `proposer_key` replaced by a key that is not `header.proposer`'s.
    ProposerKey,
    /// A transaction's `pubkey` replaced by one that is not `from`'s.
    TxPubkey,
    /// Block `k` appears twice in a row.
    Duplicate,
    /// Block `k` claims a state root execution does not reach.
    StateRoot,
    /// Blocks `k` and `k + 1` carry each other's proposer signature.
    SwappedSigs,
}

const FAULTS: [Fault; 9] = [
    Fault::None,
    Fault::HeaderSig,
    Fault::TxSig,
    Fault::TxBody,
    Fault::ProposerKey,
    Fault::TxPubkey,
    Fault::Duplicate,
    Fault::StateRoot,
    Fault::SwappedSigs,
];

/// Re-roots and re-signs `block`, so that whatever was done to its
/// transactions is the only thing wrong with it (its id moves, so the next
/// block no longer links — it is never reached).
fn reseal(block: &mut Block) {
    block.header.tx_root = Block::compute_tx_root(&block.transactions);
    block.signature = proposer().sign(&block.header.digest());
}

/// Plants `fault` at block `k` (transaction `j` where it names one).
/// Transaction faults on an empty block degrade to a header fault. With
/// `sealed`, a transaction fault is resealed so the transaction root and
/// header signature hold and only the equation can see it.
fn plant(blocks: &mut Vec<Block>, fault: Fault, k: usize, j: usize, sealed: bool) -> Fault {
    let k = k % blocks.len();
    let eve = Keypair::from_seed(b"eve");
    let fault = match fault {
        Fault::TxSig | Fault::TxBody | Fault::TxPubkey if blocks[k].transactions.is_empty() => {
            Fault::HeaderSig
        }
        Fault::SwappedSigs if k + 1 >= blocks.len() => Fault::HeaderSig,
        other => other,
    };
    let j = j % blocks[k].transactions.len().max(1);
    match fault {
        Fault::None => {}
        Fault::HeaderSig => blocks[k].signature.s[31] ^= 1,
        Fault::TxSig => blocks[k].transactions[j].signature.s[31] ^= 1,
        Fault::TxBody => blocks[k].transactions[j].fee += 1,
        Fault::ProposerKey => blocks[k].proposer_key = *eve.public(),
        Fault::TxPubkey => blocks[k].transactions[j].pubkey = *eve.public(),
        Fault::Duplicate => blocks.insert(k + 1, blocks[k].clone()),
        Fault::StateRoot => {
            blocks[k].header.state_root = sha256(b"not the state");
            blocks[k].signature = proposer().sign(&blocks[k].header.digest());
        }
        Fault::SwappedSigs => {
            let (a, b) = (blocks[k].signature, blocks[k + 1].signature);
            blocks[k].signature = b;
            blocks[k + 1].signature = a;
        }
    }
    if sealed && matches!(fault, Fault::TxSig | Fault::TxBody | Fault::TxPubkey) {
        reseal(&mut blocks[k]);
    }
    fault
}

/// The sigcache key of a block's proposer signature, by its definition.
fn header_memo(block: &Block) -> Hash256 {
    let mut data = Vec::with_capacity(130);
    data.extend_from_slice(block.header.digest().as_bytes());
    data.extend_from_slice(&block.proposer_key.to_compressed());
    data.extend_from_slice(&block.signature.to_bytes());
    tagged_hash("TN/hdrsig", &data)
}

/// Every signature of `blocks` as (sigcache key, valid by the lone
/// reference check).
fn signatures(blocks: &[Block]) -> Vec<(Hash256, bool)> {
    let mut out = Vec::new();
    for block in blocks {
        let valid = block.proposer_key.address() == block.header.proposer
            && block
                .proposer_key
                .verify(&block.header.digest(), &block.signature);
        out.push((header_memo(block), valid));
        for tx in &block.transactions {
            out.push((tx.id(), tx.verify().is_ok()));
        }
    }
    out
}

/// What one store did with the run.
#[derive(Debug, PartialEq)]
struct Took {
    receipts: Vec<Vec<Receipt>>,
    verdict: Result<(), ChainError>,
    height: u64,
    head: Hash256,
    state_root: Hash256,
}

fn took(store: &ChainStore, receipts: Vec<Vec<Receipt>>, verdict: Result<(), ChainError>) -> Took {
    Took {
        receipts,
        verdict,
        height: store.height(),
        head: store.head_id(),
        state_root: store.head_state().root(),
    }
}

/// The loop the run replaces.
fn import_one_by_one(store: &mut ChainStore, blocks: &[Block]) -> Took {
    let mut receipts = Vec::new();
    let mut verdict = Ok(());
    for block in blocks {
        match store.import(block, &mut NoExecutor) {
            Ok(r) => receipts.push(r),
            Err(err) => {
                verdict = Err(err);
                break;
            }
        }
    }
    took(store, receipts, verdict)
}

fn import_as_run(store: &mut ChainStore, blocks: &[Block]) -> Took {
    let (receipts, verdict) = store.import_run(blocks, &mut NoExecutor);
    took(store, receipts, verdict)
}

/// Two cold stores; the first `warm` blocks' transactions are verified
/// into both caches first, as admission would.
fn stores(blocks: &[Block], warm: usize) -> (ChainStore, ChainStore, Registry) {
    let registry = Registry::new();
    let make = || {
        let mut store = fresh_store();
        store.set_sig_cache(SigCache::new(1 << 12));
        for tx in blocks.iter().take(warm).flat_map(|b| &b.transactions) {
            let _ = store
                .sig_cache()
                .verify_tx(tx, &tn_telemetry::TelemetrySink::disabled());
        }
        store
    };
    let (one_by_one, mut run) = (make(), make());
    run.set_telemetry(registry.sink());
    (one_by_one, run, registry)
}

/// Runs both stores over `blocks` and holds the run to the loop. Returns
/// the run store and its counters for case-specific assertions.
fn check(
    blocks: &[Block],
    warm: usize,
) -> Result<(ChainStore, tn_telemetry::Snapshot), TestCaseError> {
    let (mut seq_store, mut run_store, registry) = stores(blocks, warm);
    let seq = import_one_by_one(&mut seq_store, blocks);
    let run = import_as_run(&mut run_store, blocks);
    // Verdict for verdict the sequential loop.
    prop_assert_eq!(&run, &seq);
    let (seq_cache, run_cache) = (seq_store.sig_cache(), run_store.sig_cache());
    let everything_valid = signatures(blocks).iter().all(|(_, valid)| *valid);
    for (key, valid) in signatures(blocks) {
        let in_run = run_cache.contains(&key);
        // Nothing enters the cache without having verified.
        prop_assert!(valid || !in_run, "an invalid signature was cached");
        // The run knows at least what the loop knows …
        prop_assert!(
            in_run || !seq_cache.contains(&key),
            "run cache misses a key"
        );
        // … and, where every signature is good, every one of them: the
        // equations held whether or not the blocks went on to be imported.
        prop_assert!(in_run || !everything_valid, "a proved signature not cached");
    }
    if run.verdict.is_ok() {
        prop_assert_eq!(run_cache.len(), seq_cache.len());
    }
    Ok((run_store, registry.snapshot()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Chains of 1…40 blocks with 0…8 transactions each, one planted
    /// fault (or none), a cache-warm prefix of 0…3 blocks.
    #[test]
    fn prop_run_import_equals_the_sequential_loop(
        tx_counts in proptest::collection::vec(0usize..=8, 1..=40),
        fault in 0usize..FAULTS.len(),
        at in (any::<u16>(), any::<u16>(), any::<bool>()),
        warm in 0usize..4,
    ) {
        let mut blocks = chain(&tx_counts);
        let (k, j, sealed) = at;
        plant(&mut blocks, FAULTS[fault], k as usize, j as usize, sealed);
        check(&blocks, warm)?;
    }
}

fn must<T>(result: Result<T, TestCaseError>) -> T {
    match result {
        Ok(value) => value,
        Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
        Err(TestCaseError::Reject) => panic!("case rejected"),
    }
}

#[test]
fn a_valid_run_is_one_equation_and_no_lone_verification() {
    let blocks = chain(&[1; 20]);
    let (store, snap) = must(check(&blocks, 0));
    assert_eq!(store.height(), 20);
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(1));
    assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(20));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(20));
    assert_eq!(snap.counter(MISS_COUNTER), Some(20));
    assert_eq!(snap.counter(HIT_COUNTER), None);
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
    assert_eq!(store.sig_cache().len(), 40);
}

#[test]
fn empty_blocks_and_chunk_boundaries() {
    // 256, 1, 513, 1 and 256 signatures in equations of at most 512:
    // blocks 0–1 share one, block 2 alone is cut in two, blocks 3–4 share
    // one.
    let blocks = chain(&[255, 0, BATCH_CHUNK, 0, 255]);
    let (store, snap) = must(check(&blocks, 0));
    assert_eq!(store.height(), 5);
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(4));
    assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(5));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(1022));
}

#[test]
fn every_fault_on_both_sides_of_one_equation() {
    // Runs of 511, 512 and 513 signatures, as two blocks and as one: a
    // run of 513 is two equations either way.
    let half = BATCH_CHUNK / 2 - 1;
    let shapes = [
        vec![half - 1, half],
        vec![half, half],
        vec![half, half + 1],
        vec![BATCH_CHUNK - 2],
        vec![BATCH_CHUNK - 1],
        vec![BATCH_CHUNK],
    ];
    for shape in shapes {
        let clean = chain(&shape);
        let (store, _) = must(check(&clean, 0));
        assert_eq!(store.height(), shape.len() as u64);
        for fault in FAULTS {
            for (k, j) in [(0, 0), (shape.len() - 1, usize::MAX)] {
                let mut blocks = clean.clone();
                let j = j.min(shape[k].saturating_sub(1));
                plant(&mut blocks, fault, k, j, true);
                must(check(&blocks, 0));
            }
        }
    }
}

#[test]
fn an_admission_warmed_prefix_is_skipped_not_proved_again() {
    let blocks = chain(&[4, 4, 4, 4]);
    let (_, snap) = must(check(&blocks, 2));
    assert_eq!(snap.counter(HIT_COUNTER), Some(8));
    assert_eq!(snap.counter(MISS_COUNTER), Some(8));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(8));
    assert_eq!(snap.counter(BATCH_HEADERS_COUNTER), Some(4));
}

#[test]
fn every_fault_at_every_position_of_a_short_run() {
    for fault in FAULTS {
        for k in 0..4 {
            for sealed in [false, true] {
                let mut blocks = chain(&[2, 3, 0, 2]);
                let planted = plant(&mut blocks, fault, k, 1, sealed);
                let (store, snap) = must(check(&blocks, 0));
                let expect_height = match planted {
                    Fault::None => 4,
                    Fault::Duplicate => k as u64 + 1,
                    _ => k as u64,
                };
                assert_eq!(store.height(), expect_height, "{planted:?} at {k}");
                if !matches!(planted, Fault::None | Fault::Duplicate | Fault::StateRoot) {
                    // Bad bytes under an equation, or a block left out of
                    // them: the per-block check had the last word.
                    assert!(
                        snap.counter(BATCH_FALLBACK_COUNTER).is_some()
                            || snap.counter(BATCH_HEADERS_COUNTER) < Some(4),
                        "{planted:?} at {k}: no equation noticed"
                    );
                }
            }
        }
    }
}

#[test]
fn a_wrong_state_root_stops_the_run_after_its_signatures_were_proved() {
    let mut blocks = chain(&[2, 2, 2, 2, 2]);
    plant(&mut blocks, Fault::StateRoot, 2, 0, false);
    let (store, snap) = must(check(&blocks, 0));
    assert_eq!(store.height(), 2, "blocks 0 and 1 imported, 2 refused");
    // All fifteen signatures are good, so the equation held and recorded
    // them — blocks 3 and 4 included, though they were never imported.
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
    assert_eq!(store.sig_cache().len(), 15);
    assert!(store.sig_cache().contains(&header_memo(&blocks[4])));
    assert!(!store.contains(&blocks[3].id()));
}

#[test]
fn swapped_signatures_fail_the_equation_and_leave_nothing_behind() {
    // Both signatures are the proposer's own, each over the other block's
    // digest: the equation binds every signature to its own message.
    let mut blocks = chain(&[1, 1, 1]);
    plant(&mut blocks, Fault::SwappedSigs, 1, 0, false);
    let (store, snap) = must(check(&blocks, 0));
    assert_eq!(store.height(), 1);
    assert_eq!(
        snap.counter(BATCH_FALLBACK_COUNTER),
        Some(2),
        "the run, then block 1 alone"
    );
    for block in &blocks[1..] {
        assert!(!store.sig_cache().contains(&header_memo(block)));
    }
    // Block 0 was proved alone on the way; nothing of blocks 1 and 2 was.
    assert_eq!(store.sig_cache().len(), 2);
}

#[test]
fn restore_imports_a_snapshot_in_runs() {
    // 60 × 9 signatures: more than one equation, so the snapshot is
    // decoded and imported in several runs.
    let blocks = chain(&[8; 60]);
    let mut source = fresh_store();
    let (_, verdict) = source.import_run(&blocks, &mut NoExecutor);
    assert_eq!(verdict, Ok(()));
    let restored = ChainStore::restore(&source.snapshot(), &mut NoExecutor).expect("restores");
    assert_eq!(restored.head_id(), source.head_id());
    assert_eq!(restored.head_state().root(), source.head_state().root());
    assert_eq!(restored.sig_cache().len(), 60 * 9);
    for block in &blocks {
        assert_eq!(
            restored.receipts_of(&block.id()),
            source.receipts_of(&block.id())
        );
    }
}
