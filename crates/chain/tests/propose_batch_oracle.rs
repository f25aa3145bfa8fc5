//! Differential oracle for the proposer's signature pass: a store with
//! batching on ([`BatchVerifyPolicy::default`] or a small chunk) against
//! one with [`BatchVerifyPolicy::disabled`], whose proposer checks every
//! transaction alone through the sigcache, in input order.
//!
//! Both stores get the same unseen transactions — valid ones from five
//! senders with faults planted at random positions: a bad `s`, a flipped
//! `r_x`, a foreign key (the signer is not `from`, so `AddressMismatch`),
//! a signature over another message of the same sender, and a repeated
//! transaction — through [`ChainStore::propose`] and
//! [`ChainStore::commit`]. They must build byte-identical blocks, return
//! the same receipts, reach the same post-state root and drop the same
//! transactions. On the counters, each transaction meets the sigcache once
//! per stage, as a hit or a miss and never both, and the two stores count
//! the same hits and misses.
//!
//! To see it fail: in `block.rs`, let the shared pre-pass put a repeated
//! transaction into the equation a second time (two misses where the loop
//! counts a miss and a hit), or mark a whole failed chunk as verified.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use tn_chain::block::{BATCH_CHUNKS_COUNTER, BATCH_FALLBACK_COUNTER, BATCH_TXS_COUNTER};
use tn_chain::prelude::*;
use tn_chain::sigcache::{HIT_COUNTER, MISS_COUNTER};
use tn_crypto::sha256::sha256;
use tn_crypto::{Hash256, Keypair};
use tn_telemetry::{Registry, Snapshot};

const SENDERS: usize = 5;

fn proposer() -> Keypair {
    Keypair::from_seed(b"propose oracle proposer")
}

fn senders() -> Vec<Keypair> {
    (0..SENDERS as u8)
        .map(|i| Keypair::from_seed(&[b'p', b'r', b'o', b'p', i]))
        .collect()
}

/// What is wrong with one transaction of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// One bit of the response scalar `s` flipped.
    BadS,
    /// One bit of the nonce's x coordinate flipped.
    FlippedRx,
    /// Signed by a key that is not `from`'s.
    ForeignKey,
    /// The signature its sender made over the previous transaction.
    SwappedMessage,
    /// The transaction before it, again.
    Repeat,
}

const FAULTS: [Fault; 5] = [
    Fault::BadS,
    Fault::FlippedRx,
    Fault::ForeignKey,
    Fault::SwappedMessage,
    Fault::Repeat,
];

/// `count` valid transactions from [`senders`] in rotation (blobs and
/// transfers), then `faults` planted at their positions (taken modulo the
/// length).
fn transactions(count: usize, faults: &[(usize, Fault)]) -> Vec<Transaction> {
    let senders = senders();
    let mut nonces = [0u64; SENDERS];
    let mut txs: Vec<Transaction> = (0..count)
        .map(|i| {
            let who = i % SENDERS;
            let payload = if i % 3 == 0 {
                Payload::Transfer {
                    to: senders[(who + 1) % SENDERS].address(),
                    amount: 1 + (i % 7) as u64,
                }
            } else {
                Payload::Blob {
                    tag: 1,
                    data: (i as u32).to_be_bytes().to_vec(),
                }
            };
            let tx = Transaction::signed(&senders[who], nonces[who], 1, payload);
            nonces[who] += 1;
            tx
        })
        .collect();
    if txs.is_empty() {
        return txs;
    }
    let eve = Keypair::from_seed(b"propose oracle eve");
    for &(at, fault) in faults {
        let at = at % txs.len();
        match fault {
            Fault::BadS => txs[at].signature.s[31] ^= 1,
            Fault::FlippedRx => txs[at].signature.r_x[5] ^= 0x10,
            Fault::ForeignKey => {
                let tx = &txs[at];
                let digest = Transaction::signing_digest(&tx.from, tx.nonce, tx.fee, &tx.payload);
                txs[at].pubkey = *eve.public();
                txs[at].signature = eve.sign(&digest);
            }
            Fault::SwappedMessage => {
                let sender = &senders[at % SENDERS];
                let other = Payload::Blob {
                    tag: 2,
                    data: b"another message".to_vec(),
                };
                let other = Transaction::signed(sender, txs[at].nonce, 1, other);
                txs[at].signature = other.signature;
            }
            Fault::Repeat if at > 0 => txs[at] = txs[at - 1].clone(),
            Fault::Repeat => txs.push(txs[0].clone()),
        }
    }
    txs
}

fn store(policy: BatchVerifyPolicy) -> (ChainStore, Registry) {
    let genesis = State::genesis(senders().iter().map(|k| (k.address(), 1_000_000)));
    let mut store = ChainStore::new(genesis, &proposer());
    store.set_sig_cache(SigCache::new(1 << 12));
    store.set_batch_policy(policy);
    let registry = Registry::new();
    store.set_telemetry(registry.sink());
    (store, registry)
}

/// Everything observable about one store's proposal of `txs`.
#[derive(Debug, PartialEq)]
struct Proposed {
    /// SHA-256 of the block's bytes.
    block: Hash256,
    receipts: Option<Vec<Receipt>>,
    state_root: Option<Hash256>,
    /// Input positions that are not in the block.
    dropped: Vec<usize>,
    hits: u64,
    misses: u64,
}

/// The input positions `block` left out: the block is a subsequence of
/// the input, and a repeat is the copy that came second.
fn dropped(txs: &[Transaction], block: &Block) -> Vec<usize> {
    let mut kept = block.transactions.iter().peekable();
    (0..txs.len())
        .filter(|&i| {
            if kept.peek() == Some(&&txs[i]) {
                kept.next();
                false
            } else {
                true
            }
        })
        .collect()
}

/// `txs` through [`ChainStore::propose`] (`commit = false`) or
/// [`ChainStore::commit`] on a fresh store with `policy`.
fn propose(policy: BatchVerifyPolicy, txs: &[Transaction], commit: bool) -> (Proposed, Snapshot) {
    let (mut store, registry) = store(policy);
    let (block, receipts, state_root) = if commit {
        let (block, receipts) = store
            .commit(&proposer(), 1, txs.to_vec(), &mut NoExecutor)
            .expect("commit accepts its own block");
        (block, Some(receipts), Some(store.head_state().root()))
    } else {
        let block = store.propose(&proposer(), 1, txs.to_vec(), &mut NoExecutor);
        (block, None, None)
    };
    let snap = registry.snapshot();
    let count = |name: &str| snap.counter(name).unwrap_or(0);
    let proposed = Proposed {
        block: sha256(&block.to_bytes()),
        receipts,
        state_root,
        dropped: dropped(txs, &block),
        hits: count(HIT_COUNTER),
        misses: count(MISS_COUNTER),
    };
    (proposed, snap)
}

/// Holds the batched proposal of `txs` to the loop, through both entry
/// points. Returns the batched store's counters from `commit`.
fn check(txs: &[Transaction], chunk: usize) -> Result<Snapshot, TestCaseError> {
    let batched = BatchVerifyPolicy {
        enabled: true,
        chunk,
    };
    let mut last = None;
    for commit in [false, true] {
        let (reference, _) = propose(BatchVerifyPolicy::disabled(), txs, commit);
        let (got, snap) = propose(batched, txs, commit);
        prop_assert!(
            got == reference,
            "chunk {chunk} commit {commit}: {got:?} against the loop's {reference:?}"
        );
        prop_assert!(
            got.hits + got.misses == txs.len() as u64,
            "chunk {chunk} commit {commit}: not one sigcache lookup per transaction"
        );
        last = Some(snap);
    }
    Ok(last.expect("two stages ran"))
}

fn must<T>(result: Result<T, TestCaseError>) -> T {
    match result {
        Ok(value) => value,
        Err(TestCaseError::Fail(msg)) => panic!("{msg}"),
        Err(TestCaseError::Reject) => panic!("case rejected"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 0…140 unseen transactions with up to four planted faults, in
    /// equations of 1…512 signatures.
    #[test]
    fn prop_batched_proposal_equals_the_loop(
        count in 0usize..=140,
        faults in proptest::collection::vec((any::<u16>(), 0usize..FAULTS.len()), 0..5),
        chunk in 0usize..5,
    ) {
        let faults: Vec<(usize, Fault)> =
            faults.iter().map(|&(at, f)| (at as usize, FAULTS[f])).collect();
        let txs = transactions(count, &faults);
        check(&txs, [1, 7, 64, 128, 512][chunk])?;
    }
}

#[test]
fn every_fault_on_both_sides_of_a_chunk_boundary() {
    for chunk in [64, 128] {
        for count in [chunk - 1, chunk, chunk + 1] {
            for fault in FAULTS {
                // First, last and on the boundary itself.
                for at in [0, count - 1, chunk - 1, chunk.min(count - 1)] {
                    must(check(&transactions(count, &[(at, fault)]), chunk));
                }
            }
        }
    }
}

#[test]
fn a_clean_proposal_is_one_equation_per_chunk() {
    let txs = transactions(140, &[]);
    let snap = must(check(&txs, 64));
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(3));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(140));
    assert_eq!(snap.counter(MISS_COUNTER), Some(140));
    assert_eq!(snap.counter(HIT_COUNTER), None);
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
}

#[test]
fn a_failed_equation_sends_only_its_own_share_to_the_loop() {
    // 130 transactions in chunks of 64: the bad one sits in the second.
    let txs = transactions(130, &[(70, Fault::BadS)]);
    let snap = must(check(&txs, 64));
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(2));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(66));
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), Some(1));
    assert_eq!(snap.counter(MISS_COUNTER), Some(130));
}

#[test]
fn an_all_hit_proposal_builds_no_equation() {
    // Admission saw every transaction; the proposer looks each up once.
    let txs = transactions(40, &[]);
    let (mut store, registry) = store(BatchVerifyPolicy::default());
    let mut mempool = Mempool::new(100);
    mempool.set_sig_cache(store.sig_cache());
    for tx in &txs {
        mempool
            .insert(tx.clone(), store.head_state())
            .expect("admits");
    }
    let (block, _) = store
        .commit(&proposer(), 1, txs.clone(), &mut NoExecutor)
        .expect("commits");
    assert_eq!(block.transactions, txs);
    let snap = registry.snapshot();
    assert_eq!(snap.counter(HIT_COUNTER), Some(40));
    assert_eq!(snap.counter(MISS_COUNTER), None);
    for name in [
        BATCH_CHUNKS_COUNTER,
        BATCH_TXS_COUNTER,
        BATCH_FALLBACK_COUNTER,
    ] {
        assert_eq!(snap.counter(name), None, "{name}");
    }
}
