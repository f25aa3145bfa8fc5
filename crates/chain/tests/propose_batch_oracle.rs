//! Differential oracle for the proposer's signature pass: a store's
//! [`ChainStore::propose`] and [`ChainStore::commit`] against a test-local
//! reference proposer that verifies each transaction alone, in input
//! order, through a cold cache, then applies every survivor to the head
//! state in order and drops what the state refuses.
//!
//! The store gets unseen transactions — valid ones from five senders with
//! faults planted at random positions: a bad `s`, a flipped `r_x`, a
//! foreign key (the signer is not `from`, so `AddressMismatch`), a
//! signature over another message of the same sender, and a repeated
//! transaction. It must build the reference's block byte for byte, return
//! its receipts, reach its post-state root and drop the same transactions.
//! On the counters, each transaction meets the sigcache once per stage, as
//! a hit or a miss and never both, and the store counts the reference's
//! hits and misses. Inputs sit on both sides of one equation's worth of
//! signatures ([`BATCH_CHUNK`]); the chunk boundaries below it are the
//! `prove_txs` unit tests' in `block.rs`.
//!
//! To see it fail: in `block.rs`, let the shared pre-pass put a repeated
//! transaction into the equation a second time (two misses where the
//! reference counts a miss and a hit), or mark a whole failed chunk as
//! verified.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashSet;

use tn_chain::block::{
    BATCH_CHUNK, BATCH_CHUNKS_COUNTER, BATCH_FALLBACK_COUNTER, BATCH_TXS_COUNTER,
};
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

fn genesis() -> State {
    State::genesis(senders().iter().map(|k| (k.address(), 1_000_000)))
}

fn store() -> (ChainStore, Registry) {
    let mut store = ChainStore::new(genesis(), &proposer());
    store.set_sig_cache(SigCache::new(1 << 12));
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
/// [`ChainStore::commit`] on a fresh store.
fn propose(txs: &[Transaction], commit: bool) -> (Proposed, Snapshot) {
    let (mut store, registry) = store();
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

/// The reference proposer over `txs`: verify each alone, in order, through
/// a cold cache (a repeat of one that verified is a hit, everything else a
/// miss), then apply each survivor to the genesis state, in order,
/// dropping what the state refuses; the block is built and signed over
/// what is left.
fn reference(txs: &[Transaction], commit: bool) -> Proposed {
    let (mut verified, mut hits, mut misses) = (HashSet::new(), 0, 0);
    let survivors = txs.iter().filter(|tx| {
        let id = tx.id();
        if verified.contains(&id) {
            hits += 1;
            return true;
        }
        misses += 1;
        let valid = tx.verify().is_ok();
        if valid {
            verified.insert(id);
        }
        valid
    });
    let survivors: Vec<Transaction> = survivors.cloned().collect();
    let mut state = genesis();
    let mut receipts = Vec::new();
    let kept: Vec<Transaction> = survivors
        .into_iter()
        .filter(|tx| {
            let applied = state.apply(tx, &proposer().address(), &mut NoExecutor);
            applied.map(|receipt| receipts.push(receipt)).is_ok()
        })
        .collect();
    let genesis_id = ChainStore::new(genesis(), &proposer()).genesis_id();
    let block = Block::build(&proposer(), 1, genesis_id, state.root(), 1, kept);
    Proposed {
        block: sha256(&block.to_bytes()),
        receipts: commit.then_some(receipts),
        state_root: commit.then(|| state.root()),
        dropped: dropped(txs, &block),
        hits,
        misses,
    }
}

/// Holds the store's proposal of `txs` to the reference, through both
/// entry points. Returns the store's counters from `commit`.
fn check(txs: &[Transaction]) -> Result<Snapshot, TestCaseError> {
    let mut last = None;
    for commit in [false, true] {
        let (got, snap) = propose(txs, commit);
        let reference = reference(txs, commit);
        prop_assert!(
            got == reference,
            "commit {commit}: {got:?} against the reference's {reference:?}"
        );
        prop_assert!(
            got.hits + got.misses == txs.len() as u64,
            "commit {commit}: not one sigcache lookup per transaction"
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

    /// 0…140 unseen transactions with up to four planted faults.
    #[test]
    fn prop_batched_proposal_equals_the_loop(
        count in 0usize..=140,
        faults in proptest::collection::vec((any::<u16>(), 0usize..FAULTS.len()), 0..5),
    ) {
        let faults: Vec<(usize, Fault)> =
            faults.iter().map(|&(at, f)| (at as usize, FAULTS[f])).collect();
        let txs = transactions(count, &faults);
        check(&txs)?;
    }
}

#[test]
fn every_fault_on_both_sides_of_a_chunk_boundary() {
    let chunk = BATCH_CHUNK;
    for count in [chunk - 1, chunk, chunk + 1] {
        must(check(&transactions(count, &[])));
        for fault in FAULTS {
            // First, last and on the boundary itself.
            for at in [0, chunk - 1, count - 1] {
                must(check(&transactions(count, &[(at, fault)])));
            }
        }
    }
}

#[test]
fn a_clean_proposal_is_one_equation_per_chunk() {
    let txs = transactions(BATCH_CHUNK + 1, &[]);
    let snap = must(check(&txs));
    let n = Some(BATCH_CHUNK as u64 + 1);
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(2));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), n);
    assert_eq!(snap.counter(MISS_COUNTER), n);
    assert_eq!(snap.counter(HIT_COUNTER), None);
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), None);
}

#[test]
fn a_failed_equation_sends_only_its_own_share_to_the_loop() {
    // 520 transactions: the bad one sits in the second equation of 8.
    let txs = transactions(BATCH_CHUNK + 8, &[(BATCH_CHUNK + 3, Fault::BadS)]);
    let snap = must(check(&txs));
    assert_eq!(snap.counter(BATCH_CHUNKS_COUNTER), Some(1));
    assert_eq!(snap.counter(BATCH_TXS_COUNTER), Some(BATCH_CHUNK as u64));
    assert_eq!(snap.counter(BATCH_FALLBACK_COUNTER), Some(1));
    assert_eq!(snap.counter(MISS_COUNTER), Some(BATCH_CHUNK as u64 + 8));
}

#[test]
fn an_all_hit_proposal_builds_no_equation() {
    // Admission saw every transaction; the proposer looks each up once.
    let txs = transactions(40, &[]);
    let (mut store, registry) = store();
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
