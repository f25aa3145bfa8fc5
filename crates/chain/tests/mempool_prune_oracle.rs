//! Differential oracle for [`Mempool::prune_block`] — what the commit
//! paths call after a block of their own making — against the sweep over
//! the whole pool, [`Mempool::prune_committed`], which the sync and reorg
//! paths keep.
//!
//! Pruning by the block looks only at the block's senders and only at the
//! stale front of each, so the failure this is written to catch is an
//! entry the sweep would have dropped and the block-driven prune left
//! behind (or the reverse), or a count that drifted from the contents.

use tn_chain::prelude::*;
use tn_crypto::{Address, Hash256, Keypair};

fn tx(kp: &Keypair, nonce: u64, fee: u64) -> Transaction {
    let data = vec![nonce as u8];
    Transaction::signed(kp, nonce, fee, Payload::Blob { tag: 1, data })
}

/// Everything a caller can learn of a pool: its pending transactions, its
/// count, and — through the verdict on each of `offered`, which a pool
/// refuses as a duplicate exactly while it holds the id — its id set.
/// Consumes the pool's room for `offered`, so it is taken last.
fn observed(pool: &mut Mempool, offered: &[Transaction], state: &State) -> String {
    let mut pending: Vec<(Address, u64, Hash256)> =
        pool.iter().map(|t| (t.from, t.nonce, t.id())).collect();
    pending.sort_unstable();
    assert_eq!(pool.len(), pending.len());
    let verdicts: Vec<_> = offered
        .iter()
        .map(|t| pool.insert(t.clone(), state).is_ok())
        .collect();
    format!("{pending:?} {verdicts:?}")
}

#[test]
fn prune_block_equals_the_full_sweep_on_random_pools() {
    // Pools of five accounts with nonce gaps and replacements, then a
    // block by a random few of them (some several times over, some with
    // nothing pending).
    let keys: Vec<Keypair> = (0..5u8).map(|i| Keypair::from_seed(&[b'p', i])).collect();
    let genesis = State::genesis(keys.iter().map(|k| (k.address(), 1_000_000)));
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut rand = |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % below
    };
    let mut pruned = 0;
    for round in 0..200 {
        let mut pools = [Mempool::new(256), Mempool::new(256)];
        let offered: Vec<Transaction> = (0..rand(40))
            .map(|_| tx(&keys[rand(5) as usize], rand(8), 1 + rand(3)))
            .collect();
        for t in &offered {
            let [a, b] = pools
                .each_mut()
                .map(|pool| pool.insert(t.clone(), &genesis));
            assert_eq!(a, b);
        }
        let mut state = genesis.clone();
        let mut committed = Vec::new();
        for _ in 0..rand(12) {
            let kp = &keys[rand(5) as usize];
            let t = tx(kp, state.nonce(&kp.address()), 9);
            state
                .apply(&t, &Address::SYSTEM, &mut NoExecutor)
                .expect("next nonce, funded");
            committed.push(t);
        }
        let block = Block::build(&keys[0], 1, Hash256::ZERO, state.root(), 1, committed);
        let [by_block, by_sweep] = &mut pools;
        pruned += by_block.len();
        by_block.prune_block(&block, &state);
        pruned -= by_block.len();
        by_sweep.prune_committed(&state);
        assert_eq!(
            observed(by_block, &offered, &state),
            observed(by_sweep, &offered, &state),
            "round {round}"
        );
    }
    assert!(
        pruned > 300,
        "the blocks made {pruned} pending transactions stale"
    );
}
