//! Transaction mempool with fee prioritisation and per-account nonce
//! ordering.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

use tn_crypto::{Address, Hash256};
use tn_telemetry::TelemetrySink;
use tn_trace::{lanes, TraceId, TraceSink};

use crate::block::{prove_txs, Block, BATCH_CHUNK};
use crate::error::ChainError;
use crate::sigcache::SigCache;
use crate::state::State;
use crate::transaction::Transaction;

/// A bounded mempool.
///
/// Transactions are grouped per sender and kept nonce-sorted; block
/// assembly pops the highest-fee-first ready transactions while preserving
/// nonce order within each account.
#[derive(Debug)]
pub struct Mempool {
    /// Per-account pending transactions keyed by nonce, each with the id
    /// it was admitted under (its key in `seen`). `BTreeMap` keyed by
    /// address so selection tie-breaking is deterministic.
    by_account: BTreeMap<Address, BTreeMap<u64, (Hash256, Transaction)>>,
    /// Known transaction ids for dedup.
    seen: HashSet<Hash256>,
    capacity: usize,
    len: usize,
    telemetry: TelemetrySink,
    trace: TraceSink,
    /// Verified-transaction cache: a fresh one of the pool's own until
    /// [`Mempool::set_sig_cache`] shares the chain store's, after which
    /// admission-time verification spares proposal and import the same
    /// signature.
    sig_cache: SigCache,
}

impl Mempool {
    /// Creates a mempool that holds at most `capacity` transactions.
    pub fn new(capacity: usize) -> Mempool {
        Mempool {
            by_account: BTreeMap::new(),
            seen: HashSet::new(),
            capacity,
            len: 0,
            telemetry: TelemetrySink::disabled(),
            trace: TraceSink::disabled(),
            sig_cache: SigCache::default(),
        }
    }

    /// Routes admission metrics (`mempool.admitted` / `mempool.rejected`)
    /// to `sink`. The default sink is disabled and records nothing.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }

    /// Routes admission spans to `sink`. Each admitted transaction mints
    /// its trace here: a cluster-once `tx.admission` span keyed by the
    /// transaction id, the root of that transaction's causal trace.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Shares a verified-transaction cache (usually
    /// `ChainStore::sig_cache`) with this mempool: transactions verified
    /// at admission are recorded there, so block proposal and import see
    /// cache hits instead of repeating the EC verification.
    pub fn set_sig_cache(&mut self, cache: SigCache) {
        self.sig_cache = cache;
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds a transaction after signature/stateless checks.
    ///
    /// # Errors
    ///
    /// - [`ChainError::DuplicateTransaction`] if already pending;
    /// - [`ChainError::MempoolFull`] at capacity (a higher-fee replacement
    ///   for an already-pending nonce does not grow the pool and is not
    ///   refused for capacity);
    /// - signature errors from [`Transaction::verify`];
    /// - [`ChainError::BadNonce`] if the nonce is already below the
    ///   account's committed nonce in `state`.
    pub fn insert(&mut self, tx: Transaction, state: &State) -> Result<(), ChainError> {
        let id = tx.id();
        self.admit(tx, id, state, false)
    }

    /// Adds a batch of transactions: verdict `i` is exactly what the
    /// `i`-th call of a plain [`Mempool::insert`] loop would return, and
    /// pool contents, `mempool.admitted` / `mempool.rejected`, the
    /// `mempool_reject` events and the sigcache lookups (one per
    /// transaction that reaches its signature check, `chain.sigcache.hit`
    /// or `.miss`, never both) are those of the loop too. Only the cost of
    /// the signature checks differs.
    ///
    /// A pre-pass computes every id once and picks the transactions that
    /// are certain to reach their signature check: not already pending,
    /// not a repeat of an earlier transaction of the batch, sender address
    /// matching the key, and inside the remaining capacity. Cached ids are
    /// hits; the other signatures are folded into batched equations of
    /// [`BATCH_CHUNK`] signatures, one after another on the caller's
    /// thread — the pass block proposal runs too. Then the per-transaction
    /// checks of [`Mempool::insert`] run in input order, skipping the
    /// signature check of every transaction a hit or a held equation
    /// settled. A failing equation decides nothing
    /// (`chain.verify.batch.fallback` counts it): its share, like
    /// everything the pre-pass set aside, is verified one by one. A
    /// [`TraceSink`] changes none of this: each `tx.admission` span times
    /// what is left of its transaction's admission.
    pub fn insert_batch(
        &mut self,
        txs: Vec<Transaction>,
        state: &State,
    ) -> Vec<Result<(), ChainError>> {
        let txs: Vec<(Hash256, Transaction)> = txs.into_iter().map(Into::into).collect();
        // Each candidate admitted grows the pool by at most one, and a
        // repeat can only be admitted when its first copy was not, so the
        // first `room` candidates all pass the capacity check on their turn.
        let room = self.capacity.saturating_sub(self.len);
        let (cache, sink) = (&self.sig_cache, &self.telemetry);
        let eligible = |id: &Hash256| !self.seen.contains(id);
        let verified = prove_txs(&txs, eligible, room, b"TN/admit", BATCH_CHUNK, cache, sink);
        txs.into_iter()
            .zip(verified)
            .map(|((id, tx), verified)| self.admit(tx, id, state, verified))
            .collect()
    }

    /// One admission with its metrics and span; `verified` says the
    /// signature check already happened (see [`Mempool::insert_batch`]).
    fn admit(
        &mut self,
        tx: Transaction,
        id: Hash256,
        state: &State,
        verified: bool,
    ) -> Result<(), ChainError> {
        let t0 = self.trace.now_ns();
        let tx_trace = if self.trace.is_enabled() {
            TraceId::from_seed(id.as_bytes())
        } else {
            TraceId::NONE
        };
        let result = self.insert_inner(tx, id, state, verified);
        match &result {
            Ok(()) => {
                self.telemetry.incr("mempool.admitted");
                // Every replica admits every transaction; only the first
                // admission mints the trace's root span.
                self.trace
                    .complete_once(tx_trace, "tx.admission", 0, lanes::ADMISSION, t0, &[]);
            }
            Err(err) => {
                self.telemetry.incr("mempool.rejected");
                self.telemetry.event("mempool_reject", || err.to_string());
            }
        }
        result
    }

    fn insert_inner(
        &mut self,
        tx: Transaction,
        id: Hash256,
        state: &State,
        verified: bool,
    ) -> Result<(), ChainError> {
        if self.seen.contains(&id) {
            return Err(ChainError::DuplicateTransaction(id));
        }
        // A replacement for an already-pending nonce does not grow the pool.
        let slot_taken = self
            .by_account
            .get(&tx.from)
            .is_some_and(|slot| slot.contains_key(&tx.nonce));
        if !slot_taken && self.len >= self.capacity {
            return Err(ChainError::MempoolFull);
        }
        if !verified {
            self.sig_cache.verify_identified(&tx, id, &self.telemetry)?;
        }
        let committed = state.nonce(&tx.from);
        if tx.nonce < committed {
            return Err(ChainError::BadNonce {
                account: tx.from,
                expected: committed,
                actual: tx.nonce,
            });
        }
        let slot = self.by_account.entry(tx.from).or_default();
        // Replace-by-fee semantics for a duplicate nonce: keep the higher fee.
        if let Some((existing_id, existing)) = slot.get(&tx.nonce) {
            if existing.fee >= tx.fee {
                return Err(ChainError::DuplicateTransaction(id));
            }
            self.seen.remove(existing_id);
            self.len -= 1;
        }
        slot.insert(tx.nonce, (id, tx));
        self.seen.insert(id);
        self.len += 1;
        Ok(())
    }

    /// Selects up to `max` transactions for a block: repeatedly takes the
    /// highest-fee *ready* transaction (one whose nonce is next for its
    /// account given `state` and prior selections). Ties break by address
    /// order, lowest first, so selection is fully deterministic. It costs
    /// O(a + k log a) state reads and heap operations for a accounts and k
    /// picks: one `state.nonce` per account, one pop and at most one push
    /// per pick on a heap of each account's ready transaction.
    pub fn select(&self, state: &State, max: usize) -> Vec<Transaction> {
        self.select_identified(state, max)
            .into_iter()
            .map(|(_, tx)| tx)
            .collect()
    }

    /// [`Mempool::select`], each transaction with the id it was admitted
    /// under, for [`ChainStore::commit`](crate::store::ChainStore::commit)
    /// to build the block on without hashing it again.
    pub fn select_identified(&self, state: &State, max: usize) -> Vec<(Hash256, Transaction)> {
        // Accounts in address order, so a lower index is a lower address.
        let accounts: Vec<_> = self.by_account.iter().collect();
        let ready = |i: usize, nonce| Some((accounts[i].1.get(&nonce)?.1.fee, Reverse(i), nonce));
        let mut heap = BinaryHeap::with_capacity(accounts.len());
        for (i, (addr, _)) in accounts.iter().enumerate() {
            heap.extend(ready(i, state.nonce(addr)));
        }
        let mut out = Vec::with_capacity(max.min(self.len));
        while out.len() < max {
            let Some((_, Reverse(i), nonce)) = heap.pop() else {
                break;
            };
            out.push(accounts[i].1[&nonce].clone());
            heap.extend(ready(i, nonce + 1));
        }
        out
    }

    /// [`Mempool::prune_committed`] after `block` extended the head the
    /// pool was last pruned at, `state` being the state after it: only the
    /// block's senders had their nonces move, so only their accounts are
    /// looked at, and only the stale front of each — the cost is the
    /// block's, not the pool's. After a reorg, or when blocks went by
    /// unpruned, only the full sweep is right.
    pub fn prune_block(&mut self, block: &Block, state: &State) {
        for tx in &block.transactions {
            let Some(pending) = self.by_account.get_mut(&tx.from) else {
                continue;
            };
            let committed = state.nonce(&tx.from);
            while let Some(front) = pending.first_entry().filter(|e| *e.key() < committed) {
                self.seen.remove(&front.remove().0);
                self.len -= 1;
            }
            if pending.is_empty() {
                self.by_account.remove(&tx.from);
            }
        }
    }

    /// Removes transactions that were committed in a block (and any whose
    /// nonce is now stale), whatever happened to the chain since the last
    /// call: a sweep over every pending transaction.
    pub fn prune_committed(&mut self, state: &State) {
        let seen = &mut self.seen;
        self.by_account.retain(|addr, txs| {
            let committed = state.nonce(addr);
            txs.retain(|nonce, (id, _)| {
                let stale = *nonce < committed;
                if stale {
                    seen.remove(id);
                }
                !stale
            });
            !txs.is_empty()
        });
        self.len = self.by_account.values().map(BTreeMap::len).sum();
    }

    /// All pending transactions (unordered), for inspection.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.by_account
            .values()
            .flat_map(|m| m.values().map(|(_, tx)| tx))
    }

    /// The nonce after `who`'s highest pending one, `None` when it has
    /// nothing pending: a signer's next nonce read from pool content, so
    /// it cannot drift when transactions are dropped or pruned.
    pub fn next_nonce(&self, who: &Address) -> Option<u64> {
        self.by_account.get(who)?.keys().next_back().map(|n| n + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NoExecutor;
    use crate::transaction::Payload;
    use tn_crypto::Keypair;

    fn alice() -> Keypair {
        Keypair::from_seed(b"alice")
    }

    fn bob() -> Keypair {
        Keypair::from_seed(b"bob")
    }

    fn state() -> State {
        State::genesis([(alice().address(), 10_000), (bob().address(), 10_000)])
    }

    fn tx(kp: &Keypair, nonce: u64, fee: u64) -> Transaction {
        Transaction::signed(
            kp,
            nonce,
            fee,
            Payload::Blob {
                tag: 1,
                data: vec![nonce as u8],
            },
        )
    }

    #[test]
    fn duplicate_rejected() {
        let s = state();
        let mut pool = Mempool::new(100);
        let t = tx(&alice(), 0, 1);
        pool.insert(t.clone(), &s).unwrap();
        assert!(matches!(
            pool.insert(t, &s),
            Err(ChainError::DuplicateTransaction(_))
        ));
    }

    #[test]
    fn replace_by_fee() {
        let s = state();
        let mut pool = Mempool::new(100);
        pool.insert(tx(&alice(), 0, 1), &s).unwrap();
        // Same nonce, higher fee replaces.
        pool.insert(tx(&alice(), 0, 10), &s).unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.select(&s, 1)[0].fee, 10);
        // Same nonce, lower fee rejected.
        assert!(pool.insert(tx(&alice(), 0, 5), &s).is_err());
    }

    #[test]
    fn capacity_enforced() {
        let s = state();
        let mut pool = Mempool::new(2);
        pool.insert(tx(&alice(), 0, 1), &s).unwrap();
        pool.insert(tx(&alice(), 1, 1), &s).unwrap();
        assert!(matches!(
            pool.insert(tx(&alice(), 2, 1), &s),
            Err(ChainError::MempoolFull)
        ));
    }

    #[test]
    fn replace_by_fee_is_not_refused_at_capacity() {
        let s = state();
        let mut pool = Mempool::new(2);
        pool.insert(tx(&alice(), 0, 1), &s).unwrap();
        pool.insert(tx(&alice(), 1, 1), &s).unwrap();
        // A full pool still takes a higher-fee replacement: it does not grow.
        pool.insert(tx(&alice(), 1, 10), &s).unwrap();
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.select(&s, 2)[1].fee, 10);
        // A lower-fee rival is a duplicate, a new nonce is over capacity.
        assert!(matches!(
            pool.insert(tx(&alice(), 1, 5), &s),
            Err(ChainError::DuplicateTransaction(_))
        ));
        assert!(matches!(
            pool.insert(tx(&bob(), 0, 100), &s),
            Err(ChainError::MempoolFull)
        ));
    }

    #[test]
    fn stale_nonce_rejected() {
        let mut s = state();
        let mut ex = NoExecutor;
        let committed = tx(&alice(), 0, 1);
        s.apply(&committed, &Address::SYSTEM, &mut ex).unwrap();
        let mut pool = Mempool::new(10);
        assert!(matches!(
            pool.insert(tx(&alice(), 0, 1), &s),
            Err(ChainError::BadNonce { .. })
        ));
    }

    #[test]
    fn prune_removes_committed() {
        let mut s = state();
        let mut pool = Mempool::new(10);
        pool.insert(tx(&alice(), 0, 1), &s).unwrap();
        pool.insert(tx(&alice(), 1, 1), &s).unwrap();
        // Commit nonce 0.
        let mut ex = NoExecutor;
        s.apply(&tx(&alice(), 0, 1), &Address::SYSTEM, &mut ex)
            .unwrap();
        pool.prune_committed(&s);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.iter().next().unwrap().nonce, 1);
    }

    #[test]
    fn next_nonces_tracks_pool_content() {
        let s = state();
        let mut pool = Mempool::new(100);
        assert_eq!(pool.next_nonce(&alice().address()), None);
        pool.insert(tx(&alice(), 0, 1), &s).unwrap();
        pool.insert(tx(&alice(), 1, 1), &s).unwrap();
        pool.insert(tx(&bob(), 0, 1), &s).unwrap();
        assert_eq!(pool.next_nonce(&alice().address()), Some(2));
        assert_eq!(pool.next_nonce(&bob().address()), Some(1));
    }
}
