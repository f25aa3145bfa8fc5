//! Bounded verified-transaction cache shared across the import path.
//!
//! Schnorr verification is the dominant cost of block import (the E16/E17
//! telemetry shows `chain.verify_ns` dwarfing every other span), and the
//! same transaction is routinely verified more than once: at mempool
//! admission, again during block proposal, and a third time when the block
//! is imported. Like Bitcoin Core's sigcache, this module memoises the
//! fact "this exact transaction verified" so each signature pays for one
//! elliptic-curve verification per process, not one per pipeline stage.
//!
//! The cache key is [`Transaction::id`] — the tagged hash of the *full*
//! canonical encoding, signature and public key included — so a hit can
//! only be produced by byte-identical bytes that already passed
//! [`Transaction::verify`]. Caching therefore never changes the outcome of
//! verification, only its cost, and replicas with differently-warmed
//! caches stay byte-identical.
//!
//! Handles are cheap clones of one shared LRU ([`SigCache`] is `Arc`
//! inside); the chain store, the mempool and the platform all hold handles
//! to the same cache so admission-time verification pre-warms import.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tn_crypto::Hash256;
use tn_telemetry::TelemetrySink;

use crate::error::ChainError;
use crate::transaction::Transaction;

/// Telemetry counter bumped on every cache hit.
pub const HIT_COUNTER: &str = "chain.sigcache.hit";
/// Telemetry counter bumped on every cache miss (== actual EC verifies).
pub const MISS_COUNTER: &str = "chain.sigcache.miss";

/// Default cache capacity: 65 536 transactions ≈ a few MiB, hundreds of
/// full blocks of headroom.
pub(crate) const DEFAULT_CAPACITY: usize = 1 << 16;

/// True LRU over transaction ids: recency stamps in a `HashMap`, eviction
/// order in a `BTreeMap` keyed by stamp. All operations are O(log n) and
/// fully deterministic.
#[derive(Debug)]
struct LruInner {
    stamps: HashMap<Hash256, u64>,
    order: BTreeMap<u64, Hash256>,
    next_stamp: u64,
    capacity: usize,
}

impl LruInner {
    fn touch(&mut self, id: &Hash256) -> bool {
        let Some(stamp) = self.stamps.get_mut(id) else {
            return false;
        };
        self.order.remove(stamp);
        *stamp = self.next_stamp;
        self.order.insert(self.next_stamp, *id);
        self.next_stamp += 1;
        true
    }

    fn insert(&mut self, id: Hash256) {
        if self.touch(&id) {
            return;
        }
        if self.stamps.len() >= self.capacity {
            if let Some((_, oldest)) = self.order.pop_first() {
                self.stamps.remove(&oldest);
            }
        }
        self.stamps.insert(id, self.next_stamp);
        self.order.insert(self.next_stamp, id);
        self.next_stamp += 1;
    }
}

/// A shared, bounded, thread-safe verified-transaction cache.
///
/// Cloning produces another handle to the same cache.
#[derive(Debug, Clone)]
pub struct SigCache {
    inner: Arc<Mutex<LruInner>>,
}

impl Default for SigCache {
    /// A cache with `DEFAULT_CAPACITY`.
    fn default() -> Self {
        SigCache::new(DEFAULT_CAPACITY)
    }
}

impl SigCache {
    /// Creates a cache holding at most `capacity` transaction ids
    /// (clamped to at least one).
    pub fn new(capacity: usize) -> SigCache {
        SigCache {
            inner: Arc::new(Mutex::new(LruInner {
                stamps: HashMap::new(),
                order: BTreeMap::new(),
                next_stamp: 0,
                capacity: capacity.max(1),
            })),
        }
    }

    /// The LRU, whether or not a thread panicked while holding it: an
    /// entry is only ever written after its signature verified, and both
    /// maps are updated by whole-entry inserts and removes, so the worst a
    /// panicking writer leaves behind is an entry one map has and the
    /// other lacks — a wasted slot or an early eviction, never a false
    /// "verified".
    fn lru(&self) -> MutexGuard<'_, LruInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// True when `id` is cached; refreshes its recency on hit.
    pub fn contains(&self, id: &Hash256) -> bool {
        self.lru().touch(id)
    }

    /// Records `id` as verified, evicting the least recently used entry
    /// when full.
    pub fn insert(&self, id: Hash256) {
        self.lru().insert(id);
    }

    /// Number of cached ids.
    pub fn len(&self) -> usize {
        self.lru().stamps.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache-aware [`Transaction::verify`]: a hit skips the EC
    /// verification entirely; a miss verifies and, on success, caches.
    /// Bumps [`HIT_COUNTER`] / [`MISS_COUNTER`] on `telemetry`.
    ///
    /// # Errors
    ///
    /// The same errors as [`Transaction::verify`]; failures are never
    /// cached.
    pub fn verify_tx(&self, tx: &Transaction, telemetry: &TelemetrySink) -> Result<(), ChainError> {
        self.verify_identified(tx, tx.id(), telemetry)
    }

    /// [`SigCache::verify_tx`] for a caller that already holds `tx`'s id
    /// (`id` must be `tx.id()`), so the lookup does not hash the
    /// transaction again.
    pub(crate) fn verify_identified(
        &self,
        tx: &Transaction,
        id: Hash256,
        telemetry: &TelemetrySink,
    ) -> Result<(), ChainError> {
        if self.contains(&id) {
            telemetry.incr(HIT_COUNTER);
            return Ok(());
        }
        telemetry.incr(MISS_COUNTER);
        tx.verify()?;
        self.insert(id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::Payload;
    use tn_crypto::Keypair;
    use tn_telemetry::Registry;

    fn tx(nonce: u64) -> Transaction {
        Transaction::signed(
            &Keypair::from_seed(b"cache tests"),
            nonce,
            1,
            Payload::Blob {
                tag: 1,
                data: vec![nonce as u8],
            },
        )
    }

    #[test]
    fn verify_tx_caches_success() {
        let cache = SigCache::new(16);
        let registry = Registry::new();
        let sink = registry.sink();
        let t = tx(0);
        cache.verify_tx(&t, &sink).expect("valid");
        cache.verify_tx(&t, &sink).expect("valid");
        let snap = registry.snapshot();
        assert_eq!(snap.counter(MISS_COUNTER), Some(1));
        assert_eq!(snap.counter(HIT_COUNTER), Some(1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failures_are_not_cached() {
        let cache = SigCache::new(16);
        let sink = TelemetrySink::disabled();
        let mut bad = tx(0);
        bad.fee += 1; // breaks the signature
        assert!(cache.verify_tx(&bad, &sink).is_err());
        assert!(cache.is_empty());
        // And the same corrupted tx keeps failing (no poisoning).
        assert!(cache.verify_tx(&bad, &sink).is_err());
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let cache = SigCache::new(2);
        let (a, b, c) = (tx(0).id(), tx(1).id(), tx(2).id());
        cache.insert(a);
        cache.insert(b);
        // Touch `a` so `b` is now the least recently used.
        assert!(cache.contains(&a));
        cache.insert(c);
        assert_eq!(cache.len(), 2);
        assert!(cache.contains(&a));
        assert!(cache.contains(&c));
        assert!(!cache.contains(&b));
    }

    #[test]
    fn clones_share_state() {
        let cache = SigCache::new(8);
        let clone = cache.clone();
        clone.insert(tx(0).id());
        assert!(cache.contains(&tx(0).id()));
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let cache = SigCache::new(0);
        cache.insert(tx(0).id());
        cache.insert(tx(1).id());
        assert_eq!(cache.len(), 1);
    }
}
