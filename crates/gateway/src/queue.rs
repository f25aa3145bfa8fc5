//! Bounded ingress lanes.
//!
//! Each lane is a fixed-capacity FIFO of admitted-but-not-yet-ingested
//! transactions. The bound is the backpressure mechanism: a full lane
//! refuses *new* work at the door (an explicit shed verdict) and never
//! evicts work it already accepted — the invariant the E21 backpressure
//! test pins down.

use std::collections::VecDeque;

use tn_chain::prelude::Transaction;

/// One admitted transaction waiting for mempool ingest.
#[derive(Debug, Clone)]
pub(crate) struct QueuedTx {
    /// The admitted transaction.
    pub(crate) tx: Transaction,
    /// The submitting client.
    pub(crate) client: u64,
}

/// A bounded FIFO ingress lane.
#[derive(Debug)]
pub(crate) struct IngressLane {
    queue: VecDeque<QueuedTx>,
    capacity: usize,
}

impl IngressLane {
    /// Creates a lane holding at most `capacity` transactions.
    ///
    /// # Panics
    ///
    /// When `capacity == 0`; [`Gateway::new`](crate::Gateway::new)
    /// rejects that configuration with a typed error before any lane is
    /// built.
    pub(crate) fn new(capacity: usize) -> IngressLane {
        assert!(capacity > 0, "zero-capacity ingress lane");
        IngressLane {
            // Grown on demand: `capacity` is the shedding bound, and a lane
            // that never queues that deep should not hold a quarter-MiB ring.
            queue: VecDeque::new(),
            capacity,
        }
    }

    /// Accepts `entry` at the tail, or returns it when the lane is full
    /// (the caller sheds it — visibly — at the door).
    #[allow(clippy::result_large_err)] // channel-style API: a refused entry goes back whole
    pub(crate) fn push(&mut self, entry: QueuedTx) -> Result<(), QueuedTx> {
        if self.queue.len() >= self.capacity {
            return Err(entry);
        }
        self.queue.push_back(entry);
        Ok(())
    }

    /// Removes and returns the oldest entry.
    pub(crate) fn pop(&mut self) -> Option<QueuedTx> {
        self.queue.pop_front()
    }

    /// Queued entries.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::Keypair;

    fn entry(nonce: u64) -> QueuedTx {
        let kp = Keypair::from_seed(b"lane-test");
        QueuedTx {
            tx: tn_chain::prelude::Transaction::signed(
                &kp,
                nonce,
                1,
                tn_chain::prelude::Payload::Transfer {
                    to: kp.address(),
                    amount: 1,
                },
            ),
            client: 1,
        }
    }

    #[test]
    fn a_fresh_lane_holds_no_ring() {
        // `capacity` bounds the queue; it is not preallocated.
        let lane = IngressLane::new(1 << 20);
        assert_eq!(lane.queue.capacity(), 0);
        assert_eq!(lane.capacity, 1 << 20);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut lane = IngressLane::new(8);
        for n in 0..5 {
            lane.push(entry(n)).unwrap();
        }
        let drained: Vec<u64> = std::iter::from_fn(|| lane.pop())
            .map(|e| e.tx.nonce)
            .collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_lane_returns_the_rejected_entry_without_evicting() {
        let mut lane = IngressLane::new(2);
        lane.push(entry(0)).unwrap();
        lane.push(entry(1)).unwrap();
        let back = lane.push(entry(2)).unwrap_err();
        assert_eq!(back.tx.nonce, 2, "the *new* entry is refused");
        assert_eq!(lane.len(), 2);
        assert_eq!(lane.pop().unwrap().tx.nonce, 0, "old work untouched");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_is_a_construction_bug() {
        let _ = IngressLane::new(0);
    }
}
