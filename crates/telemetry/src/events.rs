//! Bounded ring buffer of structured events.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// A single recorded event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonically increasing sequence number, starting at 0, counting
    /// every event ever pushed (including ones since evicted).
    pub(crate) seq: u64,
    /// Microseconds since the ring was created. Strictly monotonic: each
    /// push is stamped at least one microsecond after the previous one,
    /// so `at_micros` order always agrees with `seq` (push) order even
    /// when the clock's resolution can't separate two pushes.
    pub(crate) at_micros: u64,
    /// Short machine-readable kind, e.g. `"view_change"`.
    pub kind: String,
    /// Free-form human-readable detail.
    pub detail: String,
}

/// A bounded, thread-safe ring buffer of [`Event`]s.
///
/// When full, pushing evicts the oldest event; `seq` keeps counting so a
/// reader can tell how many events were dropped.
#[derive(Debug)]
pub(crate) struct EventRing {
    origin: Instant,
    capacity: usize,
    inner: Mutex<RingState>,
}

#[derive(Debug)]
struct RingState {
    next_seq: u64,
    /// Timestamp handed to the most recent push; the next push is stamped
    /// strictly after it.
    last_at: u64,
    events: VecDeque<Event>,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub(crate) fn new(capacity: usize) -> EventRing {
        EventRing {
            origin: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(RingState {
                next_seq: 0,
                last_at: 0,
                events: VecDeque::new(),
            }),
        }
    }

    /// Records an event, evicting the oldest if the ring is full. The
    /// timestamp is assigned under the ring lock and forced strictly past
    /// the previous event's, so timestamp order always matches push order.
    pub(crate) fn push(&self, kind: &str, detail: String) {
        let elapsed = self.origin.elapsed().as_micros() as u64;
        let mut state = self.inner.lock().expect("event ring poisoned");
        let at_micros = if state.next_seq == 0 {
            elapsed
        } else {
            elapsed.max(state.last_at + 1)
        };
        state.last_at = at_micros;
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.events.len() == self.capacity {
            state.events.pop_front();
        }
        state.events.push_back(Event {
            seq,
            at_micros,
            kind: kind.to_string(),
            detail,
        });
    }

    /// Total number of events ever pushed (including evicted ones).
    pub(crate) fn total(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").next_seq
    }

    /// The retained events, oldest first.
    pub(crate) fn drain_snapshot(&self) -> Vec<Event> {
        self.inner
            .lock()
            .expect("event ring poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let ring = EventRing::new(8);
        ring.push("commit", "height=1".to_string());
        ring.push("commit", "height=2".to_string());
        let events = ring.drain_snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].detail, "height=2");
    }

    #[test]
    fn eviction_keeps_newest_and_counts_all() {
        let ring = EventRing::new(3);
        for i in 0..10 {
            ring.push("tick", format!("i={i}"));
        }
        let events = ring.drain_snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 7);
        assert_eq!(events[2].detail, "i=9");
        assert_eq!(ring.total(), 10);
    }

    #[test]
    fn timestamps_are_strictly_monotonic() {
        let ring = EventRing::new(64);
        // Pushed back-to-back these would all share one clock reading;
        // the ring must still separate them.
        for _ in 0..50 {
            ring.push("burst", String::new());
        }
        let events = ring.drain_snapshot();
        for pair in events.windows(2) {
            assert!(
                pair[1].at_micros > pair[0].at_micros,
                "ties must be broken: {} !> {}",
                pair[1].at_micros,
                pair[0].at_micros
            );
        }
    }

    #[test]
    fn drain_preserves_push_order_across_wraparound() {
        let ring = EventRing::new(4);
        for i in 0..11 {
            ring.push("tick", format!("i={i}"));
        }
        let events = ring.drain_snapshot();
        assert_eq!(events.len(), 4);
        // Push order survives eviction: seqs are the contiguous tail and
        // both seq and timestamp increase strictly in drain order.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        let details: Vec<&str> = events.iter().map(|e| e.detail.as_str()).collect();
        assert_eq!(details, vec!["i=7", "i=8", "i=9", "i=10"]);
        for pair in events.windows(2) {
            assert!(pair[1].at_micros > pair[0].at_micros);
        }
    }
}
