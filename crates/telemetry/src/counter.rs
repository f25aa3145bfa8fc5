//! Monotonic atomic counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// All operations are relaxed atomics: counters are statistics, not
/// synchronization primitives, and one `fetch_add` is the entire cost of
/// an enabled-telemetry increment.
#[derive(Debug, Default)]
pub(crate) struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub(crate) fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to the counter.
    pub(crate) fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn add_and_get() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn concurrent_increments_all_land() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 8_000);
    }
}
