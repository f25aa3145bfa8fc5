//! Fixed-bucket histograms with power-of-two bucket boundaries.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one per possible bit position of a `u64` value.
const BUCKETS: usize = 65;

/// A thread-safe histogram over `u64` samples (latencies in nanoseconds or
/// sim ticks, sizes in bytes, gas amounts).
///
/// Bucket `i` holds samples whose value needs exactly `i` bits, i.e. the
/// half-open range `[2^(i-1), 2^i)` (bucket 0 holds only zero). Power-of-two
/// buckets trade resolution for a record path that is a handful of relaxed
/// atomic operations and no allocation, which keeps enabled-telemetry
/// overhead negligible on consensus hot paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [(); BUCKETS].map(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Index of the bucket that holds `value`.
    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// An immutable copy of a [`Histogram`]'s state, with percentile estimation.
///
/// The `Default` value is an empty distribution: zero samples, mean 0.0,
/// every quantile 0 — a convenient stand-in when a named histogram was
/// never recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts; bucket `i` covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated value at quantile `q` in `[0, 1]`.
    ///
    /// Walks the buckets to the one containing the target rank and
    /// interpolates linearly within that bucket's `[2^(i-1), 2^i)` range
    /// by the rank's position among the bucket's samples, clamped to the
    /// observed min/max. Under a roughly uniform within-bucket
    /// distribution the estimate is close to the true quantile instead of
    /// biased a factor of two high, and it remains exact at the tails.
    ///
    /// This is the **one** percentile estimator in the codebase: bench
    /// reports, the open-loop harness, and `tn-monitor` latency rules all
    /// call it, so their numbers are comparable by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && seen + n >= rank {
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                let pos = (rank - seen) as f64 / n as f64;
                let est = lower as f64 + pos * (upper - lower) as f64;
                return (est as u64).clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// The distribution of samples recorded *after* `baseline` was taken,
    /// assuming `baseline` is an earlier snapshot of the same histogram:
    /// `count`, `sum`, and per-bucket counts subtract (saturating).
    ///
    /// `min`/`max` are not recoverable for a window from two cumulative
    /// snapshots; the delta keeps this snapshot's values, which bound the
    /// window's true extrema.
    pub fn delta(&self, baseline: &HistogramSnapshot) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(baseline.buckets.get(i).copied().unwrap_or(0)))
            .collect();
        let count = self.count.saturating_sub(baseline.count);
        HistogramSnapshot {
            count,
            sum: self.sum.saturating_sub(baseline.sum),
            min: if count == 0 { 0 } else { self.min },
            max: if count == 0 { 0 } else { self.max },
            buckets,
        }
    }

    /// Estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// Estimated 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn stats_track_samples() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1106);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
    }

    #[test]
    fn quantiles_are_within_a_factor_of_two() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        let p50 = snap.p50();
        assert!((500..=1023).contains(&p50), "p50 = {p50}");
        let p99 = snap.p99();
        assert!((990..=1000).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn interpolation_tracks_uniform_data_closely() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        // Linear interpolation within the bucket lands near the true
        // quantile, not at the bucket's upper bound.
        assert!(
            (snap.p50() as i64 - 500).unsigned_abs() <= 15,
            "p50 = {}",
            snap.p50()
        );
        assert!((snap.quantile(0.25) as i64 - 250).unsigned_abs() <= 15);
        // Tails stay exact via the min/max clamp.
        assert_eq!(snap.quantile(0.0), 1);
        assert_eq!(snap.quantile(1.0), 1000);
    }

    #[test]
    fn quantile_handles_top_bucket_without_overflow() {
        let h = Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(1.0), u64::MAX);
        assert!(snap.p50() >= 1u64 << 63);
    }

    #[test]
    fn delta_subtracts_counts_sums_and_buckets() {
        let h = Histogram::new();
        h.observe(10);
        h.observe(20);
        let baseline = h.snapshot();
        h.observe(100);
        h.observe(200);
        let delta = h.snapshot().delta(&baseline);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.sum, 300);
        assert_eq!(delta.buckets.iter().sum::<u64>(), 2);
        // An unchanged histogram deltas to the empty distribution.
        let same = h.snapshot().delta(&h.snapshot());
        assert_eq!(same.count, 0);
        assert_eq!(same.min, 0);
        assert_eq!(same.max, 0);
    }

    #[test]
    fn zero_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.observe(0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.p50(), 0);
    }
}
