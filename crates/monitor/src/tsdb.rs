//! Ring-buffer time-series store over [`Registry`](tn_telemetry::Registry)
//! snapshots.
//!
//! A [`Tsdb`] is fed **cumulative** snapshots on a logical-clock tick
//! (block heights in cluster runs, block ticks in the open-loop harness)
//! and retains the per-window *deltas*: what each counter and histogram
//! did between consecutive samples. Queries then answer "what happened
//! over the last `k` windows" — rates, ratios, and merged-bucket
//! quantiles — which is exactly the shape SLO rules consume.
//!
//! The store diffs cumulative snapshots itself rather than calling
//! [`Snapshot::delta`], which drops zero-delta entries by design (it is
//! an attribution view). Here a series that exists but did not move is
//! still *known* — [`Tsdb::counter_window`] distinguishes "series known,
//! zero activity" (`Some(0)`) from "series never seen" (`None`) — so a
//! rule can never silently miss a series that went quiet.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use tn_telemetry::{HistogramSnapshot, Snapshot};

/// One retained sampling window: the deltas between two consecutive
/// cumulative snapshots.
#[derive(Debug, Clone)]
pub(crate) struct Window {
    /// Counter increments in the window (zero-delta entries omitted; the
    /// series set is tracked separately by the [`Tsdb`]).
    pub(crate) counters: BTreeMap<String, u64>,
    /// Histogram activity in the window (bucket-count deltas; empty
    /// histograms omitted).
    pub(crate) histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Bounded store of per-window metric deltas plus the latest cumulative
/// snapshot.
#[derive(Debug)]
pub struct Tsdb {
    capacity: usize,
    windows: VecDeque<Window>,
    /// Every counter name ever observed in a sample.
    counter_names: BTreeSet<String>,
    /// Every histogram name ever observed in a sample.
    histogram_names: BTreeSet<String>,
    /// The previous cumulative snapshot (None before the first sample).
    last: Option<Snapshot>,
    /// Tick of the most recent sample.
    last_tick: u64,
    /// Total samples ever taken (including windows since evicted).
    samples: u64,
}

impl Tsdb {
    /// A store retaining at most `capacity` windows (minimum 1).
    pub(crate) fn new(capacity: usize) -> Tsdb {
        Tsdb {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            counter_names: BTreeSet::new(),
            histogram_names: BTreeSet::new(),
            last: None,
            last_tick: 0,
            samples: 0,
        }
    }

    /// Ingests a cumulative snapshot taken at logical `tick`, closing one
    /// window (the delta against the previous sample). The first sample
    /// establishes the baseline: its absolute values are recorded as the
    /// first window so activity before monitoring began is visible.
    ///
    /// Ticks are expected to be non-decreasing; a stale tick is clamped
    /// to the previous one rather than reordering the ring.
    pub(crate) fn sample(&mut self, tick: u64, snapshot: Snapshot) {
        let tick = tick.max(self.last_tick);
        let mut counters = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for (name, &value) in &snapshot.counters {
            self.counter_names.insert(name.clone());
            let base = self
                .last
                .as_ref()
                .and_then(|s| s.counter(name))
                .unwrap_or(0);
            let delta = value.saturating_sub(base);
            if delta > 0 {
                counters.insert(name.clone(), delta);
            }
        }
        for (name, hist) in &snapshot.histograms {
            self.histogram_names.insert(name.clone());
            let delta = match self.last.as_ref().and_then(|s| s.histogram(name)) {
                Some(base) => hist.delta(base),
                None => hist.clone(),
            };
            if delta.count > 0 {
                histograms.insert(name.clone(), delta);
            }
        }
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(Window {
            counters,
            histograms,
        });
        self.last = Some(snapshot);
        self.last_tick = tick;
        self.samples += 1;
    }

    /// Total samples ever taken, including evicted windows.
    pub fn samples_total(&self) -> u64 {
        self.samples
    }

    /// Tick of the most recent sample (0 before the first).
    pub(crate) fn last_tick(&self) -> u64 {
        self.last_tick
    }

    /// Every counter series name ever observed, sorted.
    pub(crate) fn counter_names(&self) -> impl Iterator<Item = &String> {
        self.counter_names.iter()
    }

    /// Every histogram series name ever observed, sorted.
    pub(crate) fn histogram_names(&self) -> impl Iterator<Item = &String> {
        self.histogram_names.iter()
    }

    /// The latest cumulative value of a counter, if the series is known.
    pub(crate) fn counter_latest(&self, name: &str) -> Option<u64> {
        self.last.as_ref()?.counter(name).or({
            // Known series absent from the latest snapshot (cannot happen
            // with a monotone registry, but be conservative).
            if self.counter_names.contains(name) {
                Some(0)
            } else {
                None
            }
        })
    }

    /// Sum of a counter's increments over the trailing `windows` windows.
    ///
    /// `Some(0)` means the series is known and was quiet; `None` means the
    /// series has never appeared in any sample (a rule evaluating it has
    /// no data).
    pub(crate) fn counter_window(&self, name: &str, windows: usize) -> Option<u64> {
        if !self.counter_names.contains(name) {
            return None;
        }
        Some(
            self.trailing(windows)
                .map(|w| w.counters.get(name).copied().unwrap_or(0))
                .sum(),
        )
    }

    /// The merged distribution a histogram recorded over the trailing
    /// `windows` windows (bucket deltas summed across windows). `None`
    /// when the series has never appeared; an empty distribution when it
    /// was quiet.
    pub(crate) fn histogram_window(&self, name: &str, windows: usize) -> Option<HistogramSnapshot> {
        if !self.histogram_names.contains(name) {
            return None;
        }
        let mut merged = HistogramSnapshot::default();
        for w in self.trailing(windows) {
            if let Some(h) = w.histograms.get(name) {
                merge_into(&mut merged, h);
            }
        }
        Some(merged)
    }

    /// Estimated quantile of a histogram's activity over the trailing
    /// `windows` windows (interpolated power-of-two buckets; see
    /// [`HistogramSnapshot::quantile`]). `None` when the series is
    /// unknown **or** recorded no samples in the window — a latency rule
    /// has no data on an idle series, which must not read as "latency 0".
    pub(crate) fn quantile_window(&self, name: &str, q: f64, windows: usize) -> Option<u64> {
        let merged = self.histogram_window(name, windows)?;
        if merged.count == 0 {
            return None;
        }
        Some(merged.quantile(q))
    }

    fn trailing(&self, windows: usize) -> impl Iterator<Item = &Window> {
        let take = windows.clamp(1, self.windows.len());
        self.windows.iter().rev().take(take)
    }
}

/// Accumulates `delta` into `merged` bucket-wise.
fn merge_into(merged: &mut HistogramSnapshot, delta: &HistogramSnapshot) {
    if delta.count == 0 {
        return;
    }
    if merged.buckets.len() < delta.buckets.len() {
        merged.buckets.resize(delta.buckets.len(), 0);
    }
    for (i, &n) in delta.buckets.iter().enumerate() {
        merged.buckets[i] += n;
    }
    merged.min = if merged.count == 0 {
        delta.min
    } else {
        merged.min.min(delta.min)
    };
    merged.max = merged.max.max(delta.max);
    merged.count += delta.count;
    merged.sum += delta.sum;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_telemetry::Registry;

    #[test]
    fn windows_hold_deltas_not_cumulative_values() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        sink.add("blocks", 3);
        tsdb.sample(1, registry.snapshot());
        sink.add("blocks", 2);
        tsdb.sample(2, registry.snapshot());
        assert_eq!(tsdb.counter_window("blocks", 1), Some(2));
        assert_eq!(tsdb.counter_window("blocks", 2), Some(5));
        assert_eq!(tsdb.counter_latest("blocks"), Some(5));
    }

    #[test]
    fn quiet_series_reads_zero_not_missing() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(4);
        sink.incr("once");
        tsdb.sample(1, registry.snapshot());
        // No further activity: the series must stay visible as known.
        tsdb.sample(2, registry.snapshot());
        assert_eq!(tsdb.counter_window("once", 1), Some(0));
        assert_eq!(tsdb.counter_window("never", 1), None);
    }

    #[test]
    fn ring_evicts_oldest_windows() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(2);
        for t in 1..=5u64 {
            sink.incr("ticks");
            tsdb.sample(t, registry.snapshot());
        }
        assert_eq!(tsdb.windows.len(), 2);
        assert_eq!(tsdb.samples_total(), 5);
        // Only the last two windows (one increment each) remain.
        assert_eq!(tsdb.counter_window("ticks", 10), Some(2));
        // The cumulative view still covers the whole history.
        assert_eq!(tsdb.counter_latest("ticks"), Some(5));
    }

    #[test]
    fn histogram_windows_merge_buckets() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(8);
        sink.observe("lat", 10);
        tsdb.sample(1, registry.snapshot());
        sink.observe("lat", 1000);
        sink.observe("lat", 1000);
        tsdb.sample(2, registry.snapshot());
        let merged = tsdb.histogram_window("lat", 2).unwrap();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 2010);
        assert_eq!(merged.min, 10);
        assert_eq!(merged.max, 1000);
        // Trailing 1 window only sees the two slow samples.
        let tail = tsdb.histogram_window("lat", 1).unwrap();
        assert_eq!(tail.count, 2);
        assert!(tsdb.quantile_window("lat", 0.5, 1).unwrap() >= 512);
    }

    #[test]
    fn idle_histogram_quantile_is_no_data() {
        let registry = Registry::new();
        let sink = registry.sink();
        let mut tsdb = Tsdb::new(4);
        sink.observe("lat", 100);
        tsdb.sample(1, registry.snapshot());
        tsdb.sample(2, registry.snapshot());
        // Known series, but no samples in the last window: no data, not 0.
        assert_eq!(tsdb.quantile_window("lat", 0.99, 1), None);
        assert_eq!(tsdb.quantile_window("unknown", 0.99, 1), None);
    }

    #[test]
    fn first_sample_is_the_baseline_window() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.add("pre", 7);
        let mut tsdb = Tsdb::new(4);
        tsdb.sample(1, registry.snapshot());
        // Activity before monitoring began lands in the first window.
        assert_eq!(tsdb.counter_window("pre", 1), Some(7));
    }

    #[test]
    fn stale_ticks_are_clamped() {
        let registry = Registry::new();
        let mut tsdb = Tsdb::new(4);
        tsdb.sample(5, registry.snapshot());
        tsdb.sample(3, registry.snapshot());
        assert_eq!(tsdb.last_tick(), 5);
    }
}
