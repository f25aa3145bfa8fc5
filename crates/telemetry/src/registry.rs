//! Named metric registry and point-in-time snapshots.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::counter::Counter;
use crate::events::{Event, EventRing};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::sink::TelemetrySink;

/// Number of structured events retained per registry.
const EVENT_CAPACITY: usize = 256;

/// Shared state behind a [`Registry`] and every enabled
/// [`TelemetrySink`] cloned from it.
#[derive(Debug)]
pub(crate) struct Inner {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    events: EventRing,
}

impl Inner {
    fn new() -> Inner {
        Inner {
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            events: EventRing::new(EVENT_CAPACITY),
        }
    }

    pub(crate) fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter map poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    pub(crate) fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    pub(crate) fn events(&self) -> &EventRing {
        &self.events
    }
}

/// Owns a set of named `Counter`s, [`Histogram`]s, and an event ring,
/// and produces [`Snapshot`]s of them.
///
/// Metrics are created lazily on first use by name; a `Registry` is cheap
/// to create and clone-free to share (hand out [`TelemetrySink`]s instead).
#[derive(Debug)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            inner: Arc::new(Inner::new()),
        }
    }

    /// An enabled sink recording into this registry. Sinks are cheap to
    /// clone and hand to instrumented components.
    pub fn sink(&self) -> TelemetrySink {
        TelemetrySink::from_inner(Arc::clone(&self.inner))
    }

    /// A point-in-time copy of every metric in the registry.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            histograms,
            events: self.inner.events.drain_snapshot(),
            events_total: self.inner.events.total(),
        }
    }
}

/// A point-in-time copy of a [`Registry`]'s metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Retained structured events, oldest first.
    pub events: Vec<Event>,
    /// Total events ever recorded (including evicted ones).
    pub(crate) events_total: u64,
}

impl Snapshot {
    /// The value of the named counter, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The state of the named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// What happened *between* `baseline` and this snapshot, assuming
    /// `baseline` was taken earlier from the same registry.
    ///
    /// Counters and histograms subtract (saturating); entries whose delta
    /// is zero/empty are dropped, so the result names only the metrics
    /// that actually moved in the window — the per-phase attribution
    /// benches and experiment bins want. Events are the retained ones
    /// recorded after the baseline (`seq >= baseline.events_total`), and
    /// `events_total` becomes the number recorded in the window.
    ///
    /// # Restrictions (intentional — this is an attribution view)
    ///
    /// - **Zero-delta series are dropped.** A counter or histogram that
    ///   existed but did not move between the snapshots is absent from
    ///   the result, indistinguishable from a series that never existed.
    ///   Consumers that must tell "known but quiet" apart from "unknown"
    ///   — notably `tn-monitor`'s `Tsdb`, whose SLO rules would otherwise
    ///   silently skip a series that went quiet — must diff consecutive
    ///   cumulative snapshots themselves and track the name set across
    ///   samples, as `Tsdb::sample` does.
    /// - **Evicted events are unrecoverable.** The ring retains the most
    ///   recent `256` events; if more than that were recorded in the
    ///   window, `events` holds only the retained tail while
    ///   `events_total` still counts the whole window. `events_total >
    ///   events.len()` is therefore the overflow signal.
    /// - **Histogram `min`/`max` bound, not measure, the window.** See
    ///   [`HistogramSnapshot::delta`]: extrema of the window alone are
    ///   not recoverable from two cumulative snapshots.
    pub fn delta(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| {
                let base = baseline.counter(name).unwrap_or(0);
                (name.clone(), v.saturating_sub(base))
            })
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| {
                let delta = match baseline.histogram(name) {
                    Some(base) => h.delta(base),
                    None => h.clone(),
                };
                (name.clone(), delta)
            })
            .filter(|(_, h)| h.count > 0)
            .collect();
        let events = self
            .events
            .iter()
            .filter(|e| e.seq >= baseline.events_total)
            .cloned()
            .collect();
        Snapshot {
            counters,
            histograms,
            events,
            events_total: self.events_total.saturating_sub(baseline.events_total),
        }
    }

    /// Keeps only the counters and histograms whose name satisfies
    /// `keep`; events are untouched. Useful before rendering when a
    /// caller wants a reproducible view — e.g. dropping wall-clock
    /// `*_ns` timings so deterministic-simulation output stays
    /// byte-identical across runs.
    pub fn retain_metrics(&mut self, keep: impl Fn(&str) -> bool) {
        self.counters.retain(|name, _| keep(name));
        self.histograms.retain(|name, _| keep(name));
    }

    /// Renders the snapshot as a JSON object.
    ///
    /// Hand-rolled (the crate is zero-dependency): counters map to numbers,
    /// histograms to `{count, sum, min, max, mean, p50, p95, p99}` objects,
    /// events to an array of `{seq, at_micros, kind, detail}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(name), value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{:.1},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_string(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99(),
            ));
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"at_micros\":{},\"kind\":{},\"detail\":{}}}",
                e.seq,
                e.at_micros,
                json_string(&e.kind),
                json_string(&e.detail),
            ));
        }
        out.push_str(&format!("],\"events_total\":{}}}", self.events_total));
        out
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn render_table(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.histograms.keys())
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(8);
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str(&format!("  {:<width$}  {:>12}\n", "counter", "value"));
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {value:>12}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(&format!(
                "  {:<width$}  {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "histogram", "count", "mean", "p50", "p95", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<width$}  {:>8} {:>12.1} {:>12} {:>12} {:>12}\n",
                    name,
                    h.count,
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.max
                ));
            }
        }
        if out.is_empty() {
            out.push_str("  (no metrics recorded)\n");
        }
        out
    }
}

/// Escapes `s` as a JSON string literal, including the surrounding quotes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_metrics_filters_by_name() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("blocks");
        sink.observe("import_ns", 500);
        sink.observe("phase_ticks", 7);
        let mut snap = registry.snapshot();
        snap.retain_metrics(|name| !name.ends_with("_ns"));
        assert_eq!(snap.counter("blocks"), Some(1));
        assert!(snap.histogram("import_ns").is_none());
        assert!(snap.histogram("phase_ticks").is_some());
    }

    #[test]
    fn snapshot_reflects_recorded_metrics() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("imports");
        sink.add("imports", 2);
        sink.observe("latency_ns", 1_000);
        sink.event("commit", || "height=1".to_string());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("imports"), Some(3));
        assert_eq!(snap.histogram("latency_ns").unwrap().count, 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events_total, 1);
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn delta_isolates_the_window() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.add("blocks", 3);
        sink.observe("import_ns", 100);
        sink.event("before", || "pre-baseline".to_string());
        let baseline = registry.snapshot();
        sink.add("blocks", 2);
        sink.incr("txs");
        sink.observe("import_ns", 900);
        sink.event("after", || "in-window".to_string());
        let delta = registry.snapshot().delta(&baseline);
        assert_eq!(delta.counter("blocks"), Some(2));
        assert_eq!(delta.counter("txs"), Some(1));
        let h = delta.histogram("import_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 900);
        assert_eq!(delta.events.len(), 1);
        assert_eq!(delta.events[0].kind, "after");
        assert_eq!(delta.events_total, 1);
    }

    #[test]
    fn delta_drops_unchanged_metrics() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("stale");
        sink.observe("quiet_ns", 5);
        let baseline = registry.snapshot();
        sink.incr("fresh");
        let delta = registry.snapshot().delta(&baseline);
        assert_eq!(delta.counter("stale"), None, "zero deltas are dropped");
        assert!(delta.histogram("quiet_ns").is_none());
        assert_eq!(delta.counter("fresh"), Some(1));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("a\"b");
        sink.event("note", || "line1\nline2".to_string());
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"a\\\"b\":1"));
        assert!(json.contains("line1\\nline2"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn table_lists_counters_and_histograms() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("blocks");
        sink.observe("ns", 5);
        let table = registry.snapshot().render_table();
        assert!(table.contains("blocks"));
        assert!(table.contains("histogram"));
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let table = Registry::new().snapshot().render_table();
        assert!(table.contains("no metrics recorded"));
    }
}
