//! In-memory span recorder for the traced pass.
//!
//! The benchmark wraps every call into a layer's public function in a
//! span (name, start, end, parent, block index). Spans live in one
//! pre-allocated vector and are written out as a Chrome trace-event file
//! only after timing ends. A layer's *self time* is its span's duration
//! minus the part its child spans cover; the ledger is the sum of self
//! times by span name, so its rows add up to the time under the root
//! spans. A disabled recorder costs one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

const NONE: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`; the part before the first dot is the layer.
    pub name: &'static str,
    /// Start, ns from origin.
    pub start_ns: u64,
    /// End, ns from origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` for a root.
    pub parent: u32,
    /// Block (or cycle) index the span belongs to.
    pub block: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Aggregate of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LedgerRow {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times (duration minus children), ns.
    pub self_ns: u64,
}

/// The recorder. Single-threaded by construction: the benchmark drives
/// the program from one load-generating thread.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder with room for `capacity` spans up front, so
    /// the measured loop never reallocates.
    pub fn enabled(capacity: usize) -> Recorder {
        Recorder {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
        }
    }

    /// Pauses (`false`) or resumes (`true`) recording between rounds: a
    /// traced run records every second round and runs the others bare, so
    /// the two kinds of round price the tracing. No span may be open.
    pub fn set_recording(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str, block: u32) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            block,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// All closed spans, in open order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the durations of its
    /// direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(*c))
            .collect()
    }

    /// Per-name totals and self times.
    pub fn ledger(&self) -> BTreeMap<&'static str, LedgerRow> {
        let mut rows: BTreeMap<&'static str, LedgerRow> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.total_ns += s.dur_ns();
            row.self_ns += self_ns;
        }
        rows
    }

    /// Total nanoseconds under root spans — what the ledger rows sum to.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(Span::dur_ns)
            .sum()
    }

    /// Total (not self) nanoseconds recorded under `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Number of spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Renders the spans in Chrome trace-event format (loadable in
    /// `chrome://tracing` and Perfetto): one complete (`"ph":"X"`) event
    /// per span, category = layer, one thread.
    pub fn to_chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 110);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"block\":{}}}}}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                if s.parent == NONE { -1 } else { i64::from(s.parent) },
                s.block,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a recorder with hand-set times so arithmetic is exact.
    fn fixture() -> Recorder {
        let mut r = Recorder::enabled(8);
        let root = r.enter("driver.cycle", 0);
        let a = r.enter("gateway.offer", 0);
        r.exit(a);
        let b = r.enter("node.produce_block", 0);
        let c = r.enter("chain.import", 0);
        r.exit(c);
        r.exit(b);
        r.exit(root);
        let times = [(0, 100), (10, 30), (40, 90), (50, 70)];
        for (s, (start, end)) in r.spans.iter_mut().zip(times) {
            s.start_ns = start;
            s.end_ns = end;
        }
        r
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let r = fixture();
        // root: 100 − (20 + 50); produce: 50 − 20; leaves keep their own.
        assert_eq!(r.self_times(), vec![30, 20, 30, 20]);
        let ledger = r.ledger();
        assert_eq!(ledger["driver.cycle"].self_ns, 30);
        assert_eq!(ledger["node.produce_block"].total_ns, 50);
        assert_eq!(ledger["node.produce_block"].self_ns, 30);
        // Rows sum to the time under the roots.
        let sum: u64 = ledger.values().map(|row| row.self_ns).sum();
        assert_eq!(sum, r.root_ns());
        assert_eq!(r.root_ns(), 100);
    }

    #[test]
    fn parents_follow_the_open_stack() {
        let r = fixture();
        let parents: Vec<u32> = r.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NONE, 0, 0, 2]);
        assert_eq!(r.count("gateway.offer"), 1);
        assert_eq!(r.total_ns("chain.import"), 20);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::disabled();
        let id = r.enter("gateway.offer", 3);
        r.exit(id);
        assert!(r.spans().is_empty());
        assert_eq!(r.root_ns(), 0);
    }

    #[test]
    fn a_paused_recorder_skips_the_round() {
        let mut r = Recorder::enabled(8);
        for (round, on) in [false, true, false, true].into_iter().enumerate() {
            r.set_recording(on);
            let root = r.enter("driver.cycle", round as u32);
            let inner = r.enter("node.produce_block", round as u32);
            r.exit(inner);
            r.exit(root);
        }
        let blocks: Vec<u32> = r.spans().iter().map(|s| s.block).collect();
        assert_eq!(blocks, [1, 1, 3, 3]);
        assert_eq!(r.count("driver.cycle"), 2);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let r = fixture();
        let text = r.to_chrome_trace("door_single");
        let doc = crate::json::parse(&text).expect("trace parses");
        let events = doc
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("events");
        assert_eq!(events.len(), 4);
        assert_eq!(events[3].get("cat").and_then(|c| c.as_str()), Some("chain"));
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(0.02));
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_exit_is_a_bug() {
        let mut r = Recorder::enabled(4);
        let a = r.enter("a.x", 0);
        let _b = r.enter("b.y", 0);
        r.exit(a);
    }
}
