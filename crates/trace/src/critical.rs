//! Critical-path analysis: where commit latency actually goes.
//!
//! The unit of accounting is a *root span* (normally `pipeline.commit`,
//! one per committed block per replica): its direct children are the
//! named stages, child durations are clipped to the root interval, and
//! whatever the children don't cover is the `(other)` bucket. The slowest
//! root also yields a critical chain — the deepest maximum-duration
//! descendant path — rendered as plain text.

use std::collections::BTreeMap;

use crate::span::SpanRecord;
use crate::trace::Trace;

/// Per-stage attribution of the total duration of all roots with a given
/// name. See [`Trace::commit_breakdown`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageBreakdown {
    /// The root span name the breakdown was computed for.
    pub(crate) root_name: String,
    /// Number of root spans found.
    pub roots: usize,
    /// Sum of all root durations, nanoseconds.
    pub total_ns: u64,
    /// Per-stage (direct-child name → clipped duration) totals,
    /// descending by duration.
    pub stages: Vec<(String, u64)>,
    /// Root time not covered by any direct child.
    pub other_ns: u64,
}

impl StageBreakdown {
    /// Fraction of root time attributed to named stages, in `[0, 1]`
    /// (1.0 for an empty breakdown).
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            1.0
        } else {
            1.0 - self.other_ns as f64 / self.total_ns as f64
        }
    }

    /// Renders the breakdown as an aligned table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "stage breakdown of {} x {} ({} ns total, {:.1}% attributed)\n",
            self.roots,
            self.root_name,
            self.total_ns,
            self.coverage() * 100.0
        );
        let width = self
            .stages
            .iter()
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(7)
            .max(7);
        for (name, ns) in &self.stages {
            out.push_str(&format!(
                "  {name:<width$}  {ns:>12} ns  {:>5.1}%\n",
                *ns as f64 * 100.0 / self.total_ns.max(1) as f64
            ));
        }
        out.push_str(&format!(
            "  {:<width$}  {:>12} ns  {:>5.1}%\n",
            "(other)",
            self.other_ns,
            self.other_ns as f64 * 100.0 / self.total_ns.max(1) as f64
        ));
        out
    }
}

/// Duration of the part of `child` that overlaps `root`'s interval.
fn clipped(child: &SpanRecord, root: &SpanRecord) -> u64 {
    let lo = child.start_ns.max(root.start_ns);
    let hi = child.end_ns().min(root.end_ns());
    hi.saturating_sub(lo)
}

impl Trace {
    /// Direct children of `root`: spans whose `parent` equals its id.
    fn children_of<'a>(&'a self, root: &SpanRecord) -> Vec<&'a SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.parent == root.id && s.id != root.id)
            .collect()
    }

    /// Attributes the total duration of every span named `root_name` to
    /// its direct children (clipped to the parent interval), summing per
    /// stage name across all roots. The residue lands in
    /// `StageBreakdown::other_ns`.
    pub fn commit_breakdown(&self, root_name: &str) -> StageBreakdown {
        let mut stages: BTreeMap<String, u64> = BTreeMap::new();
        let mut total_ns = 0u64;
        let mut covered_ns = 0u64;
        let mut roots = 0usize;
        for root in self.spans.iter().filter(|s| s.name == root_name) {
            roots += 1;
            total_ns += root.dur_ns;
            for child in self.children_of(root) {
                let d = clipped(child, root);
                covered_ns += d;
                *stages.entry(child.name.to_string()).or_default() += d;
            }
        }
        let mut stages: Vec<(String, u64)> = stages.into_iter().collect();
        stages.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        StageBreakdown {
            root_name: root_name.to_string(),
            roots,
            total_ns,
            stages,
            other_ns: total_ns.saturating_sub(covered_ns),
        }
    }

    /// The critical chain under the slowest span named `root_name`: from
    /// that root, repeatedly descend into the longest (clipped) direct
    /// child. Returns the chain root-first; empty when no such span
    /// exists.
    pub fn critical_path(&self, root_name: &str) -> Vec<&SpanRecord> {
        let Some(mut cur) = self
            .spans
            .iter()
            .filter(|s| s.name == root_name)
            .max_by_key(|s| (s.dur_ns, s.start_ns))
        else {
            return Vec::new();
        };
        let mut chain = vec![cur];
        loop {
            let next = self
                .children_of(cur)
                .into_iter()
                .max_by_key(|c| (clipped(c, cur), c.start_ns));
            match next {
                // Guard against parent-link cycles (malformed ids).
                Some(c) if !chain.iter().any(|s| s.id == c.id) => {
                    chain.push(c);
                    cur = c;
                }
                _ => break,
            }
        }
        chain
    }

    /// Renders the slowest block's critical chain as indented text: one
    /// line per hop with name, replica, duration, and share of the root.
    pub fn critical_path_text(&self, root_name: &str) -> String {
        let chain = self.critical_path(root_name);
        let Some(root) = chain.first() else {
            return format!("no '{root_name}' spans recorded\n");
        };
        let mut out = format!(
            "critical path of slowest {root_name} (trace {}):\n",
            root.trace
        );
        for (depth, span) in chain.iter().enumerate() {
            out.push_str(&format!(
                "  {}{} [replica {}] {} ns ({:.1}%)\n",
                "  ".repeat(depth),
                span.name,
                span.replica,
                span.dur_ns,
                span.dur_ns as f64 * 100.0 / root.dur_ns.max(1) as f64,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::TraceId;
    use crate::span::{lanes, SpanArgs};
    use crate::tracer::Tracer;

    /// Builds: root(0..100) with children a(0..60), b(60..90); a has a
    /// grandchild a1(10..50).
    fn sample() -> Trace {
        let tracer = Tracer::new(1);
        let sink = tracer.sink(0);
        let t = TraceId::from_seed(b"block");
        let mk = |id: u64, parent: u64, name: &'static str, start: u64, dur: u64| SpanRecord {
            trace: t,
            id,
            parent,
            name: name.into(),
            replica: 0,
            lane: lanes::PIPELINE,
            start_ns: start,
            dur_ns: dur,
            args: SpanArgs::default(),
        };
        sink.record(mk(1, 0, "pipeline.commit", 0, 100));
        sink.record(mk(2, 1, "chain.propose", 0, 60));
        sink.record(mk(3, 1, "chain.import", 60, 30));
        sink.record(mk(4, 2, "verify", 10, 40));
        tracer.collect()
    }

    #[test]
    fn breakdown_attributes_children_and_residue() {
        let b = sample().commit_breakdown("pipeline.commit");
        assert_eq!(b.roots, 1);
        assert_eq!(b.total_ns, 100);
        assert_eq!(
            b.stages,
            vec![
                ("chain.propose".to_string(), 60),
                ("chain.import".to_string(), 30)
            ]
        );
        assert_eq!(b.other_ns, 10);
        assert!((b.coverage() - 0.9).abs() < 1e-9);
        let text = b.render_text();
        assert!(text.contains("chain.propose"));
        assert!(text.contains("(other)"));
    }

    #[test]
    fn children_clip_to_root_interval() {
        let tracer = Tracer::new(1);
        let sink = tracer.sink(0);
        let t = TraceId::from_seed(b"clip");
        sink.record(SpanRecord {
            trace: t,
            id: 1,
            parent: 0,
            name: "root".into(),
            replica: 0,
            lane: lanes::PIPELINE,
            start_ns: 50,
            dur_ns: 50,
            args: SpanArgs::default(),
        });
        // Child overflows the root on both sides: only the overlap counts.
        sink.record(SpanRecord {
            trace: t,
            id: 2,
            parent: 1,
            name: "wide".into(),
            replica: 0,
            lane: lanes::PIPELINE,
            start_ns: 0,
            dur_ns: 500,
            args: SpanArgs::default(),
        });
        let b = tracer.collect().commit_breakdown("root");
        assert_eq!(b.stages[0].1, 50);
        assert_eq!(b.other_ns, 0);
    }

    #[test]
    fn critical_path_descends_longest_children() {
        let trace = sample();
        let chain: Vec<&str> = trace
            .critical_path("pipeline.commit")
            .iter()
            .map(|s| s.name.as_ref())
            .collect();
        assert_eq!(chain, vec!["pipeline.commit", "chain.propose", "verify"]);
        let text = trace.critical_path_text("pipeline.commit");
        assert!(text.contains("chain.propose"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn missing_root_is_reported_not_panicked() {
        let trace = sample();
        assert!(trace.critical_path("nope").is_empty());
        assert!(trace.critical_path_text("nope").contains("no 'nope' spans"));
        let b = trace.commit_breakdown("nope");
        assert_eq!(b.roots, 0);
        assert_eq!(b.coverage(), 1.0);
    }
}
