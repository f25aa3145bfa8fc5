//! The span record: one timed, causally-linked unit of work.

use std::borrow::Cow;

use crate::id::TraceId;

/// Well-known lane names. A lane is the "thread" a span renders on in the
/// Chrome trace-event export; each replica ("process") shows one row per
/// lane, so the pipeline stages line up vertically in Perfetto.
pub mod lanes {
    /// Client ingest: mempool admission and its signature check.
    pub const ADMISSION: &str = "admission";
    /// Consensus ordering: PBFT phases / PoA slots.
    pub const CONSENSUS: &str = "consensus";
    /// Block-level pipeline: propose, import.
    pub const PIPELINE: &str = "pipeline";
    /// Verification: block structure + per-transaction signatures.
    pub const VERIFY: &str = "verify";
    /// Execution: per-transaction state application.
    pub const EXECUTE: &str = "execute";
    /// Projection application (block observers).
    pub const PROJECTION: &str = "projection";
    /// Built-in contract calls.
    pub const CONTRACTS: &str = "contracts";

    /// Every lane, in the fixed display order used by the exporter.
    pub(crate) const ALL: [&str; 7] = [
        ADMISSION, CONSENSUS, PIPELINE, VERIFY, EXECUTE, PROJECTION, CONTRACTS,
    ];
}

/// Annotations a span can carry inline (see [`SpanArgs`]).
pub(crate) const MAX_ARGS: usize = 4;

/// Numeric key/value annotations stored inline in the record, so the
/// record path never heap-allocates for them. At most [`MAX_ARGS`]
/// entries are kept; extras are silently dropped (span annotations are
/// best-effort context, not data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanArgs {
    items: [(&'static str, u64); MAX_ARGS],
    len: u8,
}

impl SpanArgs {
    /// Copies up to [`MAX_ARGS`] entries from `args`.
    pub(crate) fn new(args: &[(&'static str, u64)]) -> SpanArgs {
        let mut out = SpanArgs::default();
        for &(k, v) in args.iter().take(MAX_ARGS) {
            out.items[out.len as usize] = (k, v);
            out.len += 1;
        }
        out
    }

    /// The stored annotations, in insertion order.
    pub(crate) fn as_slice(&self) -> &[(&'static str, u64)] {
        &self.items[..self.len as usize]
    }

    /// Iterates the stored annotations.
    pub(crate) fn iter(&self) -> std::slice::Iter<'_, (&'static str, u64)> {
        self.as_slice().iter()
    }

    /// Number of stored annotations.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no annotations are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Default for SpanArgs {
    fn default() -> SpanArgs {
        SpanArgs {
            items: [("", 0); MAX_ARGS],
            len: 0,
        }
    }
}

/// One completed span: a named interval on one replica, belonging to a
/// trace and (optionally) parented under another span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (see [`crate::span_id`] / [`crate::replica_span_id`]).
    pub id: u64,
    /// Parent span id, or 0 for a root span.
    pub parent: u64,
    /// Span name, e.g. `"tx.admission"` or `"pbft.prepare_phase"`.
    /// Borrowed for the static names used on hot paths; owned only for
    /// dynamic names (`projection.{name}`).
    pub name: Cow<'static, str>,
    /// Replica that recorded the span.
    pub replica: usize,
    /// Display lane (see [`lanes`]).
    pub(crate) lane: &'static str,
    /// Start, in nanoseconds since the tracer's shared origin.
    pub(crate) start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric key/value annotations (sim ticks, heights, worker ids…).
    pub args: SpanArgs,
}

impl SpanRecord {
    /// End of the span, saturating at `u64::MAX`.
    pub(crate) fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }

    /// The value of the named annotation, if present.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_and_args() {
        let s = SpanRecord {
            trace: TraceId::from_seed(b"t"),
            id: 1,
            parent: 0,
            name: "x".into(),
            replica: 0,
            lane: lanes::PIPELINE,
            start_ns: 10,
            dur_ns: 5,
            args: SpanArgs::new(&[("height", 7)]),
        };
        assert_eq!(s.end_ns(), 15);
        assert_eq!(s.arg("height"), Some(7));
        assert_eq!(s.arg("missing"), None);
    }

    #[test]
    fn args_truncate_at_capacity() {
        let many: Vec<(&'static str, u64)> = vec![("a", 1), ("b", 2), ("c", 3), ("d", 4), ("e", 5)];
        let args = SpanArgs::new(&many);
        assert_eq!(args.len(), MAX_ARGS);
        assert!(!args.is_empty());
        assert_eq!(args.as_slice().last(), Some(&("d", 4)));
        assert!(SpanArgs::default().is_empty());
    }

    #[test]
    fn lanes_are_distinct() {
        let mut names: Vec<&str> = lanes::ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lanes::ALL.len());
    }
}
