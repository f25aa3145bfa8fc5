//! The merged, causally-ordered trace of one run.

use std::collections::{BTreeMap, BTreeSet};

use crate::id::TraceId;
use crate::span::SpanRecord;

/// Every span collected from a run, merged across replicas and ordered by
/// start time. Produced by [`Tracer::collect`](crate::Tracer::collect);
/// consumed by the exporters ([`Trace::to_chrome_json`],
/// [`Trace::commit_breakdown`](crate::Trace::commit_breakdown),
/// [`Trace::critical_path_text`](crate::Trace::critical_path_text)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// All spans, ordered by `(start_ns, replica, id)`.
    pub spans: Vec<SpanRecord>,
    /// Spans evicted from ring buffers before collection.
    pub dropped: u64,
    /// Number of replica shards the tracer was built with.
    pub(crate) n_replicas: usize,
}

impl Trace {
    /// Number of collected spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were collected.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The distinct replicas that recorded at least one span.
    pub fn replicas(&self) -> BTreeSet<usize> {
        self.spans.iter().map(|s| s.replica).collect()
    }

    /// All spans belonging to `trace`, in start order.
    pub fn of_trace(&self, trace: TraceId) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.trace == trace).collect()
    }

    /// All spans with the given name, in start order.
    pub fn named(&self, name: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Trace ids that have spans on at least `min_replicas` distinct
    /// replicas — the cross-replica causal links an export must show.
    pub fn cross_replica_traces(&self, min_replicas: usize) -> Vec<TraceId> {
        let mut per_trace: BTreeMap<TraceId, BTreeSet<usize>> = BTreeMap::new();
        for s in &self.spans {
            per_trace.entry(s.trace).or_default().insert(s.replica);
        }
        per_trace
            .into_iter()
            .filter(|(_, replicas)| replicas.len() >= min_replicas)
            .map(|(trace, _)| trace)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::lanes;
    use crate::{replica_span_id, Tracer};

    fn sample() -> Trace {
        let tracer = Tracer::new(3);
        let t1 = TraceId::from_seed(b"one");
        let t2 = TraceId::from_seed(b"two");
        for replica in 0..3 {
            tracer
                .sink(replica)
                .complete(t1, "tx.apply", 0, lanes::EXECUTE, 0, &[]);
        }
        tracer
            .sink(0)
            .complete(t2, "local", 0, lanes::PIPELINE, 0, &[]);
        tracer.collect()
    }

    #[test]
    fn queries_cover_replicas_and_traces() {
        let trace = sample();
        assert_eq!(trace.len(), 4);
        assert!(!trace.is_empty());
        assert_eq!(trace.replicas().len(), 3);
        let t1 = TraceId::from_seed(b"one");
        assert_eq!(trace.of_trace(t1).len(), 3);
        assert_eq!(trace.named("tx.apply").len(), 3);
        assert_eq!(trace.cross_replica_traces(3), vec![t1]);
        assert_eq!(trace.cross_replica_traces(1).len(), 2);
        let id0 = replica_span_id(t1, "tx.apply", 0);
        assert!(trace.of_trace(t1).iter().any(|s| s.id == id0));
    }
}
