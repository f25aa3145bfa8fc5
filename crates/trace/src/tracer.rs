//! The tracer: per-replica ring buffers behind cheap cloneable sinks.

use std::borrow::Cow;
use std::collections::HashSet;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::id::{replica_span_id, span_id, TraceId};
use crate::span::{SpanArgs, SpanRecord};
use crate::trace::Trace;

/// Spans retained per replica shard; pushing past this evicts the oldest
/// span and counts it as dropped.
const SHARD_CAPACITY: usize = 1 << 16;

/// One replica's span storage.
#[derive(Debug)]
struct Shard {
    spans: VecDeque<SpanRecord>,
    dropped: u64,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            spans: VecDeque::new(),
            dropped: 0,
        }
    }
}

/// Shared state behind a [`Tracer`] and its [`TraceSink`]s.
#[derive(Debug)]
pub(crate) struct TracerInner {
    /// Shared wall-clock origin: every span timestamp is nanoseconds
    /// since this instant, so spans from different replicas land on one
    /// causally-consistent timeline.
    origin: Instant,
    /// One lock per replica. A replica's spans are recorded by that
    /// replica's execution, so the lock is effectively uncontended —
    /// "lock-light", not lock-free.
    shards: Vec<Mutex<Shard>>,
    /// Ids of once-per-trace spans already minted (cluster-wide dedup for
    /// spans like `tx.admission` that every replica would otherwise
    /// record).
    minted: Mutex<HashSet<u64>>,
}

/// Owns the span storage for an `n`-replica run and hands out per-replica
/// [`TraceSink`]s. Collect the merged, causally-ordered [`Trace`] with
/// [`Tracer::collect`] after the run.
#[derive(Debug)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A tracer with one span shard per replica (`n_replicas` is clamped
    /// to at least 1).
    pub fn new(n_replicas: usize) -> Tracer {
        let shards = (0..n_replicas.max(1))
            .map(|_| Mutex::new(Shard::new()))
            .collect();
        Tracer {
            inner: Arc::new(TracerInner {
                origin: Instant::now(),
                shards,
                minted: Mutex::new(HashSet::new()),
            }),
        }
    }

    /// An enabled sink recording into replica `replica`'s shard. Sinks
    /// are cheap to clone and hand to instrumented components; a replica
    /// index past the shard count is clamped to the last shard.
    pub fn sink(&self, replica: usize) -> TraceSink {
        TraceSink {
            inner: Some(Arc::clone(&self.inner)),
            replica,
        }
    }

    /// Drains every shard into one merged trace, ordered by start time
    /// (ties broken by replica then span id, so collection is
    /// deterministic for a given set of records).
    pub fn collect(&self) -> Trace {
        let mut spans = Vec::new();
        let mut dropped = 0;
        for shard in &self.inner.shards {
            let mut shard = shard.lock().expect("trace shard poisoned");
            dropped += shard.dropped;
            shard.dropped = 0;
            spans.extend(shard.spans.drain(..));
        }
        spans.sort_by_key(|a| (a.start_ns, a.replica, a.id));
        Trace {
            spans,
            dropped,
            n_replicas: self.inner.shards.len(),
        }
    }
}

/// The cheap handle instrumented components hold.
///
/// Like `tn-telemetry`'s sink, a `TraceSink` is either *enabled* (from
/// [`Tracer::sink`]) or *disabled* (the default): every operation on a
/// disabled sink is a single `Option` test and an immediate return, so
/// tracing can stay compiled into hot paths unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<TracerInner>>,
    replica: usize,
}

impl TraceSink {
    /// A sink that records nothing. Equivalent to `TraceSink::default()`.
    pub fn disabled() -> TraceSink {
        TraceSink {
            inner: None,
            replica: 0,
        }
    }

    /// Whether this sink records into a tracer.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The replica index this sink records as.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Nanoseconds since the tracer's shared origin (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.origin.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Claims a once-per-trace span id: true exactly for the first caller
    /// across all replicas (false when disabled). Gate cluster-wide-once
    /// spans (`tx.admission`, `tx.commit`) on this.
    pub fn once(&self, id: u64) -> bool {
        match &self.inner {
            Some(inner) => inner.minted.lock().expect("mint set poisoned").insert(id),
            None => false,
        }
    }

    /// Records a completed span into this replica's shard.
    pub fn record(&self, record: SpanRecord) {
        if let Some(inner) = &self.inner {
            Self::push(inner, record);
        }
    }

    /// The shared push path: ring-buffer insert under the shard lock.
    fn push(inner: &TracerInner, record: SpanRecord) {
        let shard_idx = record.replica.min(inner.shards.len() - 1);
        let mut shard = inner.shards[shard_idx]
            .lock()
            .expect("trace shard poisoned");
        if shard.spans.len() == SHARD_CAPACITY {
            shard.spans.pop_front();
            shard.dropped += 1;
        }
        shard.spans.push_back(record);
    }

    /// Records a per-replica span (`id = replica_span_id(trace, name,
    /// replica)`) running from `start_ns` to now.
    ///
    /// With a `&'static str` name (every hot-path span) and inline-sized
    /// `args`, recording performs no heap allocation beyond the shard's
    /// amortized ring growth.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &self,
        trace: TraceId,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        lane: &'static str,
        start_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        self.complete_at(trace, name, parent, lane, start_ns, self.now_ns(), args);
    }

    /// [`TraceSink::complete`] for a span that already ended, at `end_ns`:
    /// for work whose trace id is only known once it is over (a block's
    /// id exists after the block was executed and built).
    #[allow(clippy::too_many_arguments)]
    pub fn complete_at(
        &self,
        trace: TraceId,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        lane: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&'static str, u64)],
    ) {
        let Some(inner) = &self.inner else {
            return;
        };
        let name = name.into();
        Self::push(
            inner,
            SpanRecord {
                trace,
                id: replica_span_id(trace, &name, self.replica),
                parent,
                name,
                replica: self.replica,
                lane,
                start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
                args: SpanArgs::new(args),
            },
        );
    }

    /// Records a once-per-trace span (`id = span_id(trace, name)`) running
    /// from `start_ns` to now, if no replica has recorded it yet. Returns
    /// whether the span was recorded.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_once(
        &self,
        trace: TraceId,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        lane: &'static str,
        start_ns: u64,
        args: &[(&'static str, u64)],
    ) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let name = name.into();
        let id = span_id(trace, &name);
        if !inner.minted.lock().expect("mint set poisoned").insert(id) {
            return false;
        }
        let end = inner.origin.elapsed().as_nanos() as u64;
        Self::push(
            inner,
            SpanRecord {
                trace,
                id,
                parent,
                name,
                replica: self.replica,
                lane,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                args: SpanArgs::new(args),
            },
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::lanes;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        assert_eq!(sink.now_ns(), 0);
        assert!(!sink.once(7));
        sink.complete(TraceId::from_seed(b"t"), "x", 0, lanes::PIPELINE, 0, &[]);
        assert!(!sink.complete_once(TraceId::from_seed(b"t"), "x", 0, lanes::PIPELINE, 0, &[]));
    }

    #[test]
    fn spans_land_in_replica_shards_and_merge_sorted() {
        let tracer = Tracer::new(2);
        let t = TraceId::from_seed(b"t");
        let s1 = tracer.sink(1);
        let s0 = tracer.sink(0);
        s1.complete(t, "later", 0, lanes::EXECUTE, s1.now_ns(), &[]);
        s0.record(SpanRecord {
            trace: t,
            id: 42,
            parent: 0,
            name: "earliest".into(),
            replica: 0,
            lane: lanes::PIPELINE,
            start_ns: 0,
            dur_ns: 1,
            args: SpanArgs::default(),
        });
        let trace = tracer.collect();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "earliest");
        assert_eq!(trace.spans[1].replica, 1);
        assert_eq!(trace.dropped, 0);
        // Collection drains.
        assert!(tracer.collect().spans.is_empty());
    }

    #[test]
    fn complete_at_records_the_interval_it_is_given() {
        let tracer = Tracer::new(1);
        let sink = tracer.sink(0);
        let t = TraceId::from_seed(b"late id");
        sink.complete_at(
            t,
            "chain.execute",
            9,
            lanes::EXECUTE,
            100,
            350,
            &[("txs", 4)],
        );
        let trace = tracer.collect();
        let span = &trace.spans[0];
        assert_eq!((span.start_ns, span.dur_ns, span.parent), (100, 250, 9));
        assert_eq!(span.id, replica_span_id(t, "chain.execute", 0));
        assert_eq!(span.arg("txs"), Some(4));
    }

    #[test]
    fn once_guard_is_cluster_wide() {
        let tracer = Tracer::new(3);
        let t = TraceId::from_seed(b"tx");
        let mut recorded = 0;
        for replica in 0..3 {
            if tracer
                .sink(replica)
                .complete_once(t, "tx.admission", 0, lanes::ADMISSION, 0, &[])
            {
                recorded += 1;
            }
        }
        assert_eq!(recorded, 1);
        assert_eq!(tracer.collect().spans.len(), 1);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let tracer = Tracer::new(1);
        let sink = tracer.sink(0);
        let t = TraceId::from_seed(b"flood");
        for i in 0..(SHARD_CAPACITY as u64 + 10) {
            sink.record(SpanRecord {
                trace: t,
                id: i + 1,
                parent: 0,
                name: "s".into(),
                replica: 0,
                lane: lanes::PIPELINE,
                start_ns: i,
                dur_ns: 1,
                args: SpanArgs::default(),
            });
        }
        let trace = tracer.collect();
        assert_eq!(trace.spans.len(), SHARD_CAPACITY);
        assert_eq!(trace.dropped, 10);
        assert_eq!(trace.spans[0].start_ns, 10, "oldest were evicted");
    }

    #[test]
    fn out_of_range_replica_clamps_to_last_shard() {
        let tracer = Tracer::new(2);
        let sink = tracer.sink(9);
        sink.complete(TraceId::from_seed(b"t"), "x", 0, lanes::PIPELINE, 0, &[]);
        let trace = tracer.collect();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].replica, 9, "label preserved");
    }
}
