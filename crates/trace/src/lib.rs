//! # tn-trace — causal, cross-replica tracing for the trusted-news chain
//!
//! A zero-dependency tracing subsystem: every transaction gets a 128-bit
//! trace id minted at mempool admission, consensus messages carry a
//! [`SpanContext`], and each lifecycle stage (admission → verify →
//! consensus phases → pipeline commit → execute → projections) records
//! [`SpanRecord`]s into per-replica lock-light ring buffers. After a run
//! the shards merge into one causally-ordered [`Trace`] which exports to
//! Chrome trace-event JSON (open in Perfetto: replicas are processes,
//! pipeline lanes are threads) or to a plain-text critical-path summary.
//!
//! ## Deterministic ids
//!
//! Ids are content-derived (FNV-1a), never random:
//!
//! - trace id = hash of a seed all replicas agree on (tx id, batch
//!   digest, block id), via [`TraceId::from_seed`];
//! - span id = [`span_id`]`(trace, name)` for cluster-once spans, or
//!   [`replica_span_id`]`(trace, name, replica)` for per-replica spans.
//!
//! Any replica can therefore *compute* the id of a parent span another
//! replica recorded — cross-replica parent links need no communication.
//! Cluster-once spans (`tx.admission`, `tx.commit`) are deduplicated via
//! [`TraceSink::complete_once`], backed by a shared mint set.
//!
//! ## Overhead
//!
//! A disabled [`TraceSink`] (the default) reduces every call to a single
//! `Option` check, mirroring `tn-telemetry`'s sink design, so tracing
//! stays compiled into hot paths unconditionally.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod critical;
mod export;
mod id;
mod span;
mod trace;
mod tracer;

pub use id::{replica_span_id, span_id, SpanContext, TraceId};
pub use span::{lanes, SpanRecord};
pub use trace::Trace;
pub use tracer::{TraceSink, Tracer};
