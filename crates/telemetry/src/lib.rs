//! # tn-telemetry
//!
//! Lightweight, zero-dependency, thread-safe metrics and tracing for the
//! trusting-news platform.
//!
//! The paper's central quantitative claims — consensus latency and
//! throughput scaling (§VII), "factual-sourced reporting can outpace the
//! spread of fake news" (abstract), and supply-chain traceability (§VI) —
//! are only reproducible if the system can *measure itself*. This crate is
//! that observability layer: every execution-path crate (`tn-chain`,
//! `tn-consensus`, `tn-contracts`, `tn-core`, `tn-node`) emits counters,
//! histograms, span timings and structured events through a
//! [`TelemetrySink`] handle, and a [`Registry`] renders the collected
//! [`Snapshot`] as JSON or a human-readable table.
//!
//! Key types:
//!
//! - `Counter`: a monotonically increasing atomic counter.
//! - [`Histogram`]: a fixed-bucket (power-of-two) histogram with atomic
//!   buckets, suitable for latency and size distributions; snapshots
//!   estimate p50/p95/p99 from the buckets.
//! - [`Span`]: a monotonic timer guard that records its elapsed
//!   nanoseconds into a histogram when dropped.
//! - `EventRing`: a bounded ring buffer of structured
//!   `Event`s (kind + detail + relative timestamp).
//! - [`Registry`]: owns the named metrics and produces [`Snapshot`]s.
//! - [`TelemetrySink`]: the cheap, cloneable handle instrumented code
//!   holds. A disabled sink (the default) makes every operation an
//!   immediate branch-and-return — hot paths pay nothing beyond one
//!   pointer test — so instrumentation can stay compiled in everywhere.
//!
//! # Example
//!
//! ```
//! use tn_telemetry::Registry;
//!
//! let registry = Registry::new();
//! let sink = registry.sink();
//! sink.incr("blocks_imported");
//! sink.observe("import_ns", 1_250);
//! {
//!     let _span = sink.span("work_ns"); // records elapsed ns on drop
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("blocks_imported"), Some(1));
//! assert!(snap.to_json().contains("blocks_imported"));
//!
//! // Disabled sinks are free and never record.
//! let off = tn_telemetry::TelemetrySink::disabled();
//! off.incr("blocks_imported");
//! assert!(!off.is_enabled());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod counter;
mod events;
mod histogram;
mod registry;
mod sink;

pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{json_string, Registry, Snapshot};
pub use sink::{Span, TelemetrySink};
