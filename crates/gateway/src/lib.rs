//! # tn-gateway — the platform's front door
//!
//! Every experiment before E21 was *closed-loop*: generate a batch,
//! order it, commit it, repeat — the next request waits for the last
//! one, so queueing never builds and the measured "throughput" says
//! nothing about the saturation point a platform serving millions of
//! readers and submitters will actually hit. This crate adds the two
//! halves needed to measure that honestly:
//!
//! - **An admission layer** ([`Gateway`]): per-client token-bucket rate
//!   limiting, client-sharded *bounded* ingress lanes with explicit
//!   [`AdmitVerdict`]s (a request is admitted or shed at the door —
//!   never silently dropped later), and watermark-gated batched ingest
//!   into a [`ValidatorNode`](tn_node::validator::ValidatorNode)'s
//!   mempool. Once admitted, a transaction is *never* lost: bounded
//!   lanes push back by refusing new work, not by dropping old work.
//! - **An open-loop load harness** ([`loadgen`], [`openloop`]): a
//!   Zipf-popularity workload of submitter/ranker/reader personas (bot
//!   and honest, per `tn-propagation`'s account model) replayed at a
//!   configured arrival rate that does **not** slow down when the
//!   pipeline does — the defining property of an open-loop generator,
//!   and the reason the latency knee becomes visible.
//!
//! Admission decisions are a pure function of the gateway configuration
//! and the arrival schedule (client ids + logical timestamps): replaying
//! the same schedule yields the identical admit/shed verdict sequence
//! and byte-identical chain digests at any ingest batch size. The
//! open-loop harness exploits this to keep its sweeps reproducible while
//! still measuring real wall-clock commit service times.
//!
//! Configuration lives in
//! [`GatewayConfig`](tn_core::platform::GatewayConfig) (part of
//! `PlatformConfig`, so one config describes a full deployment) and is
//! validated here at construction: zero-capacity queues and zero-size
//! ingest batches are typed [`GatewayError`]s instead of silent stalls,
//! and `workers == 0` clamps to one lane.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::error::Error;
use std::fmt;

pub mod campaign;
pub mod gateway;
pub mod limiter;
pub mod loadgen;
pub mod openloop;
pub mod queue;

pub use campaign::{
    build_campaign_workload, campaign_policy, participant_id, run_campaign, AttackKind,
    CampaignOutcome, CampaignProfile, CampaignWorkload, RULE_PARTICIPANT_QUARANTINE,
};
pub use gateway::{AdmitVerdict, DrainReport, Gateway, GatewayStats};
pub use limiter::RateLimiter;
pub use loadgen::{
    build_workload, schedule, Arrival, ClientProfile, LoadProfile, Persona, Request, RequestKind,
    Workload,
};
pub use openloop::{run_open_loop, run_open_loop_on, OpenLoopConfig, OpenLoopReport, OpenLoopRun};
pub use queue::IngressLane;

/// Gateway-layer errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The gateway configuration was rejected at construction (e.g. a
    /// zero-capacity ingress queue, which could never admit work and
    /// would shed every request, or a zero-size ingest batch, which
    /// would never drain an admitted transaction).
    Config(String),
    /// A node-level failure while committing gateway-ingested work.
    Node(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Config(e) => write!(f, "invalid gateway configuration: {e}"),
            GatewayError::Node(e) => write!(f, "node error behind the gateway: {e}"),
        }
    }
}

impl Error for GatewayError {}

impl From<tn_node::validator::NodeError> for GatewayError {
    fn from(e: tn_node::validator::NodeError) -> Self {
        GatewayError::Node(e.to_string())
    }
}
