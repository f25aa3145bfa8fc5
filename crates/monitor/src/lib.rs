//! Live health plane for the trusting-news platform.
//!
//! `tn-monitor` closes the loop from passively recorded metrics
//! ([`tn_telemetry`]) to online verdicts. It is organized as four small
//! layers, each a pure function of the one below:
//!
//! 1. `Tsdb` — a ring-buffer time-series store fed cumulative
//!    [`Registry`](tn_telemetry::Registry) snapshots on a logical-clock
//!    tick, retaining per-window deltas.
//! 2. [`SloRule`] / [`RuleEngine`] — declarative rules (threshold,
//!    ratio, histogram quantile, multi-window burn-rate) evaluated each
//!    tick with hysteresis, emitting [`Alert`] transitions onto an
//!    append-only timeline.
//! 3. [`ReplicaMonitor`] / [`assess_cluster`] — a per-replica health
//!    state machine (`Healthy → Degraded → Lagging → Quarantined`)
//!    driven by the built-in rule set plus cross-replica rollup facts
//!    (height lag, digest divergence), rolled up into a
//!    [`ClusterHealth`] verdict.
//! 4. `expo` — Prometheus text exposition (with a line-format lint)
//!    and JSON dumps of series, alerts, and health, plus the merged
//!    cluster alert-timeline artifact.
//!
//! The monitor only ever *reads* registry snapshots and never feeds back
//! into execution, so enabling it cannot change consensus outcomes:
//! state digests are byte-identical with monitoring on or off (enforced
//! by `exp23_health_plane`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(unreachable_pub)]

mod expo;
mod health;
mod rules;
mod tsdb;

pub use expo::{json_dump, lint_prometheus, prometheus_text, timeline_json};
pub use health::{
    assess_cluster, builtin_rules, ClusterHealth, ClusterHealthVerdict, HealthState, MonitorConfig,
    ReplicaMonitor, RULE_CAMPAIGN_BURN, RULE_CATCHUP, RULE_COMMIT_LATENCY, RULE_DIVERGENCE,
    RULE_LAG, RULE_MSG_DROPS, RULE_RESTART, RULE_SHED_BURN, RULE_SIGCACHE, RULE_UNDECODABLE,
    RULE_WAL_REPLAY,
};
pub use rules::{Alert, AlertState, Cmp, Query, RuleEngine, Severity, SloRule, Transition};
