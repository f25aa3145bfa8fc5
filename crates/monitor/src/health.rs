//! Per-replica health state machine and cluster-wide rollup.
//!
//! A [`ReplicaMonitor`] owns one replica's [`Tsdb`] and [`RuleEngine`]
//! and derives a [`HealthState`] each sample: rule severities drive
//! `Healthy ↔ Degraded`, while the cross-replica facts only a rollup can
//! see — height lag behind the quorum, execution-digest divergence —
//! drive `Lagging` and `Quarantined` via [`assess_cluster`]. The rollup
//! emits its findings as external alerts on the affected replica's own
//! timeline, so one artifact tells the whole story of a fault.

use tn_telemetry::Snapshot;

use crate::rules::{Alert, Cmp, Query, RuleEngine, Severity, SloRule, Transition};
use crate::tsdb::Tsdb;

/// A replica's health, worst state last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// No rule firing, on the quorum digest.
    Healthy,
    /// At least one warning-severity rule is firing.
    Degraded,
    /// Behind the quorum chain (reconcilable by catch-up).
    Lagging,
    /// State irreconcilable with the quorum — do not trust until
    /// re-synced.
    Quarantined,
}

impl HealthState {
    /// Short lowercase label (`"healthy"`, `"degraded"`, …).
    pub fn label(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Lagging => "lagging",
            HealthState::Quarantined => "quarantined",
        }
    }
}

/// Retained time-series windows per replica.
const RETENTION: usize = 64;

/// What a deployment adds to the built-in rule set.
#[derive(Debug, Clone, Default)]
pub struct MonitorConfig {
    /// Extra caller-defined rules appended to the built-ins.
    pub extra_rules: Vec<SloRule>,
}

/// Rule name for cross-replica digest divergence (emitted by
/// [`assess_cluster`], not evaluated from the time series).
pub const RULE_DIVERGENCE: &str = "replica-divergence";
/// Rule name for height lag behind the quorum (emitted by
/// [`assess_cluster`]).
pub const RULE_LAG: &str = "replica-lag";
/// Rule name for the commit-latency p99 SLO.
pub const RULE_COMMIT_LATENCY: &str = "commit-latency-p99";
/// Rule name for the gateway shed burn-rate SLO.
pub const RULE_SHED_BURN: &str = "gateway-shed-burn";
/// Rule name for signature-cache hit collapse.
pub const RULE_SIGCACHE: &str = "sigcache-collapse";
/// Rule name for WAL replay spikes.
pub const RULE_WAL_REPLAY: &str = "wal-replay-spike";
/// Rule name for state-sync catch-up activity.
pub const RULE_CATCHUP: &str = "catchup-active";
/// Rule name for replica restarts through the recovery path.
pub const RULE_RESTART: &str = "replica-restarted";
/// Rule name for consensus-layer message drops (loss, crashes,
/// partitions; recorded on the replica that owns the simulator sink).
pub const RULE_MSG_DROPS: &str = "consensus-drops";
/// Rule name for undecodable consensus payloads reaching execution.
pub const RULE_UNDECODABLE: &str = "undecodable-payloads";
/// Rule name for the misinformation-campaign burn-rate SLO over
/// coordinated crowd votes.
pub const RULE_CAMPAIGN_BURN: &str = "crowdrank-campaign-burn";

/// The built-in rule set over the platform's metric names (series that a
/// deployment does not record simply never fire).
pub fn builtin_rules(config: &MonitorConfig) -> Vec<SloRule> {
    let mut rules = vec![
        SloRule {
            name: RULE_COMMIT_LATENCY.into(),
            query: Query::Quantile {
                histogram: "pipeline.commit_ns".into(),
                q: 0.99,
                windows: 4,
            },
            cmp: Cmp::Above,
            // 250 ms: far above healthy service time.
            threshold: 250_000_000.0,
            for_windows: 2,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_SHED_BURN.into(),
            query: Query::BurnRate {
                bad: vec![
                    "gateway.shed.rate_limit".into(),
                    "gateway.shed.queue_full".into(),
                ],
                total: vec!["gateway.offered".into()],
                // Up to 1 % of offered requests may shed before the
                // budget burns.
                budget: 0.01,
                short_windows: 2,
                long_windows: 8,
            },
            cmp: Cmp::Above,
            // Fires at ten times the budget's burn rate.
            threshold: 10.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_SIGCACHE.into(),
            query: Query::Ratio {
                parts: vec!["chain.sigcache.hit".into()],
                total: vec!["chain.sigcache.hit".into(), "chain.sigcache.miss".into()],
                windows: 4,
            },
            cmp: Cmp::Below,
            // Below this floor the cache has collapsed. A healthy
            // validator counts one miss per transaction it admits and one
            // hit when it commits it (the proposer's one signature pass),
            // so the ratio rests at 1/2 and dips while admissions run
            // ahead of commits. 1/7 is where commits fall below a sixth of
            // admissions over the rule's four windows — the condition the
            // floor of 1/4 expressed while a commit still looked each
            // signature up twice.
            threshold: 1.0 / 7.0,
            for_windows: 2,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_WAL_REPLAY.into(),
            query: Query::Sum {
                counter: "storage.wal.replays".into(),
                windows: 2,
            },
            cmp: Cmp::Above,
            // Any WAL record replayed inside a rule window is a spike.
            threshold: 0.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_CATCHUP.into(),
            query: Query::Sum {
                counter: "node.catchup.blocks_applied".into(),
                windows: 2,
            },
            cmp: Cmp::Above,
            threshold: 0.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_RESTART.into(),
            query: Query::Sum {
                counter: "node.fault.recoveries".into(),
                windows: 2,
            },
            cmp: Cmp::Above,
            threshold: 0.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_MSG_DROPS.into(),
            query: Query::Sum {
                counter: "sim.msg.dropped".into(),
                windows: 2,
            },
            cmp: Cmp::Above,
            // Any consensus-message drop inside a rule window fires.
            threshold: 0.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_CAMPAIGN_BURN.into(),
            query: Query::BurnRate {
                bad: vec!["crowdrank.votes.coordinated".into()],
                total: vec!["crowdrank.votes.total".into()],
                // Up to 5 % of submitted crowd votes may look coordinated
                // before the budget burns.
                budget: 0.05,
                short_windows: 2,
                long_windows: 8,
            },
            cmp: Cmp::Above,
            // Fires at four times the budget's burn rate.
            threshold: 4.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
        SloRule {
            name: RULE_UNDECODABLE.into(),
            query: Query::Sum {
                counter: "node.batch.undecodable".into(),
                windows: 2,
            },
            cmp: Cmp::Above,
            threshold: 0.0,
            for_windows: 1,
            clear_windows: 2,
            severity: Severity::Warn,
        },
    ];
    rules.extend(config.extra_rules.iter().cloned());
    rules
}

/// One replica's live health plane: time series, rules, health state.
#[derive(Debug)]
pub struct ReplicaMonitor {
    replica: usize,
    tsdb: Tsdb,
    engine: RuleEngine,
    health: HealthState,
    /// Cluster-rollup override (Lagging/Quarantined) that rule state
    /// cannot clear on its own.
    cluster_state: HealthState,
    /// Health transitions, oldest first.
    transitions: Vec<(u64, HealthState)>,
}

impl ReplicaMonitor {
    /// A monitor for `replica` with the built-in rule set and `config`'s
    /// extra rules.
    pub fn new(replica: usize, config: &MonitorConfig) -> ReplicaMonitor {
        ReplicaMonitor {
            replica,
            tsdb: Tsdb::new(RETENTION),
            engine: RuleEngine::new(builtin_rules(config)),
            health: HealthState::Healthy,
            cluster_state: HealthState::Healthy,
            transitions: Vec::new(),
        }
    }

    /// The replica id this monitor watches.
    pub(crate) fn replica(&self) -> usize {
        self.replica
    }

    /// Ingests a cumulative registry snapshot at logical `tick`,
    /// evaluates every rule, and updates the health state. Returns the
    /// alert transitions this sample produced.
    pub fn sample(&mut self, tick: u64, snapshot: Snapshot) -> Vec<Alert> {
        self.tsdb.sample(tick, snapshot);
        let alerts = self.engine.evaluate(self.tsdb.last_tick(), &self.tsdb);
        self.recompute(self.tsdb.last_tick());
        alerts
    }

    /// Current health state.
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Health transitions, oldest first (the state machine's history).
    pub(crate) fn transitions(&self) -> &[(u64, HealthState)] {
        &self.transitions
    }

    /// The underlying time-series store.
    pub fn tsdb(&self) -> &Tsdb {
        &self.tsdb
    }

    /// The rule engine (alert states and timeline).
    pub fn engine(&self) -> &RuleEngine {
        &self.engine
    }

    /// Applies a cluster-rollup fact: escalates this replica to `state`
    /// (never downgrades) and records `rule` as an externally detected
    /// Firing alert at `tick`.
    pub(crate) fn apply_cluster_fact(
        &mut self,
        tick: u64,
        state: HealthState,
        rule: &str,
        value: f64,
    ) {
        self.engine.push_external(Alert {
            rule: rule.into(),
            tick,
            transition: Transition::Firing,
            value,
            severity: Severity::Critical,
        });
        self.cluster_state = self.cluster_state.max(state);
        self.recompute(tick);
    }

    /// Records a participant-level fact (e.g. a crowd-rank quarantine
    /// verdict) as an externally detected alert on this replica's
    /// timeline. Unlike `ReplicaMonitor::apply_cluster_fact`, the
    /// replica's own health is untouched: a quarantined *participant*
    /// does not make the replica less trustworthy — the timeline just
    /// documents the enforcement next to the rule alerts that led to it.
    pub fn record_participant_fact(&mut self, tick: u64, rule: &str, value: f64) {
        self.engine.push_external(Alert {
            rule: rule.into(),
            tick,
            transition: Transition::Firing,
            value,
            severity: Severity::Warn,
        });
    }

    /// Clears the cluster-rollup override (a later rollup found the
    /// replica back on the quorum, e.g. after catch-up), recording a
    /// Resolved transition for `rule`.
    pub(crate) fn clear_cluster_fact(&mut self, tick: u64, rule: &str) {
        if self.cluster_state == HealthState::Healthy {
            return;
        }
        self.engine.push_external(Alert {
            rule: rule.into(),
            tick,
            transition: Transition::Resolved,
            value: 0.0,
            severity: Severity::Critical,
        });
        self.cluster_state = HealthState::Healthy;
        self.recompute(tick);
    }

    /// Recomputes health from rule severities and the cluster override,
    /// logging a transition when the state changes.
    fn recompute(&mut self, tick: u64) {
        let rule_state = match self.engine.worst_firing() {
            Some(Severity::Critical) => HealthState::Quarantined,
            Some(Severity::Warn) => HealthState::Degraded,
            Some(Severity::Info) | None => HealthState::Healthy,
        };
        let next = rule_state.max(self.cluster_state);
        if next != self.health {
            self.health = next;
            self.transitions.push((tick, next));
        }
    }
}

/// Cluster-wide verdict rolled up from per-replica health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterHealthVerdict {
    /// Every replica healthy.
    Healthy,
    /// Some replica degraded, lagging, or quarantined, but a `2f+1`
    /// quorum still shares one digest.
    Degraded,
    /// No digest quorum, or more than `f` replicas quarantined — the
    /// cluster's output is not trustworthy.
    Critical,
}

impl ClusterHealthVerdict {
    /// Short lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            ClusterHealthVerdict::Healthy => "healthy",
            ClusterHealthVerdict::Degraded => "degraded",
            ClusterHealthVerdict::Critical => "critical",
        }
    }
}

/// The rollup's conclusion about the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterHealth {
    /// Per-replica health states, in replica-id order.
    pub replicas: Vec<HealthState>,
    /// The digest shared by `>= 2f+1` replicas, if one exists.
    pub quorum_digest: Option<Vec<u8>>,
    /// Cluster-wide verdict.
    pub verdict: ClusterHealthVerdict,
}

/// Rolls up cluster health at logical `tick` from each replica's height
/// and execution digest (opaque bytes; byte-equality is digest
/// agreement).
///
/// The rollup is purely observational — it reads state every replica
/// already exposes and never feeds back into execution:
///
/// - A `2f+1` quorum digest is computed (`f = (n-1)/3`).
/// - A replica off the quorum digest but **behind** the quorum height is
///   presumed on a stale prefix: [`HealthState::Lagging`], alert
///   [`RULE_LAG`].
/// - A replica off the quorum digest at (or past) the quorum height has
///   genuinely divergent state: [`HealthState::Quarantined`], alert
///   [`RULE_DIVERGENCE`].
/// - With no quorum at all, every replica is quarantined and the verdict
///   is [`ClusterHealthVerdict::Critical`].
///
/// A replica back on the quorum digest has any previous rollup override
/// cleared (its catch-up succeeded).
///
/// # Panics
///
/// When `monitors`, `heights`, and `digests` lengths differ.
pub fn assess_cluster(
    tick: u64,
    monitors: &mut [&mut ReplicaMonitor],
    heights: &[u64],
    digests: &[Vec<u8>],
) -> ClusterHealth {
    assert_eq!(monitors.len(), heights.len(), "one height per monitor");
    assert_eq!(monitors.len(), digests.len(), "one digest per monitor");
    let n = monitors.len();
    let quorum_digest = quorum_of(digests);
    match &quorum_digest {
        Some(q) => {
            let quorum_height = heights
                .iter()
                .zip(digests)
                .filter(|(_, d)| *d == q)
                .map(|(&h, _)| h)
                .max()
                .unwrap_or(0);
            for (i, monitor) in monitors.iter_mut().enumerate() {
                if &digests[i] == q {
                    monitor.clear_cluster_fact(tick, RULE_DIVERGENCE);
                } else if heights[i] < quorum_height {
                    let behind = quorum_height - heights[i];
                    monitor.apply_cluster_fact(tick, HealthState::Lagging, RULE_LAG, behind as f64);
                } else {
                    monitor.apply_cluster_fact(
                        tick,
                        HealthState::Quarantined,
                        RULE_DIVERGENCE,
                        heights[i] as f64,
                    );
                }
            }
        }
        None => {
            for monitor in monitors.iter_mut() {
                monitor.apply_cluster_fact(
                    tick,
                    HealthState::Quarantined,
                    RULE_DIVERGENCE,
                    f64::NAN,
                );
            }
        }
    }
    let replicas: Vec<HealthState> = monitors.iter().map(|m| m.health()).collect();
    let f = if n == 0 { 0 } else { (n - 1) / 3 };
    let quarantined = replicas
        .iter()
        .filter(|&&h| h == HealthState::Quarantined)
        .count();
    let verdict = if quorum_digest.is_none() || quarantined > f {
        ClusterHealthVerdict::Critical
    } else if replicas.iter().any(|&h| h != HealthState::Healthy) {
        ClusterHealthVerdict::Degraded
    } else {
        ClusterHealthVerdict::Healthy
    };
    ClusterHealth {
        replicas,
        quorum_digest,
        verdict,
    }
}

/// The digest shared by `>= 2f+1` of the entries, `f = (n-1)/3`.
fn quorum_of(digests: &[Vec<u8>]) -> Option<Vec<u8>> {
    let n = digests.len();
    if n == 0 {
        return None;
    }
    let quorum = 2 * ((n - 1) / 3) + 1;
    let mut counts: Vec<(&Vec<u8>, usize)> = Vec::new();
    for d in digests {
        match counts.iter_mut().find(|(seen, _)| *seen == d) {
            Some((_, c)) => *c += 1,
            None => counts.push((d, 1)),
        }
    }
    counts
        .into_iter()
        .find(|&(_, c)| c >= quorum)
        .map(|(d, _)| d.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_telemetry::Registry;

    fn monitors(n: usize) -> Vec<ReplicaMonitor> {
        let config = MonitorConfig::default();
        (0..n).map(|i| ReplicaMonitor::new(i, &config)).collect()
    }

    #[test]
    fn clean_cluster_is_healthy_everywhere() {
        let mut mons = monitors(4);
        let digests: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 32]).collect();
        let health = assess_cluster(
            10,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[5, 5, 5, 5],
            &digests,
        );
        assert_eq!(health.verdict, ClusterHealthVerdict::Healthy);
        assert!(health.replicas.iter().all(|&h| h == HealthState::Healthy));
        assert_eq!(health.quorum_digest, Some(vec![1u8; 32]));
    }

    #[test]
    fn behind_replica_is_lagging_not_quarantined() {
        let mut mons = monitors(4);
        let mut digests: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 32]).collect();
        digests[3] = vec![2u8; 32]; // stale prefix digest differs
        let health = assess_cluster(
            10,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[8, 8, 8, 3],
            &digests,
        );
        assert_eq!(health.replicas[3], HealthState::Lagging);
        assert_eq!(health.verdict, ClusterHealthVerdict::Degraded);
        let timeline = mons[3].engine().timeline();
        assert!(timeline.iter().any(|a| a.rule == RULE_LAG));
    }

    #[test]
    fn divergent_replica_at_height_is_quarantined() {
        let mut mons = monitors(4);
        let mut digests: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 32]).collect();
        digests[2] = vec![9u8; 32];
        let health = assess_cluster(
            10,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[8, 8, 8, 8],
            &digests,
        );
        assert_eq!(health.replicas[2], HealthState::Quarantined);
        assert_eq!(health.verdict, ClusterHealthVerdict::Degraded);
        assert!(mons[2]
            .engine()
            .timeline()
            .iter()
            .any(|a| a.rule == RULE_DIVERGENCE));
    }

    #[test]
    fn no_quorum_is_critical() {
        let mut mons = monitors(4);
        let digests: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 32]).collect();
        let health = assess_cluster(
            10,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[8, 8, 8, 8],
            &digests,
        );
        assert_eq!(health.verdict, ClusterHealthVerdict::Critical);
        assert!(health
            .replicas
            .iter()
            .all(|&h| h == HealthState::Quarantined));
    }

    #[test]
    fn rollup_fact_clears_when_replica_rejoins_quorum() {
        let mut mons = monitors(4);
        let mut digests: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 32]).collect();
        digests[3] = vec![2u8; 32];
        assess_cluster(
            10,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[8, 8, 8, 3],
            &digests,
        );
        assert_eq!(mons[3].health(), HealthState::Lagging);
        // Catch-up brings replica 3 back onto the quorum digest.
        digests[3] = vec![1u8; 32];
        let health = assess_cluster(
            20,
            &mut mons.iter_mut().collect::<Vec<_>>(),
            &[8, 8, 8, 8],
            &digests,
        );
        assert_eq!(health.replicas[3], HealthState::Healthy);
        assert_eq!(health.verdict, ClusterHealthVerdict::Healthy);
    }

    #[test]
    fn rule_firing_degrades_health_and_recovers() {
        let config = MonitorConfig::default();
        let mut monitor = ReplicaMonitor::new(0, &config);
        let registry = Registry::new();
        let sink = registry.sink();
        // An undecodable payload fires a built-in rule on the 1st sample.
        sink.incr("node.batch.undecodable");
        let alerts = monitor.sample(1, registry.snapshot());
        assert!(alerts.iter().any(|a| a.rule == RULE_UNDECODABLE));
        assert_eq!(monitor.health(), HealthState::Degraded);
        // The rule sums a 2-window trail, so the breach persists one more
        // window; two quiet evaluations after that resolve it.
        monitor.sample(2, registry.snapshot());
        assert_eq!(monitor.health(), HealthState::Degraded);
        monitor.sample(3, registry.snapshot());
        monitor.sample(4, registry.snapshot());
        assert_eq!(monitor.health(), HealthState::Healthy);
        assert_eq!(
            monitor.transitions(),
            &[(1, HealthState::Degraded), (4, HealthState::Healthy)]
        );
    }

    #[test]
    fn restart_and_catchup_counters_fire_builtins() {
        let config = MonitorConfig::default();
        let mut monitor = ReplicaMonitor::new(2, &config);
        let registry = Registry::new();
        let sink = registry.sink();
        sink.incr("node.fault.recoveries");
        sink.add("node.catchup.blocks_applied", 12);
        let alerts = monitor.sample(1, registry.snapshot());
        let names: Vec<&str> = alerts.iter().map(|a| a.rule.as_str()).collect();
        assert!(names.contains(&RULE_RESTART), "{names:?}");
        assert!(names.contains(&RULE_CATCHUP), "{names:?}");
    }
}
