//! E23: health plane — monitor overhead, fault-detection latency, and
//! the gateway shed SLO joining E21's drain ceiling.
//!
//! E19 proved the cluster *survives* faults; E23 asks whether an
//! operator would *notice* them. Every replica carries a `tn-monitor`
//! `ReplicaMonitor`: a ring-buffer time series sampled from the
//! replica's telemetry registry at each committed block, a declarative
//! SLO rule engine (thresholds, ratios, multi-window burn rates) with
//! alert hysteresis, and a per-replica health state machine rolled up
//! into a cluster verdict by cross-replica digest comparison.
//!
//! Three parts:
//!
//! - **A (overhead + determinism)**: the same fault-free PBFT cluster
//!   run with the monitor off and on. Digests must be byte-identical —
//!   monitoring only reads snapshots — and the wall-clock overhead is
//!   recorded (the acceptance bar, ≤ 5%, is tracked by the
//!   `consensus_round` Criterion group; here it is a recorded point).
//! - **B (detection matrix)**: the E19 fault cells re-run under the
//!   monitor. Each cell machine-checks that the *expected alert class*
//!   fired on the *expected replica* and records the detection tick
//!   (block height of the first `Firing` transition). The clean
//!   baseline must produce zero alerts and zero false `Quarantined`
//!   verdicts. Two cells use [`MonitorConfig::extra_rules`] to watch
//!   fault counters the built-ins don't (partitions, byzantine flags),
//!   exercising the declarative rule API end to end.
//! - **C (shed SLO vs the drain ceiling)**: the E21 open-loop sweep with the
//!   monitor attached to the validator. Below the drain ceiling
//!   (256 tx / 20 ms ≈ 12.8k tps) the shed burn-rate SLO must stay
//!   quiet; past it the gateway sheds far beyond the 1% error
//!   budget and the burn-rate alert must fire.
//!
//! Full runs write `results/e23.json` plus the repo-root
//! `BENCH_e23.json` perf snapshot (schema in `docs/BENCHMARKS.md`);
//! `--quick` is a CI smoke run that asserts the invariants on a reduced
//! matrix and writes nothing.

use std::time::Instant;

use serde::Serialize;

use tn_bench::scenarios::{fault_matrix, open_loop_sweep, sweep_olc, FaultScenario};
use tn_bench::table::capture;
use tn_bench::Experiment;
use tn_core::platform::PlatformConfig;
use tn_gateway::{run_open_loop, OpenLoopConfig};
use tn_monitor::{
    ClusterHealthVerdict, Cmp, HealthState, MonitorConfig, Query, Severity, SloRule, Transition,
    RULE_CATCHUP, RULE_DIVERGENCE, RULE_LAG, RULE_MSG_DROPS, RULE_RESTART, RULE_SHED_BURN,
    RULE_UNDECODABLE,
};
use tn_node::network::{run_pbft_cluster, ClusterConfig, ClusterRun};
use tn_node::workload::scripted_workload;

/// Part A: the monitored run against the unmonitored baseline.
#[derive(Debug, Serialize)]
struct Overhead {
    /// Timed repetitions per mode (min taken).
    reps: usize,
    /// Fastest unmonitored cluster run, milliseconds.
    base_ms: f64,
    /// Fastest monitored cluster run, milliseconds.
    monitored_ms: f64,
    /// (monitored − base) / base, percent. Recorded, not asserted: the
    /// hard ≤ 5% gate lives in the `consensus_round` Criterion group.
    overhead_pct: f64,
    /// Execution digests byte-identical with monitoring on and off.
    digests_identical: bool,
    /// Registry snapshots taken across all four replicas.
    windows_sampled: u64,
}

/// Part B: one fault cell of the detection matrix.
#[derive(Debug, Serialize)]
struct DetectionRow {
    scenario: &'static str,
    /// Alert rules this fault class must fire ("-" for the baseline).
    expected_rules: String,
    /// Every expected rule fired on the expected replica(s).
    fired: bool,
    /// Replica of the first firing of the first expected rule.
    detect_replica: Option<usize>,
    /// Monitor tick (block height) of that first firing — the
    /// detection latency in committed blocks.
    detection_tick: Option<u64>,
    /// Quorum-chain height at the final rollup, for scale.
    final_height: u64,
    /// Rolled-up cluster verdict at the end of the run.
    verdict: &'static str,
    /// Replicas the rollup quarantined.
    quarantined: usize,
    /// Replicas the rollup marked lagging.
    lagging: usize,
}

/// Part C: one offered-load point with the shed SLO attached.
#[derive(Debug, Serialize)]
struct SloPoint {
    offered_tps: f64,
    committed_tps: f64,
    p99_ms: f64,
    /// Writes shed at the door / writes offered.
    shed_ratio: f64,
    /// The gateway shed burn-rate alert fired during the run.
    burn_alert_fired: bool,
    /// Monitor tick of the first burn-rate firing.
    detection_tick: Option<u64>,
}

/// What a fault cell must make the monitor say.
enum Expect {
    /// No alerts, no non-Healthy replica: the false-positive guard.
    Clean,
    /// Every listed rule fires; `replica` pins where (None = every
    /// replica must fire it).
    Rules {
        rules: &'static [&'static str],
        replica: Option<usize>,
    },
    /// No quorum: every replica quarantined, verdict Critical.
    Critical { rule: &'static str },
}

/// Watches a counter the built-in rule set ignores: fires when `counter`
/// is non-zero over the last two windows.
fn watch_counter(name: &'static str, counter: &'static str) -> SloRule {
    SloRule {
        name: name.into(),
        query: Query::Sum {
            counter: counter.into(),
            windows: 2,
        },
        cmp: Cmp::Above,
        threshold: 0.0,
        for_windows: 1,
        clear_windows: 2,
        severity: Severity::Warn,
    }
}

const RULE_PARTITIONS: &str = "consensus-partitions";
const RULE_BYZ_FLAGGED: &str = "byzantine-flagged";

/// What the monitor must report for one scenario of the E19 matrix:
/// extra declarative rules for fault counters the built-ins skip, the
/// alert class that must fire (and where), and the replicas the rollup
/// may quarantine.
fn expectation(scenario: &str) -> (Vec<SloRule>, Expect, &'static [usize]) {
    let on = |rules: &'static [&'static str], replica| Expect::Rules { rules, replica };
    match scenario {
        "baseline" => (vec![], Expect::Clean, &[]),
        "crash-backup" => (vec![], on(&[RULE_LAG], Some(3)), &[]),
        "crash-primary" => (vec![], on(&[RULE_LAG], Some(0)), &[]),
        "crash-revive" => (vec![], on(&[RULE_RESTART, RULE_CATCHUP], Some(2)), &[]),
        // The simulator accounts partition-blocked messages on
        // replica 0's sink under `sim.msg.partitioned`, which no
        // built-in rule watches: a declarative extra rule does.
        "partition-heal" => (
            vec![watch_counter(RULE_PARTITIONS, "sim.msg.partitioned")],
            on(&[RULE_PARTITIONS], Some(0)),
            &[],
        ),
        // The runner flags byzantine replicas on their own registry
        // (`node.fault.byzantine`); an extra rule surfaces the flag.
        "byz-equivocate" => (
            vec![watch_counter(RULE_BYZ_FLAGGED, "node.fault.byzantine")],
            on(&[RULE_BYZ_FLAGGED], Some(0)),
            &[0],
        ),
        "corrupt-exec-1" => (vec![], on(&[RULE_DIVERGENCE], Some(3)), &[3]),
        "corrupt-exec-2" => (
            vec![],
            Expect::Critical {
                rule: RULE_DIVERGENCE,
            },
            &[0, 1, 2, 3],
        ),
        "drop-window-0.3" => (vec![], on(&[RULE_MSG_DROPS], Some(0)), &[]),
        "corrupt-payloads" => (vec![], on(&[RULE_UNDECODABLE], None), &[]),
        other => panic!("no monitor expectation for E19 scenario {other}"),
    }
}

/// Tick of the first `Firing` transition of `rule` on replica `id`.
fn fired_at(run: &ClusterRun, rule: &str, id: usize) -> Option<u64> {
    let timeline = run.nodes[id].monitor()?.engine().timeline();
    let firing = timeline
        .iter()
        .find(|a| a.rule == rule && a.transition == Transition::Firing)?;
    Some(firing.tick)
}

/// Whether `rule` ever fired on replica `id`.
fn fired_on(run: &ClusterRun, rule: &str, id: usize) -> bool {
    fired_at(run, rule, id).is_some()
}

/// First `Firing` transition of `rule` across the cluster's timelines.
fn first_firing(run: &ClusterRun, rule: &str) -> Option<(usize, u64)> {
    (0..run.nodes.len())
        .filter_map(|id| Some((id, fired_at(run, rule, id)?)))
        .min_by_key(|&(_, tick)| tick)
}

fn run_cell(cell: &FaultScenario) -> DetectionRow {
    let (extra_rules, expect, allowed_quarantine) = expectation(cell.name);
    let config = ClusterConfig {
        faults: cell
            .pbft
            .clone()
            .expect("every E19 scenario has a PBFT plan"),
        monitor: Some(MonitorConfig { extra_rules }),
        ..ClusterConfig::default()
    };
    let txs = scripted_workload(&config.platform);
    let run = run_pbft_cluster(&config, &txs).expect("monitored cluster");
    let health = run.health.as_ref().expect("rollup present");
    let final_height = run.reports.iter().map(|r| r.height).max().unwrap_or(0);

    // No cell may quarantine a replica its fault plan left honest.
    for (id, state) in health.replicas.iter().enumerate() {
        if *state == HealthState::Quarantined {
            assert!(
                allowed_quarantine.contains(&id),
                "{}: false Quarantined on replica {id}",
                cell.name
            );
        }
    }

    let (expected_rules, fired, detect) = match &expect {
        Expect::Clean => {
            assert_eq!(
                health.verdict,
                ClusterHealthVerdict::Healthy,
                "clean baseline must roll up Healthy"
            );
            let stray: Vec<String> = run
                .nodes
                .iter()
                .filter_map(|n| n.monitor())
                .flat_map(|m| m.engine().timeline())
                .filter(|a| a.transition == Transition::Firing)
                .map(|a| a.rule.clone())
                .collect();
            assert!(stray.is_empty(), "baseline fired alerts: {stray:?}");
            ("-".to_string(), true, None)
        }
        Expect::Rules { rules, replica } => {
            for rule in *rules {
                match replica {
                    Some(id) => assert!(
                        fired_on(&run, rule, *id),
                        "{}: {rule} did not fire on replica {id}",
                        cell.name
                    ),
                    None => {
                        for id in 0..run.nodes.len() {
                            assert!(
                                fired_on(&run, rule, id),
                                "{}: {rule} did not fire on replica {id}",
                                cell.name
                            );
                        }
                    }
                }
            }
            (rules.join("+"), true, first_firing(&run, rules[0]))
        }
        Expect::Critical { rule } => {
            assert_eq!(health.verdict, ClusterHealthVerdict::Critical);
            assert!(health.quorum_digest.is_none(), "no quorum can exist");
            for id in 0..run.nodes.len() {
                assert!(fired_on(&run, rule, id), "{rule} missing on replica {id}");
            }
            (rule.to_string(), true, first_firing(&run, rule))
        }
    };

    DetectionRow {
        scenario: cell.name,
        expected_rules,
        fired,
        detect_replica: detect.map(|(id, _)| id),
        detection_tick: detect.map(|(_, tick)| tick),
        final_height,
        verdict: health.verdict.label(),
        quarantined: health
            .replicas
            .iter()
            .filter(|&&h| h == HealthState::Quarantined)
            .count(),
        lagging: health
            .replicas
            .iter()
            .filter(|&&h| h == HealthState::Lagging)
            .count(),
    }
}

/// Part A: time the same fault-free cluster with the monitor off/on.
fn measure_overhead(reps: usize) -> Overhead {
    let base_config = ClusterConfig::default();
    let mon_config = ClusterConfig {
        monitor: Some(MonitorConfig::default()),
        ..ClusterConfig::default()
    };
    let txs = scripted_workload(&base_config.platform);

    let mut base_ms = f64::INFINITY;
    let mut monitored_ms = f64::INFINITY;
    let mut digests_identical = true;
    let mut windows_sampled = 0u64;
    for _ in 0..reps {
        let started = Instant::now();
        let base = run_pbft_cluster(&base_config, &txs).expect("base cluster");
        base_ms = base_ms.min(started.elapsed().as_secs_f64() * 1e3);

        let started = Instant::now();
        let mon = run_pbft_cluster(&mon_config, &txs).expect("monitored cluster");
        monitored_ms = monitored_ms.min(started.elapsed().as_secs_f64() * 1e3);

        digests_identical &= base
            .reports
            .iter()
            .zip(&mon.reports)
            .all(|(a, b)| a.execution_digest == b.execution_digest);
        windows_sampled = mon
            .nodes
            .iter()
            .filter_map(|n| n.monitor())
            .map(|m| m.tsdb().samples_total())
            .sum();
    }
    assert!(digests_identical, "monitoring must not perturb execution");
    Overhead {
        reps,
        base_ms,
        monitored_ms,
        overhead_pct: (monitored_ms - base_ms) / base_ms * 100.0,
        digests_identical,
        windows_sampled,
    }
}

/// Part C: one E21-style open-loop point with the shed SLO attached.
fn slo_point(config: &PlatformConfig, wl: &tn_gateway::Workload, offered_tps: f64) -> SloPoint {
    // Session aborts are off: E21 measures cooperative clients that back
    // off after a shed, which keeps the *run-level* shed ratio under the
    // 1% budget even past the ceiling. The SLO exists for the other client
    // population — retriers that never back off — so part C keeps every
    // session submitting and lets the door shed sustained overload.
    let run = run_open_loop(
        config,
        wl,
        &OpenLoopConfig {
            abort_shed_sessions: false,
            monitor: Some(MonitorConfig::default()),
            ..sweep_olc(offered_tps)
        },
    )
    .expect("open-loop run");
    let r = &run.report;
    let shed = r.shed_rate_limit + r.shed_queue_full;
    let monitor = run.node.monitor().expect("monitor enabled");
    let firing = monitor
        .engine()
        .timeline()
        .iter()
        .find(|a| a.rule == RULE_SHED_BURN && a.transition == Transition::Firing)
        .map(|a| a.tick);
    SloPoint {
        offered_tps,
        committed_tps: r.committed_tps,
        p99_ms: r.p99_ms,
        shed_ratio: if r.writes_offered > 0 {
            shed as f64 / r.writes_offered as f64
        } else {
            0.0
        },
        burn_alert_fired: firing.is_some(),
        detection_tick: firing,
    }
}

fn main() {
    let exp = Experiment::start(
        "E23",
        "Health plane: monitor overhead, fault-detection latency, shed SLO at the drain ceiling",
    );

    // Part A ---------------------------------------------------------
    let overhead = measure_overhead(if exp.quick { 1 } else { 3 });
    exp.table(std::slice::from_ref(&overhead));

    // Part B ---------------------------------------------------------
    let detection: Vec<DetectionRow> = fault_matrix()
        .iter()
        .filter(|cell| cell.quick || !exp.quick)
        .map(run_cell)
        .collect();
    println!();
    exp.table(&detection);

    // Part C ---------------------------------------------------------
    let (config, wl) = open_loop_sweep(exp.quick);
    let sweep: &[f64] = if exp.quick {
        &[400.0]
    } else {
        &[2_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0]
    };
    let slo: Vec<SloPoint> = sweep
        .iter()
        .map(|&offered| slo_point(&config, &wl, offered))
        .collect();
    println!();
    exp.table(&slo);
    // The SLO must join the drain ceiling: quiet inside the error budget,
    // firing past it.
    let below = &slo[0];
    assert!(
        !below.burn_alert_fired,
        "shed SLO false-fired at {} tps (shed ratio {})",
        below.offered_tps, below.shed_ratio
    );
    if !exp.quick {
        let above = slo.last().expect("sweep has points");
        assert!(
            above.burn_alert_fired,
            "shed SLO silent past the drain ceiling at {} tps (shed ratio {})",
            above.offered_tps, above.shed_ratio
        );
    }

    println!("\nInvariants held: digests byte-identical with monitoring on/off; every fault");
    println!("cell fired its expected alert class on the expected replica; zero false");
    println!("Quarantined on the clean baseline; the shed SLO is quiet below the ceiling.");

    // `BENCH_e23.json` is also the single row of `results/e23.json`.
    let snapshot = exp.snapshot(
        "e23_health_plane",
        vec![
            ("overhead", capture(&overhead)),
            ("detection", capture(&detection)),
            ("slo", capture(&slo)),
        ],
    );
    exp.write_report(
        "E23",
        "Health plane: monitor overhead, detection latency per fault class, shed SLO",
        &[snapshot],
    );
}
