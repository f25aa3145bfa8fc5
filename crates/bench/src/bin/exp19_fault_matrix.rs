//! E19: fault-injection matrix — liveness and convergence under faults.
//!
//! The paper's trust argument rests on the permissioned network surviving
//! real failure modes, not just the happy path. This binary drives the
//! consensus fault subsystem end to end: each scenario is a declarative
//! [`FaultPlan`] (scheduled crashes/restarts, partitions + heals, message
//! loss, byzantine modes, corrupted payloads) executed deterministically
//! by the consensus simulator, with the node layer's crash recovery,
//! state-sync catch-up and quarantine verdicts on top.
//!
//! The matrix sweeps (baseline, crash-within-f, crashed-primary,
//! crash-revive, partition-heal, byzantine-equivocate, corrupt-exec,
//! drop-prob, corrupt-payloads) × (PBFT, PoA) and records liveness
//! (batches committed on the quorum chain), convergence time (last
//! commit tick), digest agreement and per-replica verdicts. Invariants
//! asserted here are the PR's acceptance criteria: ≤ f crashes leave the
//! live replicas on one digest, a crashed-then-revived replica converges
//! via catch-up, > f corrupt-execution replicas yield a *detected*
//! divergence rather than a panic, and the ledger-replay audit stays
//! green on every replica that reports the quorum digest.
//!
//! Run with `--quick` for a CI-sized smoke run.

use serde::Serialize;

use tn_bench::scenarios::fault_matrix;
use tn_bench::Experiment;
use tn_consensus::fault::FaultPlan;
use tn_node::network::{
    run_pbft_cluster, run_poa_cluster, ClusterConfig, ClusterRun, ClusterVerdict, ReplicaVerdict,
};
use tn_node::workload::scripted_workload;

/// One (scenario, protocol) cell of the matrix.
#[derive(Debug, Serialize)]
struct MatrixRow {
    scenario: &'static str,
    protocol: &'static str,
    /// Cluster-wide verdict: Converged / Partial / Diverged.
    verdict: String,
    /// A `2f+1` quorum of replicas shares an execution digest.
    quorum: bool,
    /// Replicas on the quorum digest (Agreed or CaughtUp).
    on_quorum: usize,
    /// Replicas behind the quorum but on its chain.
    lagging: usize,
    /// Replicas whose state is irreconcilable with the quorum.
    quarantined: usize,
    /// Batches committed on a quorum replica (liveness).
    batches: usize,
    /// Transactions included on the quorum chain.
    included: usize,
    /// Ordered payloads that did not decode (corrupted injections).
    undecodable: usize,
    /// Sim tick of the last consensus commit (convergence time).
    last_commit: u64,
    delivered: u64,
    dropped: u64,
    partitioned: u64,
    /// Blocks a revived replica applied during state-sync catch-up.
    catchup_applied: usize,
    /// Ledger-replay audit green on every replica at the quorum digest.
    replay_ok: bool,
}

fn summarize(scenario: &'static str, run: &ClusterRun) -> MatrixRow {
    let quorum = run.quorum_digest();
    // Liveness is measured on a replica that holds the agreed state; fall
    // back to replica 0 when no quorum exists (divergence scenarios).
    let quorum_report = quorum
        .and_then(|q| run.reports.iter().find(|r| r.execution_digest == q))
        .unwrap_or(&run.reports[0]);
    let on_quorum =
        |v: ReplicaVerdict| matches!(v, ReplicaVerdict::Agreed | ReplicaVerdict::CaughtUp);
    let verdicts = || run.fault_reports.iter().map(|f| f.verdict);
    MatrixRow {
        scenario,
        protocol: run.protocol,
        verdict: format!("{:?}", run.verdict),
        quorum: quorum.is_some(),
        on_quorum: verdicts().filter(|&v| on_quorum(v)).count(),
        lagging: verdicts().filter(|&v| v == ReplicaVerdict::Lagging).count(),
        quarantined: run.quarantined().len(),
        batches: quorum_report.batches,
        included: quorum_report.included,
        undecodable: quorum_report.undecodable,
        last_commit: run.last_commit,
        delivered: run.delivered_messages,
        dropped: run.dropped_messages,
        partitioned: run.partitioned_messages,
        catchup_applied: run
            .fault_reports
            .iter()
            .filter_map(|f| f.recovery.as_ref()?.catchup.as_ref())
            .map(|c| c.blocks_applied)
            .sum(),
        replay_ok: run
            .nodes
            .iter()
            .zip(&run.fault_reports)
            .filter(|(_, f)| on_quorum(f.verdict))
            .all(|(n, _)| n.verify_replay().is_ok()),
    }
}

fn run_cell(
    scenario: &'static str,
    protocol: &'static str,
    plan: &FaultPlan,
) -> (MatrixRow, ClusterRun) {
    let config = ClusterConfig {
        faults: plan.clone(),
        ..ClusterConfig::default()
    };
    let txs = scripted_workload(&config.platform);
    let run = match protocol {
        "pbft" => run_pbft_cluster(&config, &txs).expect("pbft cluster"),
        _ => run_poa_cluster(&config, &txs).expect("poa cluster"),
    };
    (summarize(scenario, &run), run)
}

fn main() {
    let exp = Experiment::start(
        "E19",
        "Fault-injection matrix: liveness + convergence under crashes, partitions, byzantine modes",
    );

    let mut rows = Vec::new();
    for sc in fault_matrix() {
        if exp.quick && !sc.quick {
            continue;
        }
        for (protocol, plan) in [("pbft", &sc.pbft), ("poa", &sc.poa)] {
            let Some(plan) = plan else { continue };
            let (row, run) = run_cell(sc.name, protocol, plan);
            check_invariants(&row, &run);
            rows.push(row);
        }
    }
    exp.report(
        "E19",
        "Fault matrix: verdicts, liveness and convergence per (scenario, protocol)",
        &rows,
    );

    println!("\nInvariants held: ≤f crashes keep live replicas on one digest with a green");
    println!("replay audit; a revived replica converges via catch-up; >f corrupt-execution");
    println!("replicas produce a detected divergence (no quorum, no panic).");
}

/// The PR's acceptance criteria, asserted per cell.
fn check_invariants(row: &MatrixRow, run: &ClusterRun) {
    // Replay audits must be green on every replica that reports the
    // quorum digest, in every scenario.
    assert!(
        row.replay_ok,
        "{}/{}: replay audit",
        row.scenario, row.protocol
    );
    match row.scenario {
        "baseline" | "corrupt-payloads" => {
            assert_eq!(run.verdict, ClusterVerdict::Converged, "{}", row.scenario);
            assert!(row.batches > 0, "liveness");
            if row.scenario == "corrupt-payloads" {
                assert_eq!(row.undecodable, 3, "corrupt payloads counted");
            }
        }
        // ≤ f crashes: the live replicas still form a quorum on one
        // digest; the crashed replica holds a reconcilable prefix
        // (Lagging), never quarantined state.
        "crash-backup" | "crash-primary" => {
            assert!(row.quorum, "{}/{}: quorum", row.scenario, row.protocol);
            assert_eq!(row.on_quorum, 3);
            assert_eq!(row.lagging, 1);
            assert_eq!(row.quarantined, 0);
            assert!(row.batches > 0, "liveness under a crash");
        }
        // A crashed-then-revived replica converges to the quorum digest
        // through snapshot restore + state-sync.
        "crash-revive" => {
            assert_eq!(run.verdict, ClusterVerdict::Converged, "{}", row.protocol);
            assert!(row.catchup_applied > 0, "catch-up applied blocks");
            let rec = run.fault_reports[2]
                .recovery
                .as_ref()
                .expect("recovery report");
            assert!(rec.digest_intact, "snapshot restore reproduced the digest");
            assert_eq!(run.fault_reports[2].verdict, ReplicaVerdict::CaughtUp);
        }
        // ≤ f corrupt-execution replicas: consensus still agrees, the
        // corrupt replica's node-level state is detected and quarantined.
        "corrupt-exec-1" => {
            assert_eq!(run.verdict, ClusterVerdict::Partial);
            assert_eq!(run.quarantined(), vec![3]);
        }
        // > f corrupt-execution replicas: no digest quorum can form; the
        // cluster reports divergence instead of panicking.
        "corrupt-exec-2" => {
            assert_eq!(run.verdict, ClusterVerdict::Diverged);
            assert!(!row.quorum);
        }
        // Partitions and loss degrade but must not wedge PBFT: the healed
        // cluster still commits the workload on a quorum.
        "partition-heal" | "drop-window-0.3" => {
            if row.protocol == "pbft" {
                assert!(row.quorum, "pbft recovers after {}", row.scenario);
                assert!(row.batches > 0, "liveness after {}", row.scenario);
            }
            assert!(row.dropped > 0, "faults actually dropped messages");
        }
        // One equivocator is within f: a quorum of honest replicas must
        // still agree (PBFT); PoA detects the fork without panicking.
        "byz-equivocate" if row.protocol == "pbft" => {
            assert!(row.quorum, "pbft tolerates one equivocator");
        }
        _ => {}
    }
}
