//! E16: consensus phase latency measured through the telemetry layer.
//!
//! The paper argues a permissioned PBFT network commits news transactions
//! with latency low enough for interactive fact-checking. The
//! `tn-telemetry` crate instruments the PBFT replicas directly: each
//! replica records `pbft.prepare_phase_ticks` (pre-prepare accepted →
//! prepare quorum), `pbft.commit_phase_ticks` (prepare quorum → commit
//! quorum) and `pbft.request_latency_ticks` (client submit → execute)
//! into its own registry. This binary reads those histograms back — the
//! same data path `validator_cluster` and the node reports use — instead
//! of re-deriving latencies from commit logs.
//!
//! Part A sweeps cluster size for PBFT and PoA at the harness level.
//! Part B runs the full 4-validator `tn-node` cluster (consensus
//! ordering plus block execution on every replica) and prints replica
//! 0's metrics table, the end-to-end view of the same counters.

use serde::Serialize;

use tn_bench::Experiment;
use tn_consensus::fault::FaultPlan;
use tn_consensus::harness::{order_payloads_pbft_faulted, order_payloads_poa_faulted};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;
use tn_node::network::{run_pbft_cluster, ClusterConfig};
use tn_node::workload::scripted_workload;
use tn_telemetry::{Registry, TelemetrySink};

/// One measured configuration.
#[derive(Debug, Serialize)]
struct LatencyRow {
    protocol: &'static str,
    n: usize,
    /// Batches committed on replica 0.
    batches: u64,
    /// Prepare-phase ticks (PBFT only; 0 for PoA's single phase).
    prepare_p50: u64,
    prepare_p95: u64,
    /// Commit-phase ticks (PBFT only).
    commit_p50: u64,
    commit_p95: u64,
    /// End-to-end request latency, submit → execute, in sim ticks.
    e2e_mean: f64,
    e2e_p50: u64,
    e2e_p95: u64,
    e2e_p99: u64,
}

fn measure(protocol: &'static str, n: usize, payloads: &[Vec<u8>]) -> LatencyRow {
    let registries: Vec<Registry> = (0..n).map(|_| Registry::new()).collect();
    let sinks: Vec<TelemetrySink> = registries.iter().map(Registry::sink).collect();
    let (net, plan) = (NetworkConfig::default(), FaultPlan::default());
    let horizon = 2_000_000;
    match protocol {
        "pbft" => {
            let config = PbftConfig::default();
            order_payloads_pbft_faulted(n, payloads, 5, net, horizon, &config, &plan, &sinks, &[])
        }
        _ => order_payloads_poa_faulted(n, payloads, 5, net, horizon, &plan, &sinks, &[]),
    }
    .expect("default network and empty plan are valid");
    let snap = registries[0].snapshot();
    let zero = Default::default();
    let prepare = snap.histogram("pbft.prepare_phase_ticks").unwrap_or(&zero);
    let commit = snap.histogram("pbft.commit_phase_ticks").unwrap_or(&zero);
    let e2e_name = format!("{protocol}.request_latency_ticks");
    let e2e = snap.histogram(&e2e_name).unwrap_or(&zero);
    let batches = snap
        .counter("pbft.batches_committed")
        .or_else(|| snap.counter("poa.slots_committed"))
        .unwrap_or(0);
    LatencyRow {
        protocol,
        n,
        batches,
        prepare_p50: prepare.p50(),
        prepare_p95: prepare.p95(),
        commit_p50: commit.p50(),
        commit_p95: commit.p95(),
        e2e_mean: e2e.mean(),
        e2e_p50: e2e.p50(),
        e2e_p95: e2e.p95(),
        e2e_p99: e2e.p99(),
    }
}

fn main() {
    let exp = Experiment::start("E16", "Consensus phase latency via telemetry histograms");

    // Part A: phase latency vs cluster size, 200 requests per run.
    let payloads: Vec<Vec<u8>> = (0..200u32)
        .map(|i| {
            let mut p = i.to_le_bytes().to_vec();
            p.resize(64, b'x');
            p
        })
        .collect();

    println!("Part A: phase latency (sim ticks) vs cluster size, 200 requests\n");
    let mut rows = Vec::new();
    for &n in &[4usize, 7, 13, 19] {
        for proto in ["pbft", "poa"] {
            rows.push(measure(proto, n, &payloads));
        }
    }
    exp.report(
        "E16",
        "Consensus phase latency from telemetry histograms (sim ticks)",
        &rows,
    );

    // Sanity: PBFT's three-phase commit must cost more than PoA's single
    // leader slot at every cluster size.
    for pair in rows.chunks(2) {
        assert!(
            pair[0].e2e_mean > pair[1].e2e_mean,
            "pbft should be slower than poa at n={}",
            pair[0].n
        );
    }

    // Part B: the same histograms observed end-to-end through a full
    // 4-validator node cluster (ordering + block execution).
    println!("\nPart B: 4-validator tn-node cluster, replica 0 metrics\n");
    let config = ClusterConfig::default();
    let txs = scripted_workload(&config.platform);
    let run = run_pbft_cluster(&config, &txs).expect("pbft cluster");
    assert!(run.is_consistent(), "replicas diverged");
    for report in &run.reports {
        println!(
            "  replica {}: blocks {}, pbft batches {}, prepare p95 {} ticks, commit p95 {} ticks",
            report.id,
            report.metrics.counter("chain.blocks_imported").unwrap_or(0),
            report
                .metrics
                .counter("pbft.batches_committed")
                .unwrap_or(0),
            report
                .metrics
                .histogram("pbft.prepare_phase_ticks")
                .map(|h| h.p95())
                .unwrap_or(0),
            report
                .metrics
                .histogram("pbft.commit_phase_ticks")
                .map(|h| h.p95())
                .unwrap_or(0),
        );
    }
    println!();
    print!("{}", run.reports[0].metrics.render_table());
}
