//! E6 — Consensus scaling.
//!
//! PBFT vs PoA throughput/latency/message-cost as the validator set grows
//! (4→31), plus fault-tolerance spot checks.
//!
//! Paper anchor: §VII ("demands a high performance blockchain network").
//!
//! Run: `cargo run -p tn-bench --release --bin exp6_consensus_scaling`

use serde::Serialize;
use tn_bench::Experiment;
use tn_consensus::fault::FaultPlan;
use tn_consensus::harness::{order_payloads_pbft_faulted, run_pbft, run_poa, RunStats, Workload};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;
use tn_telemetry::Registry;

#[derive(Debug, Serialize)]
struct ConsensusRow {
    protocol: &'static str,
    n_validators: usize,
    crashed: usize,
    committed: usize,
    throughput_per_ktick: f64,
    p50_latency: u64,
    p95_latency: u64,
    messages_per_commit: f64,
}

fn main() {
    let exp = Experiment::start("E6", "consensus scaling (PBFT vs PoA)");
    let workload = Workload {
        n_requests: 200,
        interarrival: 4,
        payload_size: 64,
    };
    let row = |protocol, crashed, stats: RunStats| ConsensusRow {
        protocol,
        n_validators: stats.n_nodes,
        crashed,
        committed: stats.committed,
        throughput_per_ktick: stats.throughput,
        p50_latency: stats.p50_latency,
        p95_latency: stats.p95_latency,
        messages_per_commit: stats.messages_per_commit,
    };
    let net = NetworkConfig::default;
    let mut rows = Vec::new();
    for &n in &[4usize, 7, 13, 19, 31] {
        let pbft = run_pbft(n, &[], &workload, net(), 5_000_000);
        rows.push(row("pbft", 0, pbft));
        let poa = run_poa(n, &[], &workload, net(), 5_000_000);
        rows.push(row("poa", 0, poa));
    }
    // Fault tolerance spot check.
    let faulty = run_pbft(7, &[5, 6], &workload, net(), 5_000_000);
    rows.push(row("pbft(f=2 crash)", 2, faulty));

    exp.report("E6", "consensus scaling", &rows);

    // Telemetry snapshot at exit: re-run the 4-replica PBFT config with a
    // registry attached to replica 0 and print the phase-level view the
    // RunStats table cannot show (per-phase histograms, quorum counters).
    let registry = Registry::new();
    let sinks = vec![registry.sink()];
    let payloads: Vec<Vec<u8>> = (0..workload.n_requests as u32)
        .map(|i| {
            let mut p = i.to_le_bytes().to_vec();
            p.resize(workload.payload_size, b'x');
            p
        })
        .collect();
    order_payloads_pbft_faulted(
        4,
        &payloads,
        workload.interarrival,
        net(),
        5_000_000,
        &PbftConfig::default(),
        &FaultPlan::default(),
        &sinks,
        &[],
    )
    .expect("default network and empty plan are valid");
    println!("\nreplica 0 telemetry (pbft, n=4):");
    print!("{}", registry.snapshot().render_table());

    println!(
        "\nshape check: PBFT message cost grows superlinearly with n (quadratic broadcast) \
         while PoA stays at O(n) — the trust/performance trade-off — and PBFT keeps full \
         throughput with f crashed replicas."
    );
}
