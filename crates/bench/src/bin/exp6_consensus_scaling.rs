//! E6 — Consensus scaling and parallel contract execution.
//!
//! Part A: PBFT vs PoA throughput/latency/message-cost as the validator
//! set grows (4→31), plus fault-tolerance spot checks.
//! Part B: speedup of executing independent contract transactions on
//! 1→8 workers — the authors' ICDCS 2018 "distributed parallel blockchain"
//! idea.
//!
//! Paper anchor: §VII ("demands a high performance blockchain network …
//! scalable smart contract running in blockchain") and §IV's reference to
//! the ICDCS 2018 mechanism.
//!
//! Run: `cargo run -p tn-bench --release --bin exp6_consensus_scaling`

use std::time::Instant;

use serde::Serialize;
use tn_bench::Experiment;
use tn_chain::state::TxExecutor;
use tn_consensus::fault::FaultPlan;
use tn_consensus::harness::{order_payloads_pbft_faulted, run_pbft, run_poa, RunStats, Workload};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;
use tn_contracts::asm::assemble;
use tn_contracts::executor::ContractRegistry;
use tn_contracts::parallel::{execute_parallel, CallTask};
use tn_crypto::Keypair;
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

#[derive(Debug, Serialize)]
struct ParallelRow {
    workers: usize,
    tasks: usize,
    millis: f64,
    speedup: f64,
}

fn main() {
    let exp = Experiment::start(
        "E6",
        "consensus scaling (PBFT vs PoA) and parallel execution",
    );
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

    // ---- Part B: parallel contract execution -----------------------------
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("\nparallel execution of independent contract calls (host has {cores} core(s)):");
    // A compute-heavy contract: loop summing 1..=400, then bump a counter.
    let code = assemble(
        "push 0\npush 400\nloop:\ndup 0\nnot\npush end\njmpif\ndup 0\nswap 2\nadd\nswap 1\npush 1\nsub\npush loop\njmp\nend:\npop\npop\npush 0\npush 0\nsload\npush 1\nadd\nsstore\nhalt",
    )
    .expect("assembles");
    let deployer = Keypair::from_seed(b"e6 deployer").address();
    let n_contracts = 64;
    let calls_per_contract = 24;

    let build_registry = || {
        let mut reg = ContractRegistry::new();
        let addrs: Vec<_> = (0..n_contracts)
            .map(|i| reg.deploy(&deployer, i as u64, &code).expect("deploys"))
            .collect();
        (reg, addrs)
    };
    let (_, addrs) = build_registry();
    let tasks: Vec<CallTask> = (0..n_contracts * calls_per_contract)
        .map(|i| CallTask {
            caller: deployer,
            contract: addrs[i % n_contracts],
            input: vec![],
            gas_limit: 1_000_000,
        })
        .collect();

    let mut prows = Vec::new();
    let mut baseline = 0.0f64;
    for &workers in &[1usize, 2, 4, 8] {
        let (mut reg, _) = build_registry();
        let t0 = Instant::now();
        let results = execute_parallel(&mut reg, &tasks, workers);
        let millis = t0.elapsed().as_secs_f64() * 1e3;
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        if workers == 1 {
            baseline = millis;
        }
        prows.push(ParallelRow {
            workers,
            tasks: tasks.len(),
            millis,
            speedup: baseline / millis,
        });
    }
    exp.report("E6b", "parallel contract execution", &prows);
    println!(
        "\nshape check: PBFT message cost grows superlinearly with n (quadratic broadcast) \
         while PoA stays at O(n) — the trust/performance trade-off — and PBFT keeps full \
         throughput with f crashed replicas. Parallel contract execution preserves \
         per-contract semantics exactly (verified by tests) and its wall-clock speedup is \
         bounded by the host's cores: near-linear on multi-core machines, flat when only \
         one core is available (as reported above)."
    );
}
