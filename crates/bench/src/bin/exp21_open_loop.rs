//! E21: open-loop load sweep — throughput vs offered load and the
//! commit-latency knee, the first point of the perf trajectory.
//!
//! Every experiment before this one was closed-loop (the next batch
//! waited for the last commit), which can measure *service time* but
//! never *saturation*: a closed loop slows its own arrivals down to
//! whatever the engine sustains, so queueing delay never accumulates.
//! E21 replays a fixed Zipf-popularity persona workload (submitters,
//! rankers, readers; bot-amplified, from `tn-propagation`'s account
//! model) through the `tn-gateway` front door at a *configured* arrival
//! rate, sweeping that rate across the harness's configured drain
//! ceiling (256 txs per 20 ms block tick = 12.8k tx/s — a constant of the
//! sweep, not a capacity of the engine; the engine-bound figure is
//! `commit_tps`@`door_single` in `benchmark/README.md`). Below the knee,
//! committed throughput tracks offered load and p99 stays near service
//! time; past it, committed throughput plateaus at the ceiling and the
//! tail percentiles blow up — the classic open-loop signature.
//!
//! Admission decisions run on the logical arrival clock and are exactly
//! reproducible; only commit service times are wall-clock measurements
//! (see `tn_gateway::openloop` for the queue model). Full runs write
//! `results/e21.json` plus a repo-root `BENCH_e21.json` perf snapshot in
//! the `docs/BENCHMARKS.md` schema; `--quick` is a CI smoke run that
//! asserts the accounting and determinism invariants and writes nothing.

use serde::Serialize;

use tn_bench::scenarios::{open_loop_sweep, sweep_olc};
use tn_bench::table::capture;
use tn_bench::Experiment;
use tn_core::platform::PlatformConfig;
use tn_gateway::{run_open_loop, Workload};

/// One offered-load point of the sweep (also the `BENCH_e21.json` row
/// format documented in `docs/BENCHMARKS.md`).
#[derive(Debug, Serialize)]
struct LoadPoint {
    /// Offered arrival rate, requests/second (the swept variable).
    offered_tps: f64,
    /// Committed throughput over the run, transactions/second.
    committed_tps: f64,
    /// Median commit latency (arrival → commit), milliseconds.
    p50_ms: f64,
    /// 99th-percentile commit latency, milliseconds.
    p99_ms: f64,
    /// 99.9th-percentile commit latency, milliseconds.
    p999_ms: f64,
    /// Mean commit latency, milliseconds.
    mean_ms: f64,
    /// Write requests offered at the door.
    writes_offered: u64,
    /// Writes admitted into the bounded ingress lanes.
    admitted: u64,
    /// Writes shed by per-client rate limiting.
    shed_rate_limit: u64,
    /// Writes shed by full ingress lanes (backpressure at the door).
    shed_queue_full: u64,
    /// Writes dropped client-side after the session's first shed.
    aborted: u64,
    /// Admitted writes the mempool refused (duplicate/invalid).
    mempool_rejected: u64,
    /// Transactions committed into blocks.
    committed: u64,
    /// Blocks produced.
    blocks: u64,
    /// Ingest ticks paused at the mempool watermark.
    backpressure_ticks: u64,
    /// Reads served within rate (reads never touch the ledger).
    reads_served: u64,
    /// Reads shed by rate limiting.
    reads_shed: u64,
    /// Total wall-clock commit service time, milliseconds.
    service_ms: f64,
}

/// Runs one offered-load point and asserts the conservation invariants
/// every point must satisfy regardless of load.
fn sweep_point(config: &PlatformConfig, workload: &Workload, offered_tps: f64) -> LoadPoint {
    let run = run_open_loop(config, workload, &sweep_olc(offered_tps)).expect("open-loop run");
    let r = run.report;
    assert_eq!(
        r.writes_offered,
        r.admitted + r.shed_rate_limit + r.shed_queue_full,
        "every offered write has exactly one verdict"
    );
    assert_eq!(
        r.admitted,
        r.committed + r.mempool_rejected,
        "every admitted write has a visible outcome (never silently dropped)"
    );
    assert_eq!(r.stranded, 0, "session aborts keep the mempool drainable");
    LoadPoint {
        offered_tps,
        committed_tps: r.committed_tps,
        p50_ms: r.p50_ms,
        p99_ms: r.p99_ms,
        p999_ms: r.p999_ms,
        mean_ms: r.mean_ms,
        writes_offered: r.writes_offered,
        admitted: r.admitted,
        shed_rate_limit: r.shed_rate_limit,
        shed_queue_full: r.shed_queue_full,
        aborted: r.aborted,
        mempool_rejected: r.mempool_rejected,
        committed: r.committed,
        blocks: r.blocks,
        backpressure_ticks: r.backpressure_ticks,
        reads_served: r.reads_served,
        reads_shed: r.reads_shed,
        service_ms: r.service_ms,
    }
}

fn main() {
    let exp = Experiment::start(
        "E21",
        "Open-loop load sweep: throughput vs offered load + commit-latency knee",
    );
    let (config, workload) = open_loop_sweep(exp.quick);
    println!("[workload: {} write requests]", workload.writes());

    let sweep: &[f64] = if exp.quick {
        &[400.0, 4_000.0]
    } else {
        &[
            500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
        ]
    };
    let points: Vec<LoadPoint> = sweep
        .iter()
        .map(|&offered| sweep_point(&config, &workload, offered))
        .collect();
    exp.report(
        "E21",
        "Open-loop load sweep: throughput vs offered load and latency percentiles",
        &points,
    );
    exp.snapshot("e21_open_loop", vec![("points", capture(&points))]);

    if exp.quick {
        // Determinism smoke: the same point twice must produce identical
        // verdict streams and byte-identical replica digests.
        let olc = sweep_olc(4_000.0);
        let a = run_open_loop(&config, &workload, &olc).expect("run a");
        let b = run_open_loop(&config, &workload, &olc).expect("run b");
        assert_eq!(a.verdicts, b.verdicts, "verdict stream must replay");
        assert_eq!(
            a.node.execution_digest(),
            b.node.execution_digest(),
            "replayed chains must be byte-identical"
        );
    }
}
