//! The open-loop simulation harness: replay a scheduled workload
//! through the gateway into a validator node and measure the latency
//! distribution honestly.
//!
//! ## The model
//!
//! Arrivals, admission, ingest ticks and block ticks all run on a
//! **logical clock** (the arrival schedule's nanosecond timestamps), so
//! every decision — admit/shed verdicts, lane contents, mempool state,
//! block boundaries — is a pure function of `(workload, config, seed)`
//! and replays identically. Commit **service time** is the one thing
//! measured on the wall clock: each block tick times the real
//! `produce_block_from_mempool` call (signature checks, execution,
//! projections, storage) and feeds it into a single-server queue model:
//!
//! ```text
//! server_free = max(tick_time, server_free) + measured_service_time
//! commit_latency(tx) = server_free − arrival(tx)
//! ```
//!
//! Under light load `server_free` tracks the tick clock and latency is
//! just service time; past saturation the server falls behind, queueing
//! delay accumulates, and the p99/p999 knee appears — exactly the
//! behaviour a closed-loop benchmark can never show, because a closed
//! loop slows its arrivals down to match the server.
//!
//! ## Session aborts
//!
//! Ledger writes are nonce-chained per client. Once a client's write is
//! shed, its later writes can never commit (the chain has a hole), so
//! the harness aborts the session: subsequent writes from that client
//! are counted as `aborted`, not offered. This mirrors what a real
//! client SDK does when the platform sheds its request mid-session, and
//! it keeps the mempool free of permanently unselectable transactions.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use tn_core::platform::PlatformConfig;
use tn_crypto::Hash256;
use tn_monitor::MonitorConfig;
use tn_node::validator::{encode_payloads, ValidatorNode};
use tn_telemetry::{Histogram, TelemetrySink};
use tn_trace::TraceSink;

use crate::gateway::{AdmitVerdict, Gateway};
use crate::loadgen::{schedule, RequestKind, Workload};
use crate::GatewayError;

/// Logical interval between gateway→mempool drain ticks (2 ms).
const INGEST_INTERVAL_NS: u64 = 2_000_000;
/// Logical interval between block-production ticks (20 ms).
const BLOCK_INTERVAL_NS: u64 = 20_000_000;

/// Seed for the arrival schedule.
const ARRIVAL_SEED: u64 = 21;

/// Parameters of one open-loop run.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Offered arrival rate, requests per second.
    pub offered_tps: f64,
    /// Maximum transactions selected per block.
    pub block_max_txs: usize,
    /// Abort a client's remaining writes after one is shed (see module
    /// docs). Disable only for workloads without nonce chains.
    pub abort_shed_sessions: bool,
    /// Attach the live health plane to the validator: each committed
    /// block samples the registry, so the gateway's shed counters feed
    /// the burn-rate SLO. `None` (the default) runs unmonitored; the
    /// verdict stream and digest are identical either way.
    pub monitor: Option<MonitorConfig>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            offered_tps: 500.0,
            block_max_txs: 512,
            abort_shed_sessions: true,
            monitor: None,
        }
    }
}

/// Measured outcome of one open-loop run.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopReport {
    /// Write requests that reached the gateway.
    pub writes_offered: u64,
    /// Read requests that reached the gateway.
    pub(crate) reads_offered: u64,
    /// Writes admitted into an ingress lane.
    pub admitted: u64,
    /// Writes shed by per-client rate limiting.
    pub shed_rate_limit: u64,
    /// Writes shed by a full ingress lane.
    pub shed_queue_full: u64,
    /// Writes dropped client-side because their session was aborted
    /// after an earlier shed.
    pub aborted: u64,
    /// Admitted writes the mempool rejected (visible rejections).
    pub mempool_rejected: u64,
    /// Transactions committed into blocks.
    pub committed: u64,
    /// Blocks produced.
    pub blocks: u64,
    /// Reads served within rate.
    pub reads_served: u64,
    /// Reads shed by rate limiting.
    pub reads_shed: u64,
    /// Ingest ticks that stopped early at the mempool watermark.
    pub backpressure_ticks: u64,
    /// Transactions left unselectable in the mempool at shutdown
    /// (should be 0 when session aborts are enabled).
    pub stranded: u64,
    /// Committed throughput over the run: committed / (last commit −
    /// first arrival), in transactions per second.
    pub committed_tps: f64,
    /// Median commit latency (arrival → modelled commit), milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile commit latency, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile commit latency, milliseconds.
    pub p999_ms: f64,
    /// Mean commit latency, milliseconds.
    pub mean_ms: f64,
    /// Worst-case commit latency, milliseconds.
    pub(crate) max_ms: f64,
    /// Total wall-clock commit service time across all blocks, ms.
    pub service_ms: f64,
}

/// A finished run: the report, the exact verdict stream (for the
/// determinism tests) and the node (for digest comparison).
#[derive(Debug)]
pub struct OpenLoopRun {
    /// Aggregate measurements.
    pub report: OpenLoopReport,
    /// Per-write `(client, verdict)` in offer order — byte-for-byte
    /// reproducible for a given `(workload, config, seed)`.
    pub verdicts: Vec<(u64, AdmitVerdict)>,
    /// The validator node after the run; `execution_digest()` pins the
    /// replayed chain.
    pub node: ValidatorNode,
}

const NS_PER_MS: f64 = 1e6;

/// Runs `workload` open-loop against a fresh single validator built from
/// `config`, wiring the gateway's telemetry into the node's registry:
/// [`run_open_loop_on`] with tracing off and no per-block hook.
///
/// # Errors
///
/// As [`run_open_loop_on`].
pub fn run_open_loop(
    config: &PlatformConfig,
    workload: &Workload,
    olc: &OpenLoopConfig,
) -> Result<OpenLoopRun, GatewayError> {
    let node = ValidatorNode::new(0, config);
    let telemetry = node.telemetry_sink();
    run_open_loop_on(
        node,
        &config.gateway,
        telemetry,
        TraceSink::disabled(),
        workload,
        olc,
        &mut |_| {},
    )
}

/// The open loop itself, on a caller-supplied node and sinks (tracing
/// tests capture `gateway.admission → gateway.ingest → tx.commit` span
/// chains through `trace`). After every produced block `hook` runs with
/// mutable access to the node — it can inspect the new head, drive an
/// external monitor off the node's registry, and inject governance
/// transactions (e.g. quarantine verdicts) that enter the mempool for the
/// *next* block, exactly as a live oracle would. The hook never runs on
/// idle block ticks.
///
/// # Errors
///
/// [`GatewayError::Config`] for invalid gateway configuration;
/// [`GatewayError::Node`] when setup pre-application or block production
/// fails (generator-produced traffic should never trigger it).
pub fn run_open_loop_on(
    mut node: ValidatorNode,
    gw_config: &tn_core::platform::GatewayConfig,
    telemetry: TelemetrySink,
    trace: TraceSink,
    workload: &Workload,
    olc: &OpenLoopConfig,
    hook: &mut dyn FnMut(&mut ValidatorNode),
) -> Result<OpenLoopRun, GatewayError> {
    let mut gw = Gateway::new(gw_config)?;
    gw.set_telemetry(telemetry);
    gw.set_trace(trace);

    // Pre-apply the setup prefix (registrations, newsroom, catalogue) the
    // way a replica applies consensus-committed blocks: directly, in
    // chunks, never through admission — system traffic is not client load.
    for chunk in workload.setup.chunks(64) {
        node.apply_committed_batch(&encode_payloads(chunk))?;
    }
    // The health plane attaches after setup so the baseline window
    // absorbs system traffic and the first client window starts clean.
    if let Some(mc) = &olc.monitor {
        node.enable_monitor(mc);
    }

    let arrivals = schedule(workload, olc.offered_tps, ARRIVAL_SEED);
    let mut report = OpenLoopReport {
        ..OpenLoopReport::default()
    };
    let mut verdicts = Vec::new();
    let mut arrival_of: HashMap<Hash256, u64> = HashMap::new();
    let mut aborted_sessions: HashSet<u64> = HashSet::new();
    // Commit latencies go through the shared power-of-two histogram so
    // the report's percentiles use the same estimator as bench reports
    // and tn-monitor latency rules (HistogramSnapshot::quantile).
    let latencies = Histogram::new();

    let mut ai = 0usize;
    let mut next_ingest = INGEST_INTERVAL_NS;
    let mut next_block = BLOCK_INTERVAL_NS;
    // Single-server queue model: when the commit server next frees up,
    // in logical nanoseconds.
    let mut server_free_ns = 0u64;
    let mut first_arrival: Option<u64> = None;
    let mut last_finish = 0u64;
    let mut idle_block_ticks = 0u32;

    loop {
        let next_arrival = arrivals.get(ai).map(|a| a.at_ns);
        let t = match next_arrival {
            Some(a) => a.min(next_ingest).min(next_block),
            None => next_ingest.min(next_block),
        };

        if next_arrival == Some(t) {
            let arrival = arrivals[ai];
            ai += 1;
            let request = &workload.requests[arrival.index];
            match &request.kind {
                RequestKind::Read { .. } => {
                    report.reads_offered += 1;
                    if gw.offer_read(request.client, t) {
                        report.reads_served += 1;
                    } else {
                        report.reads_shed += 1;
                    }
                }
                RequestKind::Write(tx) => {
                    if olc.abort_shed_sessions && aborted_sessions.contains(&request.client) {
                        report.aborted += 1;
                        continue;
                    }
                    report.writes_offered += 1;
                    first_arrival.get_or_insert(t);
                    let id = tx.id();
                    let verdict = gw.offer(request.client, tx.as_ref().clone(), t);
                    verdicts.push((request.client, verdict));
                    match verdict {
                        AdmitVerdict::Admitted => {
                            report.admitted += 1;
                            arrival_of.insert(id, t);
                        }
                        AdmitVerdict::ShedRateLimit => {
                            report.shed_rate_limit += 1;
                            if olc.abort_shed_sessions {
                                aborted_sessions.insert(request.client);
                            }
                        }
                        AdmitVerdict::ShedQueueFull => {
                            report.shed_queue_full += 1;
                            if olc.abort_shed_sessions {
                                aborted_sessions.insert(request.client);
                            }
                        }
                    }
                }
            }
        } else if t == next_ingest {
            next_ingest += INGEST_INTERVAL_NS;
            let drained = gw.drain_into(&mut node);
            report.mempool_rejected += drained.rejected as u64;
            if drained.backpressured {
                report.backpressure_ticks += 1;
            }
        } else {
            next_block += BLOCK_INTERVAL_NS;
            let started = Instant::now();
            let outcome = node.produce_block_from_mempool(olc.block_max_txs)?;
            let service_ns = started.elapsed().as_nanos() as u64;
            match outcome {
                Some(_) => {
                    idle_block_ticks = 0;
                    report.blocks += 1;
                    report.service_ms += service_ns as f64 / NS_PER_MS;
                    server_free_ns = server_free_ns.max(t) + service_ns;
                    last_finish = server_free_ns;
                    let head = node.pipeline().store().head();
                    for tx in &head.transactions {
                        report.committed += 1;
                        if let Some(arrived) = arrival_of.remove(&tx.id()) {
                            latencies.observe(server_free_ns.saturating_sub(arrived));
                        }
                    }
                    hook(&mut node);
                }
                None => {
                    idle_block_ticks += 1;
                }
            }
            // Shutdown: all arrivals delivered, lanes empty, and either
            // the mempool is drained or it can make no further progress.
            // The second arm is a stall guard for runs without session
            // aborts, where a nonce hole can wedge the mempool with the
            // lanes still holding work behind the watermark.
            if ai == arrivals.len()
                && ((gw.queued() == 0 && idle_block_ticks >= 2) || idle_block_ticks >= 64)
            {
                report.stranded = node.mempool().len() as u64 + gw.queued() as u64;
                break;
            }
        }
    }

    let lat = latencies.snapshot();
    report.p50_ms = lat.quantile(0.50) as f64 / NS_PER_MS;
    report.p99_ms = lat.quantile(0.99) as f64 / NS_PER_MS;
    report.p999_ms = lat.quantile(0.999) as f64 / NS_PER_MS;
    report.max_ms = lat.max as f64 / NS_PER_MS;
    report.mean_ms = lat.mean() / NS_PER_MS;
    let span_ns = last_finish.saturating_sub(first_arrival.unwrap_or(0));
    report.committed_tps = if span_ns > 0 {
        report.committed as f64 * 1e9 / span_ns as f64
    } else {
        0.0
    };

    Ok(OpenLoopRun {
        report,
        verdicts,
        node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::{build_workload, LoadProfile};

    fn quick_profile() -> LoadProfile {
        LoadProfile {
            submitters: 2,
            rankers: 4,
            readers: 2,
            seed_articles: 6,
            write_events: 60,
            read_events: 20,
            ..LoadProfile::default()
        }
    }

    #[test]
    fn light_load_commits_everything_offered() {
        let config = PlatformConfig::default();
        let wl = build_workload(&config, &quick_profile());
        let run = run_open_loop(
            &config,
            &wl,
            &OpenLoopConfig {
                offered_tps: 200.0,
                ..OpenLoopConfig::default()
            },
        )
        .unwrap();
        let r = &run.report;
        assert_eq!(r.writes_offered, 60);
        assert_eq!(
            r.shed_rate_limit + r.shed_queue_full,
            0,
            "no shedding at 200 tps"
        );
        assert_eq!(r.committed, r.admitted - r.mempool_rejected);
        assert_eq!(r.stranded, 0);
        assert!(r.blocks > 0);
        assert!(r.p50_ms > 0.0 && r.p99_ms >= r.p50_ms && r.p999_ms >= r.p99_ms);
        assert!(r.committed_tps > 0.0);
        assert_eq!(r.reads_offered, 20);
        assert_eq!(r.reads_served + r.reads_shed, 20);
    }

    #[test]
    fn overload_sheds_at_the_door_not_in_the_queue() {
        // One client hammering far beyond its bucket: sheds must be
        // verdicts, and everything admitted must still commit.
        let mut config = PlatformConfig::default();
        config.gateway.rate_per_client = 50;
        config.gateway.burst_per_client = 5;
        let wl = build_workload(&config, &quick_profile());
        let run = run_open_loop(
            &config,
            &wl,
            &OpenLoopConfig {
                offered_tps: 5_000.0,
                ..OpenLoopConfig::default()
            },
        )
        .unwrap();
        let r = &run.report;
        assert!(r.shed_rate_limit > 0, "overload must shed: {r:?}");
        assert_eq!(
            r.committed + r.mempool_rejected,
            r.admitted,
            "every admitted write has a visible outcome"
        );
        assert_eq!(r.stranded, 0, "session aborts keep the mempool clean");
    }

    #[test]
    fn identical_runs_are_identical() {
        let config = PlatformConfig::default();
        let wl = build_workload(&config, &quick_profile());
        let olc = OpenLoopConfig {
            offered_tps: 1_000.0,
            ..OpenLoopConfig::default()
        };
        let a = run_open_loop(&config, &wl, &olc).unwrap();
        let b = run_open_loop(&config, &wl, &olc).unwrap();
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(a.node.execution_digest(), b.node.execution_digest());
        assert_eq!(a.report.committed, b.report.committed);
    }

    #[test]
    fn shed_burn_alert_fires_under_overload_and_not_under_light_load() {
        // Light load within the error budget: monitoring changes nothing
        // and no SLO fires.
        let config = PlatformConfig::default();
        let wl = build_workload(&config, &quick_profile());
        let light_olc = OpenLoopConfig {
            offered_tps: 200.0,
            ..OpenLoopConfig::default()
        };
        let plain = run_open_loop(&config, &wl, &light_olc).unwrap();
        let light = run_open_loop(
            &config,
            &wl,
            &OpenLoopConfig {
                monitor: Some(MonitorConfig::default()),
                ..light_olc
            },
        )
        .unwrap();
        assert_eq!(plain.verdicts, light.verdicts);
        assert_eq!(plain.node.execution_digest(), light.node.execution_digest());
        let monitor = light.node.monitor().expect("monitor enabled");
        assert!(
            !monitor
                .engine()
                .timeline()
                .iter()
                .any(|a| a.rule == tn_monitor::RULE_SHED_BURN),
            "no shed-burn alert within the error budget"
        );

        // A hammered gateway burns the shed budget: the burn-rate SLO
        // must fire on the node's own monitor.
        let mut tight = PlatformConfig::default();
        tight.gateway.rate_per_client = 50;
        tight.gateway.burst_per_client = 5;
        let wl = build_workload(&tight, &quick_profile());
        let run = run_open_loop(
            &tight,
            &wl,
            &OpenLoopConfig {
                offered_tps: 5_000.0,
                monitor: Some(MonitorConfig::default()),
                ..OpenLoopConfig::default()
            },
        )
        .unwrap();
        assert!(run.report.shed_rate_limit > 0, "overload must shed");
        let monitor = run.node.monitor().expect("monitor enabled");
        assert!(
            monitor
                .engine()
                .timeline()
                .iter()
                .any(|a| a.rule == tn_monitor::RULE_SHED_BURN),
            "shed-burn SLO must fire under overload: {:?}",
            monitor.engine().timeline()
        );
    }
}
