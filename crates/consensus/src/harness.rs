//! Measurement harness: runs consensus clusters under a request load and
//! reports throughput/latency statistics. This is the engine behind the E6
//! experiment (consensus scaling) in EXPERIMENTS.md.

use tn_crypto::sha256::tagged_hash;
use tn_crypto::Hash256;
use tn_telemetry::TelemetrySink;
use tn_trace::TraceSink;

use crate::fault::{CrashFault, FaultPlan};
use crate::pbft::{ByzMode, CommittedEntry, PbftConfig, PbftMsg, PbftReplica, Request};
use crate::poa::{PoaMsg, PoaValidator};
use crate::sim::{NetworkConfig, Node, NodeId, Simulator};

/// Aggregate statistics from a consensus run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Protocol label ("pbft" or "poa").
    pub(crate) protocol: &'static str,
    /// Cluster size.
    pub n_nodes: usize,
    /// Requests injected.
    pub(crate) injected: usize,
    /// Requests committed on the reference (first honest) replica.
    pub committed: usize,
    /// Simulation ticks elapsed when the last commit landed.
    pub duration: u64,
    /// Commits per 1000 ticks.
    pub throughput: f64,
    /// Mean request commit latency (ticks).
    pub(crate) mean_latency: f64,
    /// Median latency.
    pub p50_latency: u64,
    /// 95th-percentile latency.
    pub p95_latency: u64,
    /// Total protocol messages delivered.
    pub messages: u64,
    /// Messages per committed request.
    pub messages_per_commit: f64,
}

fn latency_stats(mut latencies: Vec<u64>) -> (f64, u64, u64) {
    if latencies.is_empty() {
        return (0.0, 0, 0);
    }
    latencies.sort_unstable();
    let mean = latencies.iter().sum::<u64>() as f64 / latencies.len() as f64;
    let p50 = latencies[latencies.len() / 2];
    let p95 = latencies[(latencies.len() * 95 / 100).min(latencies.len() - 1)];
    (mean, p50, p95)
}

/// Workload description shared by both protocols.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Number of client requests.
    pub n_requests: usize,
    /// Ticks between request arrivals.
    pub interarrival: u64,
    /// Payload size in bytes.
    pub payload_size: usize,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            n_requests: 200,
            interarrival: 5,
            payload_size: 64,
        }
    }
}

impl Workload {
    fn payloads(&self) -> Vec<Vec<u8>> {
        (0..self.n_requests)
            .map(|i| {
                let mut payload = format!("request-{i}-").into_bytes();
                payload.resize(self.payload_size, b'x');
                payload
            })
            .collect()
    }
}

/// The committed batches observed by one replica: each inner vector is one
/// consensus batch's payloads, in commit order.
pub type CommittedPayloads = Vec<Vec<Vec<u8>>>;

/// Outcome of a fault-injected ordering run, observed across the whole
/// cluster rather than a single reference replica.
#[derive(Debug, Clone)]
pub struct OrderingRun {
    /// Per-replica committed batch sequences (payloads in commit order).
    pub views: Vec<CommittedPayloads>,
    /// Per-replica chained digest over the committed batch digests — two
    /// replicas that committed the same batch sequence report the same
    /// value.
    pub exec_digests: Vec<Hash256>,
    /// Per-replica final view (PBFT; zeros for PoA).
    pub(crate) final_views: Vec<u64>,
    /// Per-replica highest stable checkpoint (PBFT; zeros for PoA).
    pub(crate) stable_checkpoints: Vec<u64>,
    /// Messages delivered by the simulator.
    pub delivered: u64,
    /// Messages silently dropped (loss + crash + partition).
    pub dropped: u64,
    /// Partition-blocked messages (subset of `dropped`).
    pub partitioned: u64,
    /// Latest local commit time across all replicas (convergence proxy).
    pub last_commit: u64,
}

/// What the ordering kernel needs from a consensus protocol: how to build
/// a replica from the run's inputs, where client requests enter, and how
/// to read back what a replica committed.
trait Protocol: Sized {
    type Msg: Clone;
    type Config;
    const LABEL: &'static str;

    fn replica(id: NodeId, n: usize, config: &Self::Config, plan: &FaultPlan) -> Self;
    fn attach(&mut self, telemetry: TelemetrySink, trace: TraceSink);
    fn request(req: Request) -> Self::Msg;
    /// The replicas a client hands a request arriving at tick `t` to.
    fn entry_points(plan: &FaultPlan, n: usize, t: u64) -> std::ops::Range<NodeId>;
    /// Everything this replica committed, in local commit order.
    fn committed(&self) -> &[CommittedEntry];
    /// `(final view, highest stable checkpoint)`; zeros where the protocol
    /// has neither concept.
    fn progress(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Protocol for PbftReplica {
    type Msg = PbftMsg;
    type Config = PbftConfig;
    const LABEL: &'static str = "pbft";

    fn replica(id: NodeId, n: usize, config: &PbftConfig, plan: &FaultPlan) -> Self {
        PbftReplica::new(id, n, config.clone(), plan.byz_mode_of(id))
    }

    fn attach(&mut self, telemetry: TelemetrySink, trace: TraceSink) {
        self.set_telemetry(telemetry);
        self.set_trace(trace);
    }

    fn request(req: Request) -> PbftMsg {
        PbftMsg::Request(req)
    }

    /// The first replica the plan has alive and not fail-silent at `t`
    /// (the view-0 primary in a healthy cluster; a backup forwards and
    /// drives the view change otherwise), falling back to 0.
    fn entry_points(plan: &FaultPlan, n: usize, t: u64) -> std::ops::Range<NodeId> {
        let entry = (0..n)
            .find(|&id| !plan.is_down_at(id, t) && plan.byz_mode_of(id) != ByzMode::Silent)
            .unwrap_or(0);
        entry..entry + 1
    }

    fn committed(&self) -> &[CommittedEntry] {
        &self.committed
    }

    fn progress(&self) -> (u64, u64) {
        (self.view(), self.stable_checkpoint())
    }
}

impl Protocol for PoaValidator {
    type Msg = PoaMsg;
    type Config = ();
    const LABEL: &'static str = "poa";

    fn replica(id: NodeId, n: usize, _config: &(), plan: &FaultPlan) -> Self {
        PoaValidator::new(id, n, plan.poa_mode_of(id))
    }

    fn attach(&mut self, telemetry: TelemetrySink, trace: TraceSink) {
        self.set_telemetry(telemetry);
        self.set_trace(trace);
    }

    fn request(req: Request) -> PoaMsg {
        PoaMsg::Request(req)
    }

    /// PoA clients broadcast to every validator (the slot leader
    /// rotates); crashed targets just lose their copy.
    fn entry_points(_plan: &FaultPlan, n: usize, _t: u64) -> std::ops::Range<NodeId> {
        0..n
    }

    fn committed(&self) -> &[CommittedEntry] {
        &self.committed
    }
}

/// Deterministic garbage payload `j`, distinct from any workload payload.
fn corrupt_payload(j: usize) -> Vec<u8> {
    vec![0xde, 0xad, 0xbe, 0xef, j as u8, (j >> 8) as u8]
}

/// The one ordering body: validates the inputs, builds `n` replicas of
/// protocol `P` with their sinks attached, schedules the fault plan,
/// injects `payloads` (then the plan's corrupted payloads — consensus must
/// order them like any opaque payload and the execution layer must reject
/// them identically on every replica) `interarrival` ticks apart from
/// tick 10, and runs the simulator to `max_time`.
#[allow(clippy::too_many_arguments)]
fn simulate<P: Protocol + Node<P::Msg>>(
    n: usize,
    payloads: &[Vec<u8>],
    interarrival: u64,
    net: NetworkConfig,
    max_time: u64,
    config: &P::Config,
    plan: &FaultPlan,
    sinks: &[TelemetrySink],
    traces: &[TraceSink],
) -> Result<Simulator<P::Msg, P>, String> {
    plan.validate(n)?;
    let nodes: Vec<P> = (0..n)
        .map(|id| {
            let mut replica = P::replica(id, n, config, plan);
            // Missing sink entries stay disabled (the sinks' default).
            replica.attach(
                sinks.get(id).cloned().unwrap_or_default(),
                traces.get(id).cloned().unwrap_or_default(),
            );
            replica
        })
        .collect();
    let mut sim = Simulator::new(nodes, net);
    if let Some(sink) = sinks.first() {
        sim.set_telemetry(sink.clone());
    }
    plan.schedule_on(&mut sim);
    let corrupt = (0..plan.corrupt_payloads).map(corrupt_payload);
    for (i, payload) in payloads.iter().cloned().chain(corrupt).enumerate() {
        let t = 10 + (i as u64) * interarrival;
        let req = Request::new(payload, t);
        for entry in P::entry_points(plan, n, t) {
            sim.inject_at(entry, P::request(req.clone()), t);
        }
    }
    sim.run_until(max_time);
    Ok(sim)
}

/// Reads the cluster-wide outcome off a finished simulation.
fn observe<P: Protocol + Node<P::Msg>>(sim: &Simulator<P::Msg, P>) -> OrderingRun {
    let mut run = OrderingRun {
        views: Vec::new(),
        exec_digests: Vec::new(),
        final_views: Vec::new(),
        stable_checkpoints: Vec::new(),
        delivered: sim.delivered_messages,
        dropped: sim.dropped_messages,
        partitioned: sim.partitioned_messages,
        last_commit: 0,
    };
    for node in sim.nodes() {
        // PoA slots can commit out of slot order; PBFT logs in sequence.
        let mut batches: Vec<&CommittedEntry> = node.committed().iter().collect();
        batches.sort_by_key(|b| b.seq);
        run.views.push(
            batches
                .iter()
                .map(|b| b.requests.iter().map(|r| r.payload.clone()).collect())
                .collect(),
        );
        // Chained over the batch digests in protocol order: PBFT replicas
        // maintain exactly this value themselves (it is what checkpoint
        // votes carry); PoA has no protocol-level digest, so agreement
        // checks read the same chain for both.
        run.exec_digests
            .push(batches.iter().fold(Hash256::ZERO, |acc, b| {
                let mut chained = Vec::with_capacity(64);
                chained.extend_from_slice(acc.as_bytes());
                chained.extend_from_slice(b.digest.as_bytes());
                tagged_hash("TN/exec-chain", &chained)
            }));
        let (view, checkpoint) = node.progress();
        run.final_views.push(view);
        run.stable_checkpoints.push(checkpoint);
        run.last_commit = batches
            .iter()
            .map(|b| b.committed_at)
            .fold(run.last_commit, u64::max);
    }
    run
}

/// Throughput/latency statistics of `workload` as seen by the first
/// replica outside `crashed`.
fn run_stats<P: Protocol + Node<P::Msg>>(
    n: usize,
    crashed: &[NodeId],
    workload: &Workload,
    net: NetworkConfig,
    max_time: u64,
    config: &P::Config,
    plan: &FaultPlan,
) -> RunStats {
    let sim = simulate::<P>(
        n,
        &workload.payloads(),
        workload.interarrival,
        net,
        max_time,
        config,
        plan,
        &[],
        &[],
    )
    .expect("valid crash set");
    let reference = (0..n)
        .find(|id| !crashed.contains(id))
        .expect("a live node");
    let batches = sim.node(reference).committed();
    let latencies: Vec<u64> = batches
        .iter()
        .flat_map(|b| {
            b.requests
                .iter()
                .map(|r| b.committed_at.saturating_sub(r.submitted_at))
        })
        .collect();
    let committed = latencies.len();
    let duration = batches
        .iter()
        .map(|b| b.committed_at)
        .max()
        .unwrap_or(0)
        .max(1);
    let (mean, p50, p95) = latency_stats(latencies);
    RunStats {
        protocol: P::LABEL,
        n_nodes: n,
        injected: workload.n_requests,
        committed,
        duration,
        throughput: committed as f64 * 1000.0 / duration as f64,
        mean_latency: mean,
        p50_latency: p50,
        p95_latency: p95,
        messages: sim.delivered_messages,
        messages_per_commit: if committed > 0 {
            sim.delivered_messages as f64 / committed as f64
        } else {
            0.0
        },
    }
}

/// Runs PBFT with `n` replicas (`crashed` of them fail-silent) and returns
/// stats measured at the first honest replica.
pub fn run_pbft(
    n: usize,
    crashed: &[NodeId],
    workload: &Workload,
    net: NetworkConfig,
    max_time: u64,
) -> RunStats {
    let plan = FaultPlan {
        byz_modes: crashed.iter().map(|&id| (id, ByzMode::Silent)).collect(),
        ..FaultPlan::default()
    };
    run_stats::<PbftReplica>(
        n,
        crashed,
        workload,
        net,
        max_time,
        &PbftConfig::default(),
        &plan,
    )
}

/// Runs round-robin PoA with `n` validators (`crashed` of them down from
/// tick 0) and returns stats measured at the first live one.
pub fn run_poa(
    n: usize,
    crashed: &[NodeId],
    workload: &Workload,
    net: NetworkConfig,
    max_time: u64,
) -> RunStats {
    let plan = FaultPlan {
        crashes: crashed
            .iter()
            .map(|&replica| CrashFault {
                replica,
                at: 0,
                restart_at: None,
            })
            .collect(),
        ..FaultPlan::default()
    };
    run_stats::<PoaValidator>(n, crashed, workload, net, max_time, &(), &plan)
}

/// Orders opaque payloads through a PBFT cluster of `n` replicas:
/// consensus config, per-replica byzantine modes and a scheduled
/// [`FaultPlan`] (crashes, restarts, partitions, loss windows, corrupted
/// payload injection) all come from the caller; replica `i` records its
/// phase histograms into `sinks[i]` and its consensus spans into
/// `traces[i]` (missing entries stay disabled). Payloads are injected in
/// order, `interarrival` ticks apart; agreement means every honest replica
/// returns the same batch sequence. A fault-free, uninstrumented run is
/// `&FaultPlan::default(), &[], &[]`.
///
/// # Errors
///
/// When `plan` fails validation (bad drop probabilities, replica ids out
/// of range, inverted fault windows).
#[allow(clippy::too_many_arguments)]
pub fn order_payloads_pbft_faulted(
    n: usize,
    payloads: &[Vec<u8>],
    interarrival: u64,
    net: NetworkConfig,
    max_time: u64,
    config: &PbftConfig,
    plan: &FaultPlan,
    sinks: &[TelemetrySink],
    traces: &[TraceSink],
) -> Result<OrderingRun, String> {
    let sim = simulate::<PbftReplica>(
        n,
        payloads,
        interarrival,
        net,
        max_time,
        config,
        plan,
        sinks,
        traces,
    )?;
    Ok(observe(&sim))
}

/// The PoA counterpart of [`order_payloads_pbft_faulted`]: clients
/// broadcast each request to every validator, per-validator modes come
/// from the plan's `poa_modes`, and `final_views` / `stable_checkpoints`
/// are zeros (PoA has neither concept).
///
/// # Errors
///
/// When `plan` fails validation.
#[allow(clippy::too_many_arguments)]
pub fn order_payloads_poa_faulted(
    n: usize,
    payloads: &[Vec<u8>],
    interarrival: u64,
    net: NetworkConfig,
    max_time: u64,
    plan: &FaultPlan,
    sinks: &[TelemetrySink],
    traces: &[TraceSink],
) -> Result<OrderingRun, String> {
    let sim = simulate::<PoaValidator>(
        n,
        payloads,
        interarrival,
        net,
        max_time,
        &(),
        plan,
        sinks,
        traces,
    )?;
    Ok(observe(&sim))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-replica PBFT run on the default network.
    fn pbft(
        payloads: &[Vec<u8>],
        config: &PbftConfig,
        plan: &FaultPlan,
        traces: &[TraceSink],
    ) -> OrderingRun {
        let net = NetworkConfig::default();
        order_payloads_pbft_faulted(4, payloads, 5, net, 500_000, config, plan, &[], traces)
            .expect("valid inputs")
    }

    /// A 4-validator PoA run on the default network.
    fn poa(payloads: &[Vec<u8>], plan: &FaultPlan, traces: &[TraceSink]) -> OrderingRun {
        let net = NetworkConfig::default();
        order_payloads_poa_faulted(4, payloads, 5, net, 500_000, plan, &[], traces)
            .expect("valid inputs")
    }

    fn small_load() -> Workload {
        Workload {
            n_requests: 50,
            interarrival: 5,
            payload_size: 32,
        }
    }

    #[test]
    fn ordered_payloads_agree_across_replicas() {
        let payloads: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; 8]).collect();
        let views = pbft(
            &payloads,
            &PbftConfig::default(),
            &FaultPlan::default(),
            &[],
        )
        .views;
        assert_eq!(views.len(), 4);
        let flat: Vec<Vec<u8>> = views[0].iter().flatten().cloned().collect();
        assert_eq!(flat, payloads, "pbft must commit every payload in order");
        for view in &views[1..] {
            assert_eq!(*view, views[0], "replicas must agree on the batch sequence");
        }

        let views = poa(&payloads, &FaultPlan::default(), &[]).views;
        let flat: Vec<Vec<u8>> = views[0].iter().flatten().cloned().collect();
        assert_eq!(flat, payloads, "poa must commit every payload in order");
        for view in &views[1..] {
            assert_eq!(*view, views[0]);
        }
    }

    #[test]
    fn traced_pbft_run_produces_cross_replica_spans() {
        let tracer = tn_trace::Tracer::new(4);
        let traces: Vec<TraceSink> = (0..4).map(|i| tracer.sink(i)).collect();
        let payloads: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 8]).collect();
        let views = pbft(
            &payloads,
            &PbftConfig::default(),
            &FaultPlan::default(),
            &traces,
        )
        .views;
        assert_eq!(views[0].iter().flatten().count(), 10);
        let trace = tracer.collect();
        assert!(!trace.named("pbft.propose").is_empty());
        assert!(!trace.named("pbft.prepare_phase").is_empty());
        assert!(!trace.named("pbft.commit_phase").is_empty());
        // Every prepare phase (primary's and backups') hangs under the
        // propose span of the batch — the cross-replica causal link
        // carried by the pre-prepare message's span context.
        let proposes: Vec<(tn_trace::TraceId, u64)> = trace
            .named("pbft.propose")
            .iter()
            .map(|s| (s.trace, s.id))
            .collect();
        for s in trace.named("pbft.prepare_phase") {
            assert!(
                proposes.contains(&(s.trace, s.parent)),
                "prepare_phase parent must be its batch's propose span"
            );
        }
        // The batch trace must span several replicas (the whole point).
        assert!(!trace.cross_replica_traces(2).is_empty());
        // Deterministic parent links: each commit phase hangs under the
        // same replica's prepare phase, computed — never communicated.
        for s in trace.named("pbft.commit_phase") {
            assert_eq!(
                s.parent,
                tn_trace::replica_span_id(s.trace, "pbft.prepare_phase", s.replica)
            );
        }
    }

    #[test]
    fn traced_poa_run_parents_commits_under_proposals() {
        let tracer = tn_trace::Tracer::new(4);
        let traces: Vec<TraceSink> = (0..4).map(|i| tracer.sink(i)).collect();
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 8]).collect();
        poa(&payloads, &FaultPlan::default(), &traces);
        let trace = tracer.collect();
        let proposals = trace.named("poa.propose");
        assert!(!proposals.is_empty());
        for s in trace.named("poa.commit") {
            // Follower commits carry the leader's propose span as parent.
            assert!(proposals
                .iter()
                .any(|p| p.id == s.parent && p.trace == s.trace));
        }
        assert!(!trace.cross_replica_traces(2).is_empty());
    }

    #[test]
    fn pbft_run_commits_everything() {
        let stats = run_pbft(4, &[], &small_load(), NetworkConfig::default(), 200_000);
        assert_eq!(stats.committed, 50);
        assert!(stats.throughput > 0.0);
        assert!(stats.mean_latency > 0.0);
        assert!(stats.p95_latency >= stats.p50_latency);
    }

    #[test]
    fn poa_run_commits_everything() {
        let stats = run_poa(4, &[], &small_load(), NetworkConfig::default(), 200_000);
        assert_eq!(stats.committed, 50);
    }

    #[test]
    fn poa_latency_beats_pbft() {
        // One-phase PoA must have lower commit latency than three-phase PBFT
        // on the same network.
        let w = small_load();
        let pbft = run_pbft(7, &[], &w, NetworkConfig::default(), 500_000);
        let poa = run_poa(7, &[], &w, NetworkConfig::default(), 500_000);
        assert!(
            poa.mean_latency < pbft.mean_latency,
            "poa {} vs pbft {}",
            poa.mean_latency,
            pbft.mean_latency
        );
    }

    #[test]
    fn pbft_message_cost_grows_with_n() {
        let w = Workload {
            n_requests: 30,
            interarrival: 5,
            payload_size: 32,
        };
        let small = run_pbft(4, &[], &w, NetworkConfig::default(), 500_000);
        let large = run_pbft(10, &[], &w, NetworkConfig::default(), 500_000);
        assert!(large.messages_per_commit > small.messages_per_commit);
    }

    #[test]
    fn pbft_survives_crashes_within_f() {
        let stats = run_pbft(7, &[5, 6], &small_load(), NetworkConfig::default(), 500_000);
        assert_eq!(stats.committed, 50);
    }

    #[test]
    fn faulted_run_rejects_invalid_inputs() {
        let bad_window = FaultPlan {
            drop_windows: vec![crate::fault::DropWindow {
                from: 0,
                until: 100,
                drop_prob: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(order_payloads_pbft_faulted(
            4,
            &[],
            5,
            NetworkConfig::default(),
            1_000,
            &PbftConfig::default(),
            &bad_window,
            &[],
            &[],
        )
        .is_err());

        let bad_plan = FaultPlan {
            byz_modes: vec![(9, ByzMode::Silent)],
            ..FaultPlan::default()
        };
        assert!(order_payloads_poa_faulted(
            4,
            &[],
            5,
            NetworkConfig::default(),
            1_000,
            &bad_plan,
            &[],
            &[],
        )
        .is_err());
    }

    #[test]
    fn scheduled_crash_leaves_victim_with_a_prefix() {
        use crate::fault::CrashFault;
        let payloads: Vec<Vec<u8>> = (0u8..30).map(|i| vec![i; 8]).collect();
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                replica: 3,
                at: 60,
                restart_at: None,
            }],
            ..FaultPlan::default()
        };
        let run = pbft(&payloads, &PbftConfig::default(), &plan, &[]);
        // Survivors (within f = 1) commit everything and agree.
        let flat: Vec<Vec<u8>> = run.views[0].iter().flatten().cloned().collect();
        assert_eq!(flat, payloads);
        assert_eq!(run.views[1], run.views[0]);
        assert_eq!(run.views[2], run.views[0]);
        assert_eq!(run.exec_digests[1], run.exec_digests[0]);
        // The crashed replica holds a (possibly empty) strict prefix.
        assert!(run.views[3].len() < run.views[0].len());
        assert_eq!(run.views[3][..], run.views[0][..run.views[3].len()]);
    }

    #[test]
    fn consensus_config_is_threaded_to_replicas() {
        let payloads: Vec<Vec<u8>> = (0u8..20).map(|i| vec![i; 8]).collect();
        // Default checkpoint_interval (64) never triggers on 20 requests;
        // a threaded interval of 1 must.
        let tight = PbftConfig {
            checkpoint_interval: 1,
            ..PbftConfig::default()
        };
        let run = pbft(&payloads, &tight, &FaultPlan::default(), &[]);
        assert!(
            run.stable_checkpoints.iter().all(|&cp| cp > 0),
            "threaded checkpoint_interval must produce stable checkpoints: {:?}",
            run.stable_checkpoints
        );
    }

    #[test]
    fn corrupt_payloads_are_ordered_like_any_other() {
        let payloads: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i; 8]).collect();
        let plan = FaultPlan {
            corrupt_payloads: 3,
            ..FaultPlan::default()
        };
        for run in [
            pbft(&payloads, &PbftConfig::default(), &plan, &[]),
            poa(&payloads, &plan, &[]),
        ] {
            let committed: usize = run.views[0].iter().map(|b| b.len()).sum();
            assert_eq!(committed, 13, "garbage is ordered, not filtered");
            for view in &run.views[1..] {
                assert_eq!(*view, run.views[0]);
            }
        }
    }

    #[test]
    fn corrupt_exec_replica_diverges_only_at_payload_level() {
        let payloads: Vec<Vec<u8>> = (0u8..10).map(|i| vec![i, i + 1, i + 2]).collect();
        let plan = FaultPlan {
            byz_modes: vec![(2, ByzMode::CorruptExec)],
            ..FaultPlan::default()
        };
        let run = pbft(&payloads, &PbftConfig::default(), &plan, &[]);
        // Consensus-level agreement holds (batch digests cover originals)…
        assert_eq!(run.exec_digests[2], run.exec_digests[0]);
        // …but the executed payloads differ: that divergence is what the
        // node layer must detect and quarantine.
        assert_ne!(run.views[2], run.views[0]);
        assert_eq!(run.views[1], run.views[0]);
        assert_eq!(run.views[3], run.views[0]);
    }

    #[test]
    fn pbft_with_crashed_primary_recovers() {
        let stats = run_pbft(4, &[0], &small_load(), NetworkConfig::default(), 1_000_000);
        assert_eq!(stats.committed, 50);
    }
}
