//! Simulated validator networks: consensus ordering + pipeline execution.
//!
//! [`run_pbft_cluster`] / [`run_poa_cluster`] push a transaction workload
//! through the `tn-consensus` simulator to obtain each replica's committed
//! batch sequence, then apply those batches on per-replica
//! [`ValidatorNode`]s. The end-to-end claim under test is the paper's
//! permissioned-network consistency story: N validators that agree on
//! request order derive byte-identical platform state — same blocks, same
//! contract storage, same projection digests.

use tn_chain::prelude::Transaction;
use tn_consensus::fault::FaultPlan;
use tn_consensus::harness::{order_payloads_pbft_faulted, order_payloads_poa_faulted, OrderingRun};
use tn_consensus::pbft::PbftConfig;
use tn_consensus::sim::NetworkConfig;
use tn_core::platform::PlatformConfig;
use tn_crypto::Hash256;
use tn_monitor::{assess_cluster, timeline_json, ClusterHealth, MonitorConfig, ReplicaMonitor};
use tn_telemetry::{Snapshot, TelemetrySink};
use tn_trace::{Trace, TraceSink, Tracer};

use crate::statesync::{catch_up, CatchupReport};
use crate::validator::{encode_payloads, NodeError, ValidatorNode};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of validators.
    pub n_validators: usize,
    /// Platform genesis parameters (shared by every replica).
    pub platform: PlatformConfig,
    /// Seed of the simulated network (latency and loss are fixed).
    pub net: NetworkConfig,
    /// PBFT tuning (batch size, checkpoint interval), threaded down to
    /// every replica.
    pub pbft: PbftConfig,
    /// Declarative fault schedule: crashes/restarts, partitions + heals,
    /// loss windows, per-replica byzantine modes, corrupted payload
    /// injection. Empty (fault-free) by default.
    pub faults: FaultPlan,
    /// Ticks between request injections.
    pub interarrival: u64,
    /// Simulation horizon.
    pub max_time: u64,
    /// Record causal spans across every replica and return the merged
    /// [`Trace`] in the run. Off by default: disabled tracing is a single
    /// branch per span site.
    pub tracing: bool,
    /// Enable the live health plane on every replica: each commit
    /// samples the replica's registry into its [`ReplicaMonitor`], and
    /// the run ends with a cluster rollup ([`ClusterRun::health`]).
    /// `None` (the default) runs unmonitored. Monitoring only reads
    /// metric snapshots, so digests are byte-identical either way.
    pub monitor: Option<MonitorConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_validators: 4,
            platform: PlatformConfig::default(),
            net: NetworkConfig::default(),
            pbft: PbftConfig::default(),
            faults: FaultPlan::default(),
            interarrival: 5,
            max_time: 2_000_000,
            tracing: false,
            monitor: None,
        }
    }
}

/// Per-replica results of a cluster run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Replica id.
    pub id: usize,
    /// Final chain height.
    pub height: u64,
    /// Batches (blocks) applied.
    pub batches: usize,
    /// Transactions included across all blocks.
    pub included: usize,
    /// Included transactions whose execution failed.
    pub failed: usize,
    /// Ordered payloads that did not decode as transactions (corrupted
    /// injections land here, identically on every honest replica).
    pub undecodable: usize,
    /// Replica-wide execution digest.
    pub execution_digest: Hash256,
    /// Per-projection digests.
    pub projection_digests: Vec<(&'static str, Hash256)>,
    /// The replica's metrics at the end of the run (block imports,
    /// consensus phase histograms, mempool admissions, contract gas).
    pub metrics: Snapshot,
}

/// How one replica's final state relates to the cluster's quorum digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaVerdict {
    /// Reports the quorum digest.
    Agreed,
    /// Was behind, recovered and state-synced to the quorum digest.
    CaughtUp,
    /// Behind the quorum but on its chain (a crashed replica's prefix) —
    /// reconcilable by catch-up.
    Lagging,
    /// Holds state irreconcilable with the quorum (or no quorum exists):
    /// its head is not on the agreed chain. Such a replica must not be
    /// trusted until re-synced from scratch.
    Quarantined,
}

/// What the crash-recovery path did for one restarted replica.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// True when the restored pipeline reproduced the pre-restart
    /// execution digest (projections rebuilt via the replay path).
    pub digest_intact: bool,
    /// The state-sync pass that closed the gap to the quorum digest, if
    /// one ran (`None` when no quorum existed to sync towards).
    pub catchup: Option<CatchupReport>,
}

/// Per-replica fault/recovery outcome.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Replica id.
    pub(crate) replica: usize,
    /// Crash-recovery details for revived replicas.
    pub recovery: Option<RecoveryReport>,
    /// Final relation to the quorum digest.
    pub verdict: ReplicaVerdict,
}

/// Cluster-wide convergence outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterVerdict {
    /// Every replica reports the quorum digest (after recovery).
    Converged,
    /// A quorum agrees, but some replicas lag or are quarantined.
    Partial,
    /// No `2f+1` quorum of replicas shares an execution digest.
    Diverged,
}

/// The outcome of an N-validator run.
#[derive(Debug)]
pub struct ClusterRun {
    /// Protocol label ("pbft" or "poa").
    pub protocol: &'static str,
    /// Transactions injected as consensus requests.
    pub injected: usize,
    /// Per-replica reports, in id order.
    pub reports: Vec<NodeReport>,
    /// Per-replica fault/recovery outcomes, in id order.
    pub fault_reports: Vec<FaultReport>,
    /// Cluster-wide convergence verdict.
    pub verdict: ClusterVerdict,
    /// Consensus-layer messages delivered.
    pub delivered_messages: u64,
    /// Consensus-layer messages silently dropped (loss + crash +
    /// partition).
    pub dropped_messages: u64,
    /// Partition-blocked messages (subset of dropped).
    pub partitioned_messages: u64,
    /// Simulation tick of the last consensus commit on any replica — the
    /// cluster's convergence time for the injected workload.
    pub last_commit: u64,
    /// The replicas themselves (for replay audits and state queries).
    pub nodes: Vec<ValidatorNode>,
    /// The merged causal trace across all replicas, when
    /// [`ClusterConfig::tracing`] was on.
    pub trace: Option<Trace>,
    /// The monitor's cluster rollup, when [`ClusterConfig::monitor`] was
    /// on: per-replica health states and the cluster-wide verdict as the
    /// health plane saw them — independently of the ground-truth
    /// [`ReplicaVerdict`]s computed by the runner.
    pub health: Option<ClusterHealth>,
}

impl ClusterRun {
    /// The digest every replica agrees on, or `None` on divergence.
    pub fn agreed_digest(&self) -> Option<Hash256> {
        let first = self.reports.first()?.execution_digest;
        self.reports
            .iter()
            .all(|r| r.execution_digest == first)
            .then_some(first)
    }

    /// True when every replica reports the same execution digest.
    pub fn is_consistent(&self) -> bool {
        self.agreed_digest().is_some()
    }

    /// The digest shared by at least `2f + 1` replicas (`f = (n-1)/3`),
    /// or `None` when no such quorum exists. Unlike
    /// [`ClusterRun::agreed_digest`] this tolerates up to `f` faulty
    /// replicas — it is the digest a client should trust.
    pub fn quorum_digest(&self) -> Option<Hash256> {
        quorum_digest_of(&self.reports)
    }

    /// Replicas whose state is irreconcilable with the quorum.
    pub fn quarantined(&self) -> Vec<usize> {
        self.fault_reports
            .iter()
            .filter(|r| r.verdict == ReplicaVerdict::Quarantined)
            .map(|r| r.replica)
            .collect()
    }

    /// The merged cluster alert-timeline artifact (every replica's alert
    /// transitions in tick order plus the rollup verdict), when the run
    /// was monitored.
    pub fn health_timeline(&self) -> Option<String> {
        let health = self.health.as_ref()?;
        let monitors: Vec<&ReplicaMonitor> = self
            .nodes
            .iter()
            .filter_map(ValidatorNode::monitor)
            .collect();
        Some(timeline_json(&monitors, health))
    }
}

/// The digest shared by `>= 2f + 1` of the reports, `f = (n-1)/3`.
fn quorum_digest_of(reports: &[NodeReport]) -> Option<Hash256> {
    let n = reports.len();
    if n == 0 {
        return None;
    }
    let quorum = 2 * ((n - 1) / 3) + 1;
    let mut counts: Vec<(Hash256, usize)> = Vec::new();
    for r in reports {
        match counts.iter_mut().find(|(d, _)| *d == r.execution_digest) {
            Some((_, c)) => *c += 1,
            None => counts.push((r.execution_digest, 1)),
        }
    }
    counts
        .into_iter()
        .find(|&(_, c)| c >= quorum)
        .map(|(d, _)| d)
}

fn run_cluster(
    protocol: &'static str,
    config: &ClusterConfig,
    txs: &[Transaction],
    order: impl FnOnce(&[TelemetrySink], &[TraceSink]) -> Result<OrderingRun, String>,
) -> Result<ClusterRun, NodeError> {
    config
        .faults
        .validate(config.n_validators)
        .map_err(NodeError::Config)?;
    // Nodes are created before consensus runs so each replica's PBFT/PoA
    // metrics record into the matching node's registry.
    let mut nodes: Vec<ValidatorNode> = (0..config.n_validators)
        .map(|id| ValidatorNode::new(id, &config.platform))
        .collect();
    // One tracer for the whole cluster: every replica's sink shares the
    // time origin and the once-per-trace mint set, so admission/commit
    // spans appear exactly once cluster-wide.
    let tracer = config.tracing.then(|| Tracer::new(config.n_validators));
    let trace_sinks: Vec<TraceSink> = match &tracer {
        Some(tracer) => (0..config.n_validators).map(|id| tracer.sink(id)).collect(),
        None => Vec::new(),
    };
    for (id, node) in nodes.iter_mut().enumerate() {
        if let Some(sink) = trace_sinks.get(id) {
            node.set_trace(sink.clone());
        }
    }
    // The health plane attaches before ingest so the first sampled
    // window attributes admission-time metrics (sigcache misses, mempool
    // rejects) instead of folding them into the baseline.
    if let Some(mc) = &config.monitor {
        for node in nodes.iter_mut() {
            node.enable_monitor(mc);
        }
    }
    // Client ingest: every transaction is admission-checked at every
    // node's mempool before its payload enters consensus ordering.
    for node in nodes.iter_mut() {
        for tx in txs {
            let _ = node.submit(tx.clone());
        }
    }
    // Fault accounting onto the affected replicas' own registries.
    for id in config.faults.crashed_replicas() {
        nodes[id].telemetry_sink().incr("node.fault.crashes");
    }
    for (id, node) in nodes.iter().enumerate() {
        if config.faults.byz_mode_of(id) != tn_consensus::pbft::ByzMode::Honest
            || config.faults.poa_mode_of(id) != tn_consensus::poa::PoaMode::Honest
        {
            node.telemetry_sink().incr("node.fault.byzantine");
        }
    }
    let sinks: Vec<TelemetrySink> = nodes.iter().map(ValidatorNode::telemetry_sink).collect();
    let ordering = order(&sinks, &trace_sinks).map_err(NodeError::Config)?;
    let mut reports = Vec::with_capacity(nodes.len());
    for (node, batches) in nodes.iter_mut().zip(&ordering.views) {
        let mut included = 0usize;
        let mut failed = 0usize;
        let mut undecodable = 0usize;
        for batch in batches {
            let out = node.apply_committed_batch(batch)?;
            included += out.included;
            failed += out.failed;
            undecodable += out.undecodable;
        }
        reports.push(NodeReport {
            id: node.id(),
            height: node.height(),
            batches: batches.len(),
            included,
            failed,
            undecodable,
            execution_digest: node.execution_digest(),
            projection_digests: node.projection_digests(),
            metrics: node.metrics_snapshot(),
        });
    }

    // Crash-recovery phase: each replica the plan crashed *and restarted*
    // goes through the real restart path — snapshot its ledger, rebuild
    // the pipeline from the snapshot (projections via replay), then
    // state-sync the missed blocks from peers at the quorum digest.
    let mut recoveries: Vec<Option<RecoveryReport>> = vec![None; config.n_validators];
    for (id, _) in config.faults.revived_replicas() {
        let quorum = quorum_digest_of(&reports);
        let snapshot = nodes[id].snapshot();
        let before = nodes[id].execution_digest();
        let mut recovered = ValidatorNode::recover(id, &config.platform, &snapshot)?;
        if let Some(sink) = trace_sinks.get(id) {
            recovered.set_trace(sink.clone());
        }
        let digest_intact = recovered.execution_digest() == before;
        let catchup = quorum.and_then(|target| {
            let peer_ids: Vec<usize> = reports
                .iter()
                .filter(|r| r.id != id && r.execution_digest == target)
                .map(|r| r.id)
                .collect();
            let peers: Vec<&ValidatorNode> = peer_ids.iter().map(|&i| &nodes[i]).collect();
            catch_up(&mut recovered, &peers, target).ok()
        });
        // The recovered node replaces the in-memory one; refresh its
        // report (batches = post-bootstrap blocks on its final chain).
        let batches = recovered.height().saturating_sub(1) as usize;
        let included = recovered
            .blocks_after(1)
            .iter()
            .map(|b| b.transactions.len())
            .sum();
        reports[id] = NodeReport {
            id,
            height: recovered.height(),
            batches,
            included,
            failed: reports[id].failed,
            undecodable: reports[id].undecodable,
            execution_digest: recovered.execution_digest(),
            projection_digests: recovered.projection_digests(),
            metrics: recovered.metrics_snapshot(),
        };
        recoveries[id] = Some(RecoveryReport {
            digest_intact,
            catchup,
        });
        nodes[id] = recovered;
        // Re-attach the monitor to the recovered node: its baseline
        // sample sees `node.fault.recoveries` and the catch-up counters,
        // so the restart/catch-up alerts fire on the first window.
        if let Some(mc) = &config.monitor {
            nodes[id].enable_monitor(mc);
        }
    }

    // Verdicts: relate every replica to the post-recovery quorum digest.
    let quorum = quorum_digest_of(&reports);
    let quorum_holder = quorum.and_then(|q| {
        reports
            .iter()
            .find(|r| r.execution_digest == q)
            .map(|r| r.id)
    });
    let fault_reports: Vec<FaultReport> = (0..config.n_validators)
        .map(|id| {
            let verdict = match quorum {
                Some(q) if reports[id].execution_digest == q => {
                    if recoveries[id].is_some() {
                        ReplicaVerdict::CaughtUp
                    } else {
                        ReplicaVerdict::Agreed
                    }
                }
                Some(_) => {
                    // Behind-but-on-chain replicas are reconcilable; a
                    // replica whose head is off the agreed chain is not.
                    let on_chain = quorum_holder
                        .map(|h| nodes[h].has_block(&nodes[id].head_id()))
                        .unwrap_or(false);
                    if on_chain {
                        ReplicaVerdict::Lagging
                    } else {
                        ReplicaVerdict::Quarantined
                    }
                }
                // No quorum: nothing to reconcile against.
                None => ReplicaVerdict::Quarantined,
            };
            FaultReport {
                replica: id,
                recovery: recoveries[id].clone(),
                verdict,
            }
        })
        .collect();
    let verdict = match quorum {
        None => ClusterVerdict::Diverged,
        Some(_) => {
            if fault_reports
                .iter()
                .all(|r| matches!(r.verdict, ReplicaVerdict::Agreed | ReplicaVerdict::CaughtUp))
            {
                ClusterVerdict::Converged
            } else {
                ClusterVerdict::Partial
            }
        }
    };

    // Health-plane rollup: one final sample per replica (catching
    // post-commit counters like simulator drops), then cross-replica
    // digest comparison at the maximum committed height.
    let health = config.monitor.as_ref().map(|_| {
        for node in nodes.iter_mut() {
            node.monitor_tick();
        }
        let heights: Vec<u64> = reports.iter().map(|r| r.height).collect();
        let digests: Vec<Vec<u8>> = reports
            .iter()
            .map(|r| r.execution_digest.as_bytes().to_vec())
            .collect();
        let tick = heights.iter().copied().max().unwrap_or(0);
        let mut monitors: Vec<&mut ReplicaMonitor> = nodes
            .iter_mut()
            .filter_map(ValidatorNode::monitor_mut)
            .collect();
        assess_cluster(tick, &mut monitors, &heights, &digests)
    });

    Ok(ClusterRun {
        protocol,
        injected: txs.len(),
        reports,
        fault_reports,
        verdict,
        delivered_messages: ordering.delivered,
        dropped_messages: ordering.dropped,
        partitioned_messages: ordering.partitioned,
        last_commit: ordering.last_commit,
        nodes,
        trace: tracer.map(|t| t.collect()),
        health,
    })
}

/// Runs the workload through a PBFT cluster and applies every replica's
/// committed batches on its own pipeline.
///
/// # Errors
///
/// [`NodeError`] when a replica fails to import a built block.
pub fn run_pbft_cluster(
    config: &ClusterConfig,
    txs: &[Transaction],
) -> Result<ClusterRun, NodeError> {
    let payloads = encode_payloads(txs);
    run_cluster("pbft", config, txs, |sinks, traces| {
        order_payloads_pbft_faulted(
            config.n_validators,
            &payloads,
            config.interarrival,
            config.net.clone(),
            config.max_time,
            &config.pbft,
            &config.faults,
            sinks,
            traces,
        )
    })
}

/// Runs the workload through a round-robin PoA cluster; the PoA
/// counterpart of [`run_pbft_cluster`].
///
/// # Errors
///
/// [`NodeError`] when a replica fails to import a built block.
pub fn run_poa_cluster(
    config: &ClusterConfig,
    txs: &[Transaction],
) -> Result<ClusterRun, NodeError> {
    let payloads = encode_payloads(txs);
    run_cluster("poa", config, txs, |sinks, traces| {
        order_payloads_poa_faulted(
            config.n_validators,
            &payloads,
            config.interarrival,
            config.net.clone(),
            config.max_time,
            &config.faults,
            sinks,
            traces,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::scripted_workload;

    #[test]
    fn pbft_cluster_agrees_and_replays() -> Result<(), String> {
        let config = ClusterConfig::default();
        let txs = scripted_workload(&config.platform);
        assert!(txs.len() >= 10, "workload too small: {}", txs.len());
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("pbft cluster failed to apply a committed batch: {e}"))?;
        assert_eq!(run.reports.len(), 4);
        assert_eq!(run.verdict, ClusterVerdict::Converged);
        let agreed = match run.quorum_digest() {
            Some(d) => d,
            None => return Err("no quorum digest in a fault-free run".into()),
        };
        for (report, fr) in run.reports.iter().zip(&run.fault_reports) {
            assert_eq!(report.execution_digest, agreed);
            assert_eq!(report.projection_digests, run.reports[0].projection_digests);
            assert!(report.included > 0);
            assert_eq!(fr.verdict, ReplicaVerdict::Agreed);
        }
        assert!(run.quarantined().is_empty());
        // Every replica passes the ledger-replay audit.
        for node in &run.nodes {
            node.verify_replay()
                .map_err(|e| format!("replay audit failed on replica {}: {e}", node.id()))?;
        }
        Ok(())
    }

    #[test]
    fn poa_cluster_matches_pbft_state() -> Result<(), String> {
        let config = ClusterConfig::default();
        let txs = scripted_workload(&config.platform);
        let pbft = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("pbft cluster failed to apply a committed batch: {e}"))?;
        let poa = run_poa_cluster(&config, &txs)
            .map_err(|e| format!("poa cluster failed to apply a committed batch: {e}"))?;
        assert_eq!(pbft.verdict, ClusterVerdict::Converged);
        assert_eq!(poa.verdict, ClusterVerdict::Converged);
        let pbft_digest = match pbft.quorum_digest() {
            Some(d) => d,
            None => return Err("pbft quorum missing".into()),
        };
        let poa_digest = match poa.quorum_digest() {
            Some(d) => d,
            None => return Err("poa quorum missing".into()),
        };
        // Same batches in the same order would give identical digests;
        // protocols may batch differently, so compare the derived
        // *projection* content instead: both must admit the same facts.
        assert_eq!(
            pbft.nodes[0].pipeline().factdb().root(),
            poa.nodes[0].pipeline().factdb().root(),
            "pbft digest {pbft_digest} poa digest {poa_digest}"
        );
        Ok(())
    }

    #[test]
    fn traced_pbft_cluster_yields_causal_trace() -> Result<(), String> {
        let config = ClusterConfig {
            tracing: true,
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("traced pbft cluster failed: {e}"))?;
        // Tracing must not perturb execution: replicas still agree.
        assert!(run.is_consistent(), "traced replicas diverged");
        let trace = run.trace.as_ref().expect("tracing was enabled");
        assert!(!trace.is_empty());
        // Spans from at least 3 replicas share trace ids (the cross-replica
        // causal links the exporter renders).
        assert!(
            !trace.cross_replica_traces(3).is_empty(),
            "expected traces spanning >= 3 replicas"
        );
        // Lifecycle spans all present.
        for name in [
            "tx.admission",
            "pbft.propose",
            "pbft.prepare_phase",
            "pbft.commit_phase",
            "pipeline.commit",
            "chain.verify",
            "chain.execute",
            "tx.commit",
            "tx.apply",
        ] {
            assert!(!trace.named(name).is_empty(), "missing {name} spans");
        }
        // Every tx.apply links to the cluster-once tx.commit of its trace.
        for apply in trace.named("tx.apply") {
            assert_eq!(apply.parent, tn_trace::span_id(apply.trace, "tx.commit"));
        }
        Ok(())
    }

    /// Trace-propagation invariants for one traced cluster run: every
    /// committed transaction's trace holds exactly one cluster-wide
    /// admission span, exactly one commit span parented under it, and one
    /// `tx.apply` span per replica parented under the commit — with the
    /// parent ids recomputed from the deterministic-id scheme, never read
    /// from the spans themselves.
    fn assert_tx_trace_shape(prefix: usize) -> Result<(), String> {
        let config = ClusterConfig {
            tracing: true,
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        // A prefix of the scripted workload is still causally valid
        // (dependencies always precede dependents).
        let prefix = prefix.clamp(10, txs.len());
        let run = run_pbft_cluster(&config, &txs[..prefix])
            .map_err(|e| format!("traced cluster failed: {e}"))?;
        assert!(run.is_consistent(), "replicas diverged");
        let trace = run.trace.as_ref().expect("tracing was enabled");
        let n = config.n_validators;

        let commits = trace.named("tx.commit");
        let included = run.reports[0].included;
        assert_eq!(
            commits.len(),
            included,
            "one cluster-wide tx.commit span per committed tx"
        );
        for commit in &commits {
            let spans = trace.of_trace(commit.trace);
            let admissions: Vec<_> = spans.iter().filter(|s| s.name == "tx.admission").collect();
            assert_eq!(admissions.len(), 1, "exactly one admission span");
            let admission = admissions[0];
            assert_eq!(
                admission.id,
                tn_trace::span_id(commit.trace, "tx.admission")
            );
            assert_eq!(admission.parent, 0, "admission is the trace root");
            assert_eq!(
                spans.iter().filter(|s| s.name == "tx.commit").count(),
                1,
                "exactly one commit span"
            );
            assert_eq!(commit.parent, admission.id, "commit hangs under admission");
            let applies: Vec<_> = spans.iter().filter(|s| s.name == "tx.apply").collect();
            assert_eq!(applies.len(), n, "one tx.apply per replica");
            let mut replicas: Vec<usize> = applies.iter().map(|s| s.replica).collect();
            replicas.sort_unstable();
            assert_eq!(replicas, (0..n).collect::<Vec<_>>());
            for apply in applies {
                assert_eq!(apply.parent, commit.id, "apply hangs under commit");
            }
        }
        Ok(())
    }

    proptest::proptest! {
        // Each case is a full 4-replica traced cluster run; keep the case
        // count small.
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(4))]

        #[test]
        fn prop_tx_traces_well_formed(prefix in 10usize..64) {
            if let Err(e) = assert_tx_trace_shape(prefix) {
                return Err(proptest::test_runner::TestCaseError::Fail(e));
            }
        }
    }

    #[test]
    fn untraced_cluster_has_no_trace() -> Result<(), String> {
        let config = ClusterConfig::default();
        let txs = scripted_workload(&config.platform);
        let run =
            run_pbft_cluster(&config, &txs).map_err(|e| format!("pbft cluster failed: {e}"))?;
        assert!(run.trace.is_none());
        Ok(())
    }

    #[test]
    fn invalid_network_config_is_a_config_error() {
        let config = ClusterConfig {
            faults: FaultPlan {
                drop_windows: vec![tn_consensus::fault::DropWindow {
                    from: 0,
                    until: 100,
                    drop_prob: f64::NAN,
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let err = run_pbft_cluster(&config, &[]);
        assert!(matches!(err, Err(NodeError::Config(_))), "{err:?}");

        let config = ClusterConfig {
            faults: FaultPlan {
                crashes: vec![tn_consensus::fault::CrashFault {
                    replica: 99,
                    at: 0,
                    restart_at: None,
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let err = run_poa_cluster(&config, &[]);
        assert!(matches!(err, Err(NodeError::Config(_))), "{err:?}");
    }

    #[test]
    fn crashed_replica_within_f_survivors_agree_and_replay() -> Result<(), String> {
        let config = ClusterConfig {
            faults: FaultPlan {
                crashes: vec![tn_consensus::fault::CrashFault {
                    replica: 3,
                    at: 100,
                    restart_at: None,
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("crash-within-f cluster failed: {e}"))?;
        let quorum = match run.quorum_digest() {
            Some(d) => d,
            None => return Err("survivors lost quorum".into()),
        };
        for id in 0..3 {
            assert_eq!(run.reports[id].execution_digest, quorum);
            assert_eq!(run.fault_reports[id].verdict, ReplicaVerdict::Agreed);
            run.nodes[id]
                .verify_replay()
                .map_err(|e| format!("replay audit failed on survivor {id}: {e}"))?;
        }
        // The crashed replica holds a prefix of the agreed chain: behind,
        // reconcilable, not quarantined.
        assert_eq!(run.fault_reports[3].verdict, ReplicaVerdict::Lagging);
        assert_eq!(run.verdict, ClusterVerdict::Partial);
        assert!(run.quarantined().is_empty());
        assert!(run.dropped_messages > 0, "crash must cost messages");
        Ok(())
    }

    #[test]
    fn revived_replica_catches_up_to_the_agreed_digest() -> Result<(), String> {
        let config = ClusterConfig {
            faults: FaultPlan {
                crashes: vec![tn_consensus::fault::CrashFault {
                    replica: 2,
                    at: 100,
                    restart_at: Some(100_000),
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("crash-revive cluster failed: {e}"))?;
        assert_eq!(run.verdict, ClusterVerdict::Converged);
        let quorum = match run.quorum_digest() {
            Some(d) => d,
            None => return Err("no quorum after recovery".into()),
        };
        assert_eq!(run.reports[2].execution_digest, quorum);
        assert_eq!(run.fault_reports[2].verdict, ReplicaVerdict::CaughtUp);
        let recovery = run.fault_reports[2]
            .recovery
            .as_ref()
            .ok_or("revived replica has no recovery report")?;
        assert!(recovery.digest_intact, "restore must reproduce the digest");
        let catchup = recovery
            .catchup
            .as_ref()
            .ok_or("revived replica ran no catch-up")?;
        assert!(catchup.converged);
        assert!(
            catchup.blocks_applied > 0,
            "catch-up must fetch the missed blocks"
        );
        // The recovered replica passes the replay audit on the synced chain.
        run.nodes[2]
            .verify_replay()
            .map_err(|e| format!("replay audit failed after catch-up: {e}"))?;
        Ok(())
    }

    #[test]
    fn more_than_f_corrupt_replicas_divergence_is_reported_not_panicked() -> Result<(), String> {
        let config = ClusterConfig {
            faults: FaultPlan {
                byz_modes: vec![
                    (2, tn_consensus::pbft::ByzMode::CorruptExec),
                    (3, tn_consensus::pbft::ByzMode::CorruptExec),
                ],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("byzantine cluster failed: {e}"))?;
        // 2 of 4 corrupt: the 2f+1 = 3 quorum cannot form. The run reports
        // divergence instead of panicking.
        assert_eq!(run.verdict, ClusterVerdict::Diverged);
        assert!(run.quorum_digest().is_none());
        assert_ne!(
            run.reports[0].execution_digest, run.reports[2].execution_digest,
            "corrupt replicas must actually diverge"
        );
        Ok(())
    }

    #[test]
    fn within_f_corrupt_replica_is_quarantined() -> Result<(), String> {
        let config = ClusterConfig {
            faults: FaultPlan {
                byz_modes: vec![(3, tn_consensus::pbft::ByzMode::CorruptExec)],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("quarantine cluster failed: {e}"))?;
        assert_eq!(run.verdict, ClusterVerdict::Partial);
        assert_eq!(run.quarantined(), vec![3]);
        assert_eq!(run.fault_reports[3].verdict, ReplicaVerdict::Quarantined);
        let quorum = match run.quorum_digest() {
            Some(d) => d,
            None => return Err("honest majority lost quorum".into()),
        };
        for id in 0..3 {
            assert_eq!(run.reports[id].execution_digest, quorum);
        }
        Ok(())
    }

    #[test]
    fn equivocating_poa_leader_splits_the_cluster() -> Result<(), String> {
        let config = ClusterConfig {
            faults: FaultPlan {
                poa_modes: vec![(0, tn_consensus::poa::PoaMode::EquivocatingLeader)],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_poa_cluster(&config, &txs)
            .map_err(|e| format!("equivocating poa cluster failed: {e}"))?;
        // A PoA leader that equivocates splits the non-BFT protocol; the
        // run must *report* the damage (diverged or a quarantined split),
        // never panic.
        assert!(
            run.verdict != ClusterVerdict::Converged,
            "equivocation cannot yield full convergence"
        );
        Ok(())
    }

    #[test]
    fn monitored_clean_cluster_is_healthy_and_digest_identical() -> Result<(), String> {
        let plain_config = ClusterConfig::default();
        let txs = scripted_workload(&plain_config.platform);
        let plain = run_pbft_cluster(&plain_config, &txs)
            .map_err(|e| format!("unmonitored cluster failed: {e}"))?;
        let monitored_config = ClusterConfig {
            monitor: Some(tn_monitor::MonitorConfig::default()),
            ..ClusterConfig::default()
        };
        let monitored = run_pbft_cluster(&monitored_config, &txs)
            .map_err(|e| format!("monitored cluster failed: {e}"))?;
        // Monitoring only reads metric snapshots: the ledgers are
        // byte-identical with the health plane on or off.
        for (a, b) in plain.reports.iter().zip(&monitored.reports) {
            assert_eq!(a.execution_digest, b.execution_digest);
            assert_eq!(a.projection_digests, b.projection_digests);
        }
        assert!(plain.health.is_none());
        let health = monitored
            .health
            .as_ref()
            .ok_or("monitored run lost its rollup")?;
        // Zero false quarantines on a fault-free baseline.
        assert_eq!(health.verdict, tn_monitor::ClusterHealthVerdict::Healthy);
        for (id, state) in health.replicas.iter().enumerate() {
            assert_eq!(
                *state,
                tn_monitor::HealthState::Healthy,
                "false positive on clean replica {id}"
            );
        }
        assert!(health.quorum_digest.is_some());
        // The timeline artifact exists and passes the exposition lint.
        let timeline = monitored.health_timeline().ok_or("no timeline")?;
        assert!(timeline.contains("\"verdict\":\"healthy\""));
        for node in &monitored.nodes {
            let monitor = node.monitor().ok_or("monitor missing on replica")?;
            tn_monitor::lint_prometheus(&tn_monitor::prometheus_text(monitor))
                .map_err(|e| format!("prometheus lint failed: {e}"))?;
        }
        Ok(())
    }

    #[test]
    fn monitor_flags_corrupt_replica_as_quarantined() -> Result<(), String> {
        let config = ClusterConfig {
            monitor: Some(tn_monitor::MonitorConfig::default()),
            faults: FaultPlan {
                byz_modes: vec![(3, tn_consensus::pbft::ByzMode::CorruptExec)],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("monitored corrupt cluster failed: {e}"))?;
        let health = run.health.as_ref().ok_or("no rollup")?;
        // The health plane independently reaches the ground-truth verdict:
        // the corrupt replica is quarantined, the honest ones stay healthy.
        assert_eq!(health.replicas[3], tn_monitor::HealthState::Quarantined);
        for id in 0..3 {
            assert_eq!(health.replicas[id], tn_monitor::HealthState::Healthy);
        }
        assert_eq!(health.verdict, tn_monitor::ClusterHealthVerdict::Degraded);
        // The divergence alert is on the quarantined replica's timeline.
        let monitor = run.nodes[3].monitor().ok_or("monitor missing")?;
        assert!(monitor
            .engine()
            .timeline()
            .iter()
            .any(|a| a.rule == tn_monitor::RULE_DIVERGENCE));
        Ok(())
    }

    #[test]
    fn monitor_sees_restart_and_catchup_on_revived_replica() -> Result<(), String> {
        let config = ClusterConfig {
            monitor: Some(tn_monitor::MonitorConfig::default()),
            faults: FaultPlan {
                crashes: vec![tn_consensus::fault::CrashFault {
                    replica: 2,
                    at: 100,
                    restart_at: Some(100_000),
                }],
                ..FaultPlan::default()
            },
            ..ClusterConfig::default()
        };
        let txs = scripted_workload(&config.platform);
        let run = run_pbft_cluster(&config, &txs)
            .map_err(|e| format!("monitored crash-revive cluster failed: {e}"))?;
        assert_eq!(run.verdict, ClusterVerdict::Converged);
        let health = run.health.as_ref().ok_or("no rollup")?;
        // The revived replica converged, so the rollup must not
        // quarantine it; the restart and catch-up alerts degrade it.
        assert_ne!(health.replicas[2], tn_monitor::HealthState::Quarantined);
        let monitor = run.nodes[2].monitor().ok_or("monitor missing")?;
        let fired: Vec<&str> = monitor
            .engine()
            .timeline()
            .iter()
            .filter(|a| a.transition == tn_monitor::Transition::Firing)
            .map(|a| a.rule.as_str())
            .collect();
        assert!(
            fired.contains(&tn_monitor::RULE_RESTART),
            "restart alert missing: {fired:?}"
        );
        assert!(
            fired.contains(&tn_monitor::RULE_CATCHUP),
            "catch-up alert missing: {fired:?}"
        );
        Ok(())
    }
}
