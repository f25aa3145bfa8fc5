//! Pieces every workload shares: the run context, the round loop and its
//! per-round values, the sync and recover steps, and the probes a traced
//! run takes on the final node.
//!
//! A run is a sequence of *rounds*. Every round goes through the whole
//! scenario — boot, write phase with reads beside it, a replica syncing
//! the chain, a restart — and yields one value per end-to-end metric; the
//! run reports the trimmed mean of those values
//! ([`stats::trimmed_mean`]). So every metric is sampled evenly over the
//! whole run, and a stretch in which the shared host is slow moves each
//! figure by its share of the rounds instead of deciding it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use tn_chain::prelude::*;
use tn_contracts::builtin::RankingContract;
use tn_core::platform::PlatformConfig;
use tn_crypto::{Hash256, Keypair};
use tn_node::{catch_up, ValidatorNode};

use crate::spans::Recorder;
use crate::stats;

/// Rounds a run makes whatever `--seconds` says: a traced run needs one
/// bare and one recorded round.
pub const MIN_ROUNDS: usize = 2;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Seconds the rounds may take together.
    pub seconds: f64,
    /// Record spans and take the per-layer probes.
    pub traced: bool,
    /// Directory for trace files.
    pub scratch: PathBuf,
}

impl Ctx {
    /// True while the run should start another round: `done` rounds are
    /// behind it and measuring began at `started`.
    pub fn another_round(&self, done: usize, started: Instant) -> bool {
        done < MIN_ROUNDS || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Whether round `index` records spans. A traced run records every
    /// second round; the bare rounds between them are what the recorded
    /// ones are priced against (`driver.trace_overhead_pct`).
    pub fn records(&self, index: usize) -> bool {
        self.traced && index % 2 == 1
    }

    /// Room a traced run's recorder needs, in recorded rounds: no workload's
    /// round takes under half a second, and every second one is recorded.
    pub fn recorded_rounds_at_most(&self) -> usize {
        self.seconds.ceil() as usize + MIN_ROUNDS
    }

    /// Iterations of an isolated micro-run: 2 000 at full size, scaled
    /// down with `--seconds` (never below 200).
    pub fn micro_iters(&self) -> usize {
        ((2000.0 * self.seconds / crate::RUN_SECONDS) as usize).clamp(200, 2000)
    }
}

/// Samples of one write phase.
#[derive(Debug, Default)]
pub struct WritePhase {
    /// Hand-off → commit latency of every committed transaction, ms.
    pub commit_ms: Vec<f64>,
    /// Wall time of every block-commit call, ms.
    pub block_ms: Vec<f64>,
    /// Transactions in each of those blocks.
    pub block_txs: Vec<usize>,
    /// Transactions committed.
    pub committed: u64,
    /// Committed transactions whose receipt reports failure.
    pub failed_receipts: u64,
    /// Wall seconds of the phase.
    pub wall_s: f64,
}

/// Samples of the reads a workload serves.
#[derive(Debug, Default)]
pub struct ReadPhase {
    /// Service time of every read, µs.
    pub us: Vec<f64>,
    /// Reads that returned a wrong or missing answer.
    pub failed: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Boot of the program: inputs received → ready for the first request.
    pub setup_s: f64,
    /// The write phase.
    pub writes: WritePhase,
    /// The reads served beside it.
    pub reads: ReadPhase,
    /// Transactions per wall-second of the replica syncing the chain.
    pub sync_tps: f64,
    /// Wall ms of the restart.
    pub recover_ms: f64,
}

/// The per-round values of a run, one entry per round in each list, plus
/// the pooled samples the tail figures are read from.
#[derive(Debug, Default)]
pub struct Rounds {
    setup_s: Vec<f64>,
    commit_tps: Vec<f64>,
    commit_p50_ms: Vec<f64>,
    block_commit_p50_ms: Vec<f64>,
    sync_tps: Vec<f64>,
    recover_ms: Vec<f64>,
    read_p50_us: Vec<f64>,
    /// Write-phase wall of the bare and of the recorded rounds, s.
    bare_wall_s: Vec<f64>,
    recorded_wall_s: Vec<f64>,
    /// Transactions committed in recorded rounds (span totals divide by it).
    pub recorded_committed: u64,
    /// Every write phase of the run, pooled in round order.
    pub all: WritePhase,
    /// Every read of the run.
    pub reads: ReadPhase,
}

impl Rounds {
    /// Books one round; `recorded` says whether its spans were recorded.
    pub fn push(&mut self, round: Round, recorded: bool) {
        let Round {
            setup_s,
            mut writes,
            mut reads,
            sync_tps,
            recover_ms,
        } = round;
        self.setup_s.push(setup_s);
        self.commit_tps
            .push(writes.committed as f64 / writes.wall_s.max(1e-9));
        self.commit_p50_ms.push(stats::median(&writes.commit_ms));
        self.block_commit_p50_ms
            .push(stats::median(&writes.block_ms));
        self.sync_tps.push(sync_tps);
        self.recover_ms.push(recover_ms);
        self.read_p50_us.push(stats::median(&reads.us));
        if recorded {
            self.recorded_wall_s.push(writes.wall_s);
            self.recorded_committed += writes.committed;
        } else {
            self.bare_wall_s.push(writes.wall_s);
        }
        self.all.commit_ms.append(&mut writes.commit_ms);
        self.all.block_ms.append(&mut writes.block_ms);
        self.all.block_txs.append(&mut writes.block_txs);
        self.all.committed += writes.committed;
        self.all.failed_receipts += writes.failed_receipts;
        self.all.wall_s += writes.wall_s;
        self.reads.us.append(&mut reads.us);
        self.reads.failed += reads.failed;
    }

    /// Rounds booked so far.
    pub fn len(&self) -> usize {
        self.setup_s.len()
    }

    /// The end-to-end values of the run (`peak_rss_mb` is read when the
    /// run ends): the trimmed mean over rounds of each per-round value,
    /// and the pooled p90s that are reported per layer.
    pub fn end_to_end(&self) -> EndToEnd {
        EndToEnd {
            setup_s: stats::trimmed_mean(&self.setup_s),
            commit_tps: stats::trimmed_mean(&self.commit_tps),
            commit_p50_ms: stats::trimmed_mean(&self.commit_p50_ms),
            commit_p90_ms: stats::percentile(&self.all.commit_ms, 0.90).0,
            block_commit_p50_ms: stats::trimmed_mean(&self.block_commit_p50_ms),
            block_commit_p90_ms: stats::percentile(&self.all.block_ms, 0.90).0,
            sync_tps: stats::trimmed_mean(&self.sync_tps),
            recover_ms: stats::trimmed_mean(&self.recover_ms),
            read_p50_us: stats::trimmed_mean(&self.read_p50_us),
            read_p90_us: stats::percentile(&self.reads.us, 0.90).0,
            peak_rss_mb: 0.0,
        }
    }

    /// Write-phase wall of the recorded rounds against the bare ones, as
    /// a percentage of the latter.
    pub fn trace_overhead_pct(&self) -> f64 {
        let bare = stats::trimmed_mean(&self.bare_wall_s);
        (stats::trimmed_mean(&self.recorded_wall_s) - bare) / bare.max(1e-9) * 100.0
    }

    /// Write-phase wall seconds of the recorded rounds together.
    pub fn recorded_wall_s(&self) -> f64 {
        self.recorded_wall_s.iter().sum()
    }
}

/// End-to-end values of one run, plus the three tail figures that are
/// reported per layer (`node.commit_p90_ms`, `node.block_commit_p90_ms`,
/// `node.read_p90_us`): a p90 is made of exactly the moments the shared
/// machine was slow, so its own spread exceeds any bound it could carry.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub commit_tps: f64,
    pub commit_p50_ms: f64,
    pub commit_p90_ms: f64,
    pub block_commit_p50_ms: f64,
    pub block_commit_p90_ms: f64,
    pub sync_tps: f64,
    pub recover_ms: f64,
    pub read_p50_us: f64,
    pub read_p90_us: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// `(name, value)` pairs in catalogue order.
    pub fn named(&self) -> [(&'static str, f64); 8] {
        [
            ("setup_s", self.setup_s),
            ("commit_tps", self.commit_tps),
            ("commit_p50_ms", self.commit_p50_ms),
            ("block_commit_p50_ms", self.block_commit_p50_ms),
            ("sync_tps", self.sync_tps),
            ("recover_ms", self.recover_ms),
            ("read_p50_us", self.read_p50_us),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (writes offered, reads, sync and recover ops).
    pub attempted: u64,
    /// Operations that failed: shed, mempool-rejected, failed receipt,
    /// never committed, wrong read answer, failed sync or recovery.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Per-layer metrics (traced runs only); absent names read 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Execution digest one round leaves (every round leaves the same
    /// one, or the run's final digest where the chain spans the rounds),
    /// for same-seed comparisons.
    pub digest: String,
    /// Exact counts that must repeat for a seed (`name`, value); never
    /// the number of rounds, which the clock decides.
    pub counts: Vec<(&'static str, u64)>,
    /// The span recorder of a traced run, for the trace file.
    pub recorder: Option<Recorder>,
}

impl Outcome {
    /// Records a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// True when every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::catalogue::find(name).is_some(), "{name}");
        self.layers.insert(name, value);
    }

    /// The benchmark's own rows of a traced run: input generation time,
    /// recorded against bare rounds, and the share of the recorded write
    /// phases' wall that the root spans `root` cover.
    pub fn driver_layers(&mut self, gen_s: f64, rounds: &Rounds, rec: &Recorder, root: &str) {
        self.layer("driver.gen_s", gen_s);
        self.layer("driver.trace_overhead_pct", rounds.trace_overhead_pct());
        let coverage = rec.total_ns(root) as f64 / 1e9 / rounds.recorded_wall_s().max(1e-9);
        self.layer("driver.ledger_coverage", coverage);
        self.check("ledger coverage >= 0.95", coverage >= 0.95);
    }

    /// The per-layer rows behind `sync_tps` and `recover_ms`.
    pub fn restart_layers(&mut self, snapshot_ms: f64) {
        self.layer("node.snapshot_ms", snapshot_ms);
        self.layer("node.recover_s", self.e2e.recover_ms / 1e3);
        self.layer("node.catchup_us_per_tx", 1e6 / self.e2e.sync_tps.max(1e-9));
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Applies a setup prefix the way a replica applies consensus-committed
/// blocks: directly, in chunks of 64, never through admission.
pub fn apply_setup(node: &mut ValidatorNode, setup: &[Transaction]) {
    for chunk in setup.chunks(64) {
        node.apply_committed_batch(&tn_node::validator::encode_payloads(chunk))
            .expect("setup prefix applies");
    }
}

/// Sync step of a round: `node` state-syncs from `peers` to `target` with
/// `catch_up`, importing `txs` transactions. Returns transactions per
/// wall-second and whether it reached `target`.
pub fn sync_once(
    node: &mut ValidatorNode,
    peers: &[&ValidatorNode],
    target: Hash256,
    txs: u64,
    round: usize,
    rec: &mut Recorder,
) -> (f64, bool) {
    let span = rec.enter("node.catch_up", round as u32);
    let t = Instant::now();
    let report = catch_up(node, peers, target);
    let secs = t.elapsed().as_secs_f64();
    rec.exit(span);
    let ok = report.is_ok_and(|r| r.converged) && node.execution_digest() == target;
    (txs as f64 / secs.max(1e-9), ok)
}

/// Recover step of a round: replica `id` restarts from `snapshot` with
/// `ValidatorNode::recover` (full re-validation and re-execution).
/// Returns the wall ms and whether the restart reported `target`.
pub fn recover_once(
    snapshot: &[u8],
    id: usize,
    config: &PlatformConfig,
    target: Hash256,
    round: usize,
    rec: &mut Recorder,
) -> (f64, bool) {
    let span = rec.enter("node.recover", round as u32);
    let t = Instant::now();
    let recovered = ValidatorNode::recover(id, config, snapshot);
    let took = ms_since(t);
    rec.exit(span);
    (
        took,
        recovered.is_ok_and(|n| n.execution_digest() == target),
    )
}

/// Ids of the persona stream's seed articles: the first `n` non-root
/// items of the supply-chain graph, in insertion order.
pub fn seed_articles(node: &ValidatorNode, n: usize) -> Vec<Hash256> {
    node.pipeline()
        .graph()
        .iter()
        .filter(|item| !item.is_fact_root)
        .take(n)
        .map(|item| item.id)
        .collect()
}

/// Serves one read of the persona stream from the node's projections:
/// the front page — every catalogue article, starting at the requested
/// one, each with its item, provenance trace, children and crowd ranking.
/// (A single sub-microsecond lookup would time the clock and the cache
/// state the last block left behind more than the projections.)
/// Returns false on a missing answer.
pub fn serve_page(node: &ValidatorNode, catalogue: &[Hash256], first: usize) -> bool {
    let pipeline = node.pipeline();
    let graph = pipeline.graph();
    let Some(ranking) = pipeline
        .registry()
        .builtin(&pipeline.addrs().ranking)
        .and_then(|b| b.as_any().downcast_ref::<RankingContract>())
    else {
        return false;
    };
    !catalogue.is_empty()
        && (0..catalogue.len()).all(|k| {
            let id = &catalogue[(first + k) % catalogue.len()];
            let (Some(item), Ok(trace)) = (graph.get(id), graph.trace_back(id)) else {
                return false;
            };
            std::hint::black_box((
                item.content.len(),
                trace.score,
                graph.children_of(id).len(),
                ranking.ranking(id),
            ));
            true
        })
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median wall time of `reps` calls of `f`, in µs.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            us_since(t)
        })
        .collect();
    stats::median(&samples)
}

/// Per-layer probes on the final node of a single-validator workload:
/// isolated timings taken when the state is largest, plus the registry's
/// own sums `d` over the write phase that node went through, which
/// committed `committed` transactions in blocks that took `block_ms`.
///
/// `spare` holds the next unconsumed writes of the stream (valid against
/// the head); they are admitted, selected and proposed but never
/// imported, so the chain is left as the workload built it.
pub fn probe_node(
    out: &mut Outcome,
    node: &mut ValidatorNode,
    spare: Vec<Transaction>,
    committed: u64,
    block_ms: &[f64],
    d: RegistryDelta,
) {
    let txs = committed.max(1) as f64;
    out.layer("chain.import_us_per_tx", d.import_ns as f64 / 1e3 / txs);
    out.layer("chain.verify_us_per_tx", d.verify_ns as f64 / 1e3 / txs);
    let lookups = (d.sig_hit + d.sig_miss).max(1) as f64;
    out.layer("chain.sigcache_hit_share", d.sig_hit as f64 / lookups);
    out.layer("chain.batch_verified_share", d.batch_txs as f64 / txs);
    for (name, ns) in [
        (
            "core.projection_us_per_tx.supplychain",
            d.proj_supplychain_ns,
        ),
        ("core.projection_us_per_tx.factdb", d.proj_factdb_ns),
        ("core.projection_us_per_tx.identity", d.proj_identity_ns),
        ("core.projection_us_per_tx.headlines", d.proj_headlines_ns),
    ] {
        out.layer(name, ns as f64 / 1e3 / txs);
    }
    let calls = (d.contract_calls + d.contract_failures).max(1) as f64;
    out.layer(
        "contracts.exec_us_per_call",
        d.contract_exec_ns as f64 / 1e3 / calls,
    );
    out.layer(
        "contracts.gas_per_call",
        d.contract_gas as f64 / d.contract_calls.max(1) as f64,
    );
    out.layer(
        "contracts.call_fail_share",
        d.contract_failures as f64 / calls,
    );

    let block_sum_ms: f64 = block_ms.iter().sum();
    out.layer("core.block_commit_us_per_tx", block_sum_ms * 1e3 / txs);
    let tenth = (block_ms.len() / 10).max(1);
    let first = stats::median(&block_ms[..tenth.min(block_ms.len())]);
    let last = stats::median(&block_ms[block_ms.len().saturating_sub(tenth)..]);
    out.layer(
        "chain.block_commit_growth",
        if first > 0.0 { last / first } else { 0.0 },
    );

    let store = node.pipeline().store();
    out.layer(
        "chain.state_root_us",
        median_us(5, || store.head_state().root()),
    );
    out.layer(
        "chain.state_clone_us",
        median_us(5, || store.head_state().clone()),
    );
    out.layer(
        "core.execution_digest_ms",
        median_us(3, || node.execution_digest()) / 1e3,
    );
    out.layer(
        "supplychain.graph_digest_ms",
        median_us(3, || node.pipeline().graph().digest()) / 1e3,
    );
    let t = Instant::now();
    let replay_ok = node.verify_replay().is_ok();
    out.layer("core.verify_replay_s", t.elapsed().as_secs_f64());
    out.check("replay audit reproduces every projection digest", replay_ok);

    if !spare.is_empty() {
        let n = spare.len();
        let accepted = node.submit_batch(spare).accepted;
        let head = node.pipeline().store().head_state();
        out.layer(
            "chain.select_us_per_block",
            median_us(5, || node.mempool().select(head, n)),
        );
        let selected = node.mempool().select(head, n);
        let proposer = Keypair::from_seed(b"tn-benchmark/probe-proposer");
        let store = node.pipeline().store();
        let per_block = median_us(3, || {
            store.propose(&proposer, u64::MAX, selected.clone(), &mut NoExecutor)
        });
        out.layer(
            "chain.propose_us_per_tx",
            per_block / selected.len().max(1) as f64,
        );
        out.check(
            "probe: spare writes admit and select",
            accepted == n && selected.len() == n,
        );
    }
}

/// The registry sums [`probe_node`] needs, already reduced to the
/// measured phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct RegistryDelta {
    pub import_ns: u64,
    pub verify_ns: u64,
    pub sig_hit: u64,
    pub sig_miss: u64,
    pub batch_txs: u64,
    pub proj_supplychain_ns: u64,
    pub proj_factdb_ns: u64,
    pub proj_identity_ns: u64,
    pub proj_headlines_ns: u64,
    pub contract_exec_ns: u64,
    pub contract_calls: u64,
    pub contract_failures: u64,
    pub contract_gas: u64,
}

/// Reads the registry of `$node` and subtracts `$base` (a snapshot of the
/// same registry taken earlier). A macro because the snapshot type lives
/// in a crate the benchmark does not name.
macro_rules! registry_delta {
    ($node:expr, $base:expr) => {{
        let snap = $node.metrics_snapshot().delta($base);
        let c = |name: &str| snap.counter(name).unwrap_or(0);
        // Sum (ns) of a span histogram.
        let h = |name: &str| snap.histogram(name).map_or(0u64, |h| h.sum);
        $crate::common::RegistryDelta {
            import_ns: h("chain.import_ns"),
            verify_ns: h("chain.verify_ns"),
            sig_hit: c("chain.sigcache.hit"),
            sig_miss: c("chain.sigcache.miss"),
            batch_txs: c("chain.verify.batch.txs"),
            proj_supplychain_ns: h("chain.projection.supplychain.apply_ns"),
            proj_factdb_ns: h("chain.projection.factdb.apply_ns"),
            proj_identity_ns: h("chain.projection.identity.apply_ns"),
            proj_headlines_ns: h("chain.projection.headlines.apply_ns"),
            contract_exec_ns: h("contracts.exec_ns"),
            contract_calls: c("contracts.calls"),
            contract_failures: c("contracts.call_failures"),
            contract_gas: c("contracts.gas_total"),
        }
    }};
}
pub(crate) use registry_delta;

#[cfg(test)]
mod tests {
    use super::*;

    fn round(block_ms: f64, wall_s: f64) -> Round {
        Round {
            setup_s: 0.5,
            writes: WritePhase {
                commit_ms: vec![block_ms * 2.0; 4],
                block_ms: vec![block_ms, block_ms, 10.0 * block_ms],
                block_txs: vec![2, 2, 0],
                committed: 4,
                failed_receipts: 0,
                wall_s,
            },
            reads: ReadPhase {
                us: vec![1.0, 3.0, 5.0],
                failed: 0,
            },
            sync_tps: 100.0,
            recover_ms: 7.0,
        }
    }

    #[test]
    fn a_run_reports_the_mean_over_rounds_of_each_rounds_value() {
        let mut rounds = Rounds::default();
        rounds.push(round(1.0, 1.0), false);
        rounds.push(round(3.0, 4.0), true);
        assert_eq!(rounds.len(), 2);
        let e = rounds.end_to_end();
        // A round's block figure is its median (the 10× block is ignored);
        // the run's is the mean of the rounds' figures.
        assert_eq!(e.block_commit_p50_ms, 2.0);
        assert_eq!(e.commit_p50_ms, 4.0);
        assert_eq!(e.commit_tps, (4.0 / 1.0 + 4.0 / 4.0) / 2.0);
        assert_eq!((e.setup_s, e.sync_tps, e.recover_ms), (0.5, 100.0, 7.0));
        assert_eq!(e.read_p50_us, 3.0);
        // Pooled samples feed the tails and the whole-run counts.
        assert_eq!(rounds.all.committed, 8);
        assert_eq!(rounds.all.block_ms.len(), 6);
        assert_eq!(rounds.reads.us.len(), 6);
        // The recorded round is priced against the bare one.
        assert_eq!(rounds.recorded_committed, 4);
        assert_eq!(rounds.recorded_wall_s(), 4.0);
        assert_eq!(rounds.trace_overhead_pct(), 300.0);
    }

    #[test]
    fn rounds_stop_with_the_clock_and_alternate_when_traced() {
        let ctx = |seconds, traced| Ctx {
            seed: 1,
            seconds,
            traced,
            scratch: PathBuf::new(),
        };
        let long_ago = Instant::now() - std::time::Duration::from_secs(60);
        assert!(ctx(5.0, false).another_round(0, long_ago));
        assert!(ctx(5.0, false).another_round(MIN_ROUNDS - 1, long_ago));
        assert!(!ctx(5.0, false).another_round(MIN_ROUNDS, long_ago));
        assert!(ctx(5.0, false).another_round(1000, Instant::now()));
        assert!(!ctx(5.0, false).records(1));
        let traced = ctx(5.0, true);
        assert_eq!(
            [0, 1, 2, 3].map(|i| traced.records(i)),
            [false, true, false, true]
        );
    }
}
