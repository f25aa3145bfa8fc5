//! `cluster_pbft4`: the persona stream through a 4-replica PBFT cluster
//! over the seeded network simulator.
//!
//! Every round boots four fresh replicas and puts the same stream through
//! them. Its fault-free write phase drives the three steps of
//! `tn_node::run_pbft_cluster` itself — admission at every replica's
//! mempool, PBFT ordering of the payloads, each replica applying its
//! committed batches — because only then can each block-commit call be
//! timed from outside. The failover phase (once, in traced runs) hands
//! the crash schedule to `run_pbft_cluster` whole, which also exercises
//! snapshot recovery and catch-up and returns the cluster verdict.
//!
//! Network: 10-tick base delay + up to 5 ticks of jitter per message, no
//! loss, one request injected every 5 ticks. Ticks are simulator time;
//! wall-clock figures here are processor time only.

use std::time::Instant;

use tn_chain::prelude::*;
use tn_consensus::{order_payloads_pbft_faulted, CrashFault, FaultPlan};
use tn_node::validator::encode_payloads;
use tn_node::{run_pbft_cluster, ClusterConfig, ClusterVerdict, ValidatorNode};

use crate::common::{
    ms_since, recover_once, registry_delta, seed_articles, serve_page, sync_once, us_since, Ctx,
    Outcome, ReadPhase, Round, Rounds, WritePhase,
};
use crate::inputs::{engine_config, persona, writes_of, Rng, Zipf};
use crate::spans::Recorder;

/// Client writes per round; the setup prefix goes through consensus in
/// front of them. One round is about a second of work.
pub const ROUND_WRITES: usize = 160;
/// Client writes of the failover phase at full size: the outage then
/// lasts [`MIN_OUTAGE_TICKS`]. With 500 writes, and so a 1 250-tick
/// outage, seed 21 ends in 1 668 view changes and no agreed digest — one
/// more robustness finding, which this phase stays clear of.
const FAILOVER_WRITES: usize = 300;
/// Reads served from replica 0 after each batch the last replica
/// applies, so they are spread over the phase like every other
/// workload's reads.
const READS_PER_BATCH: usize = 2;
/// Shortest outage of the crashed primary, in ticks. It has to outlast
/// the 600-tick view timeout: a primary that returns while the view
/// change is still in flight leaves the cluster diverged today, and the
/// benchmark wants a fault the cluster is specified to survive.
const MIN_OUTAGE_TICKS: u64 = 1000;

fn boot(config: &ClusterConfig) -> Vec<ValidatorNode> {
    (0..config.n_validators)
        .map(|id| ValidatorNode::new(id, &config.platform))
        .collect()
}

/// What one fault-free write phase reports beside its samples.
#[derive(Debug, Clone, Copy)]
struct CleanRun {
    committed: u64,
    /// `apply_committed_batch` calls, all replicas together.
    applies: usize,
    admit_s: f64,
    order_s: f64,
    apply_s: f64,
    batches: usize,
    delivered: u64,
    dropped: u64,
    last_commit: u64,
    agreed: bool,
}

/// The fault-free phase: admit everywhere, order, apply everywhere. The
/// whole stream is handed over at once, so a transaction's commit latency
/// runs from the start of the phase to the moment the last replica
/// applied the batch holding it. While the last replica applies, replica
/// 0 — already caught up — serves Zipf-chosen article reads.
fn drive_clean(
    nodes: &mut [ValidatorNode],
    config: &ClusterConfig,
    txs: &[Transaction],
    articles: usize,
    seed: u64,
    rec: &mut Recorder,
) -> (CleanRun, WritePhase, ReadPhase) {
    let payloads = encode_payloads(txs);
    let mut phase = WritePhase::default();
    let mut reads = ReadPhase::default();
    let zipf = Zipf::new(articles.max(1), 1.0);
    let mut rng = Rng::new(seed, 0xc1);
    let mut catalogue = Vec::new();
    let t0 = Instant::now();
    let root = rec.enter("driver.cluster_run", 0);

    let span = rec.enter("node.admit_all_replicas", 0);
    let mut rejected = 0usize;
    for node in nodes.iter_mut() {
        for tx in txs {
            rejected += usize::from(node.submit(tx.clone()).is_err());
        }
    }
    rec.exit(span);
    let admit_s = t0.elapsed().as_secs_f64();

    let sinks: Vec<_> = nodes.iter().map(ValidatorNode::telemetry_sink).collect();
    let span = rec.enter("consensus.order", 0);
    let t = Instant::now();
    let ordering = order_payloads_pbft_faulted(
        config.n_validators,
        &payloads,
        config.interarrival,
        config.net.clone(),
        config.max_time,
        &config.pbft,
        &FaultPlan::default(),
        &sinks,
        &[],
    )
    .expect("default cluster configuration is valid");
    let order_s = t.elapsed().as_secs_f64();
    rec.exit(span);

    let t_apply = Instant::now();
    let last = nodes.len() - 1;
    for id in 0..nodes.len() {
        if id == last {
            catalogue = seed_articles(&nodes[0], articles);
        }
        for (b, batch) in ordering.views[id].iter().enumerate() {
            let span = rec.enter("node.apply_committed_batch", b as u32);
            let t = Instant::now();
            let outcome = nodes[id]
                .apply_committed_batch(batch)
                .expect("committed batches import");
            phase.block_ms.push(ms_since(t));
            rec.exit(span);
            phase.block_txs.push(outcome.included);
            if id == last {
                phase.committed += outcome.included as u64;
                phase.failed_receipts += outcome.failed as u64;
                let latency = ms_since(t0);
                phase
                    .commit_ms
                    .extend(std::iter::repeat_n(latency, outcome.included));
                let span = rec.enter("supplychain.article_read", b as u32);
                for _ in 0..READS_PER_BATCH {
                    let t = Instant::now();
                    let ok = serve_page(&nodes[0], &catalogue, zipf.sample(&mut rng));
                    reads.us.push(us_since(t));
                    reads.failed += u64::from(!ok);
                }
                rec.exit(span);
            }
        }
    }
    let apply_s = t_apply.elapsed().as_secs_f64();
    rec.exit(root);
    phase.wall_s = t0.elapsed().as_secs_f64();
    let digest = nodes[0].execution_digest();
    let clean = CleanRun {
        committed: phase.committed,
        applies: phase.block_ms.len(),
        admit_s,
        order_s,
        apply_s,
        batches: ordering.views.first().map_or(0, Vec::len),
        delivered: ordering.delivered,
        dropped: ordering.dropped,
        last_commit: ordering.last_commit,
        agreed: rejected == 0 && nodes.iter().all(|n| n.execution_digest() == digest),
    };
    (clean, phase, reads)
}

/// Runs `cluster_pbft4`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut config = ClusterConfig {
        platform: engine_config(),
        ..ClusterConfig::default()
    };
    config.net.seed = ctx.seed;
    // A traced run generates the longer stream its failover phase needs;
    // the rounds take the first `ROUND_WRITES` writes of it.
    let failover_writes = ((FAILOVER_WRITES as f64 * ctx.seconds / crate::RUN_SECONDS) as usize)
        .clamp(40, FAILOVER_WRITES);
    let generated = if ctx.traced {
        ROUND_WRITES.max(failover_writes)
    } else {
        ROUND_WRITES
    };
    let t_gen = Instant::now();
    let wl = persona(&config.platform, ctx.seed, generated, 0);
    // Setup prefix and stream both go through consensus, as one stream.
    let mut all_txs = wl.setup.clone();
    all_txs.extend(writes_of(&wl.requests));
    let txs = &all_txs[..wl.setup.len() + ROUND_WRITES];
    let gen_s = t_gen.elapsed().as_secs_f64();

    let mut rec = if ctx.traced {
        Recorder::enabled((3 * txs.len() + 16) * ctx.recorded_rounds_at_most())
    } else {
        Recorder::disabled()
    };
    let mut rounds = Rounds::default();
    let mut first: Option<(u64, usize, u64, u64, tn_crypto::Hash256)> = None;
    let mut last: Option<(Vec<ValidatorNode>, CleanRun, crate::common::RegistryDelta)> = None;
    let (mut agreed, mut complete, mut same, mut catalogue_ok) = (true, true, true, true);
    let (mut sync_ok, mut recover_ok) = (true, true);
    let mut snapshot_ms = 0.0;
    let started = Instant::now();
    while ctx.another_round(rounds.len(), started) {
        let round = rounds.len();
        let recorded = ctx.records(round);
        rec.set_recording(recorded);
        drop(last.take());

        let t = Instant::now();
        let mut nodes = boot(&config);
        let setup_s = t.elapsed().as_secs_f64();
        let base = ctx.traced.then(|| nodes[0].metrics_snapshot());

        let (clean, writes, reads) =
            drive_clean(&mut nodes, &config, txs, wl.articles, ctx.seed, &mut rec);
        agreed &= clean.agreed;
        complete &= clean.committed == txs.len() as u64;
        catalogue_ok &= seed_articles(&nodes[0], wl.articles).len() == wl.articles;
        let delta = base.map(|base| registry_delta!(nodes[0], &base));

        let target = nodes[0].execution_digest();
        let seen = (
            clean.committed,
            clean.batches,
            clean.last_commit,
            clean.delivered,
            target,
        );
        same &= *first.get_or_insert(seen) == seen;

        let peers: Vec<&ValidatorNode> = nodes.iter().collect();
        let mut fresh = ValidatorNode::new(config.n_validators, &config.platform);
        let (sync_tps, ok) =
            sync_once(&mut fresh, &peers, target, clean.committed, round, &mut rec);
        sync_ok &= ok;
        drop(fresh);
        let t = Instant::now();
        let snapshot = nodes[0].snapshot();
        snapshot_ms = ms_since(t);
        let (recover_ms, ok) =
            recover_once(&snapshot, 0, &config.platform, target, round, &mut rec);
        recover_ok &= ok;

        out.failed += (txs.len() as u64).saturating_sub(clean.committed);
        out.attempted += txs.len() as u64 + 2;
        if let Some(delta) = delta {
            last = Some((nodes, clean, delta));
        }
        rounds.push(
            Round {
                setup_s,
                writes,
                reads,
                sync_tps,
                recover_ms,
            },
            recorded,
        );
    }

    out.check(
        "clean phase: one agreed digest on all four replicas",
        agreed,
    );
    out.check(
        "clean phase: every injected transaction committed",
        complete,
    );
    out.check("setup prefix built the seed catalogue", catalogue_ok);
    out.check(
        "every round of the same stream: same batches, ticks, messages and digest",
        same,
    );
    out.check("catch_up digest equals its source", sync_ok);
    out.check("recover digest equals the pre-restart digest", recover_ok);

    out.e2e = rounds.end_to_end();
    out.attempted += rounds.reads.us.len() as u64;
    out.failed += rounds.all.failed_receipts
        + rounds.reads.failed
        + u64::from(!sync_ok)
        + u64::from(!recover_ok);
    if let Some((committed, batches, last_commit, delivered, digest)) = first {
        out.digest = digest.to_hex();
        out.counts = vec![
            ("committed", committed),
            ("batches", batches as u64),
            ("converge_ticks", last_commit),
            ("delivered_messages", delivered),
        ];
    }

    if let Some((mut nodes, clean, delta)) = last {
        let committed = clean.committed.max(1) as f64;
        out.driver_layers(gen_s, &rounds, &rec, "driver.cluster_run");
        out.layer("node.admit_all_replicas_s", clean.admit_s);
        out.layer(
            "chain.admit_us_per_tx",
            clean.admit_s * 1e6 / (committed * config.n_validators as f64),
        );
        out.layer("consensus.order_wall_s", clean.order_s);
        out.layer(
            "node.apply_batch_us_per_tx",
            clean.apply_s * 1e6 / (committed * config.n_validators as f64),
        );
        out.layer(
            "node.apply_batch_us_per_block",
            clean.apply_s * 1e6 / clean.applies.max(1) as f64,
        );
        out.layer(
            "consensus.msgs_per_commit",
            clean.delivered as f64 / committed,
        );
        out.layer(
            "consensus.ops_per_batch",
            committed / clean.batches.max(1) as f64,
        );
        out.layer("consensus.dropped_msgs", clean.dropped as f64);
        out.layer("consensus.converge_ticks", clean.last_commit as f64);
        if let Some(h) = nodes[0]
            .metrics_snapshot()
            .histogram("pbft.request_latency_ticks")
        {
            out.layer(
                "consensus.request_latency_p50_ticks",
                h.quantile(0.50) as f64,
            );
            out.layer(
                "consensus.request_latency_p99_ticks",
                h.quantile(0.99) as f64,
            );
        }
        out.restart_layers(snapshot_ms);
        crate::common::probe_node(
            &mut out,
            &mut nodes[0],
            Vec::new(),
            clean.committed,
            // The last round's block times are the tail of the pool.
            &rounds.all.block_ms[rounds.all.block_ms.len() - clean.applies..],
            delta,
        );
        drop(nodes);
        rec.set_recording(true);
        let failover_txs = &all_txs[..wl.setup.len() + failover_writes.min(generated)];
        failover(
            ctx,
            &config,
            wl.setup.len(),
            failover_txs,
            &mut out,
            &mut rec,
        );
    }
    out.recorder = Some(rec);
    out
}

/// Failover phase: replica 0 — the primary of view 0 — crashes when a
/// quarter of the client writes have been injected and stays down while
/// half of them arrive, at least [`MIN_OUTAGE_TICKS`] (view change,
/// snapshot recovery, catch-up); the setup prefix is through before the
/// crash. Requests keep arriving on
/// schedule while no primary exists. The crash is part of the workload's
/// input, so requests it loses are reported as `node.lost_writes`, not as
/// failed operations; the operation that can fail is the cluster
/// converging on one digest afterwards.
fn failover(
    ctx: &Ctx,
    config: &ClusterConfig,
    setup_len: usize,
    txs: &[Transaction],
    out: &mut Outcome,
    rec: &mut Recorder,
) {
    let writes = txs.len() - setup_len;
    // Request `i` is injected at tick `10 + i × interarrival`.
    let inject_tick = |i: usize| 10 + i as u64 * config.interarrival;
    let mut faulted = config.clone();
    faulted.net.seed = ctx.seed;
    let at = inject_tick(setup_len + writes / 4);
    let outage = (writes as u64 / 2 * config.interarrival).max(MIN_OUTAGE_TICKS);
    faulted.faults = FaultPlan {
        crashes: vec![CrashFault {
            replica: 0,
            at,
            restart_at: Some(at + outage),
        }],
        ..FaultPlan::default()
    };
    let span = rec.enter("node.run_pbft_cluster_failover", 0);
    let run = run_pbft_cluster(&faulted, txs).expect("faulted cluster run completes");
    rec.exit(span);
    out.attempted += 1;
    let converged = run.verdict == ClusterVerdict::Converged && run.agreed_digest().is_some();
    out.failed += u64::from(!converged);
    out.check(
        "failover phase: verdict Converged with one agreed digest",
        converged,
    );
    let included = run.reports.iter().map(|r| r.included).max().unwrap_or(0);
    out.layer(
        "node.lost_writes",
        txs.len().saturating_sub(included) as f64,
    );
    out.layer("consensus.failover_ticks", run.last_commit as f64);
    let view_changes = run
        .reports
        .iter()
        .map(|r| r.metrics.counter("pbft.view_changes").unwrap_or(0))
        .max()
        .unwrap_or(0);
    out.layer("consensus.view_changes", view_changes as f64);
    out.counts.push(("failover_ticks", run.last_commit));
    out.counts.push(("failover_included", included as u64));
    // The same writes ordered fault-free give the baseline tick count.
    let fault_free = order_payloads_pbft_faulted(
        config.n_validators,
        &encode_payloads(txs),
        config.interarrival,
        faulted.net.clone(),
        config.max_time,
        &config.pbft,
        &FaultPlan::default(),
        &[],
        &[],
    )
    .expect("default cluster configuration is valid");
    out.layer(
        "consensus.failover_extra_ticks",
        run.last_commit as f64 - fault_free.last_commit as f64,
    );
}
