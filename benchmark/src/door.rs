//! `door_single`: the persona stream through the gateway into one
//! validator, as a closed loop of full blocks.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use tn_chain::prelude::*;
use tn_core::platform::PlatformConfig;
use tn_crypto::Hash256;
use tn_gateway::{AdmitVerdict, Gateway, Request, RequestKind, Workload};
use tn_node::ValidatorNode;

use crate::common::{
    apply_setup, ms_since, probe_node, recover_once, registry_delta, seed_articles, serve_page,
    sync_once, us_since, Ctx, Outcome, ReadPhase, Round, Rounds, WritePhase,
};
use crate::inputs::{engine_config, persona, split_spare};
use crate::spans::Recorder;
use crate::stats;

/// Transactions per block: every cycle offers exactly this many writes,
/// so every block is full.
pub const DOOR_BLOCK: usize = 128;
/// Full blocks per round. A round replays the same ten-block stream on a
/// freshly booted validator, which knows nothing of the rounds before it.
pub const ROUND_BLOCKS: usize = 10;

/// A booted single validator behind its gateway, set-up prefix applied.
struct Door {
    node: ValidatorNode,
    gw: Gateway,
}

fn boot(config: &PlatformConfig, setup: &[Transaction]) -> Door {
    let mut node = ValidatorNode::new(0, config);
    let mut gw = Gateway::new(&config.gateway).expect("default gateway config is valid");
    gw.set_telemetry(node.telemetry_sink());
    apply_setup(&mut node, setup);
    Door { node, gw }
}

/// What the door counted over one pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct DoorCounts {
    writes_offered: u64,
    shed: u64,
    rejected: u64,
    reads_offered: u64,
    reads_shed: u64,
    backpressured: u64,
    failed_receipts: u64,
}

impl DoorCounts {
    fn add(&mut self, o: &DoorCounts) {
        self.writes_offered += o.writes_offered;
        self.shed += o.shed;
        self.rejected += o.rejected;
        self.reads_offered += o.reads_offered;
        self.reads_shed += o.reads_shed;
        self.backpressured += o.backpressured;
        self.failed_receipts += o.failed_receipts;
    }
}

/// Everything one pass over the stream measured.
#[derive(Debug, Default)]
struct PassResult {
    phase: WritePhase,
    reads: ReadPhase,
    counts: DoorCounts,
    queue_wait_ms: Vec<f64>,
}

/// One pass over the stream: the door, the recorder, and the samples
/// collected so far.
struct Pass<'a> {
    door: &'a mut Door,
    rec: &'a mut Recorder,
    articles: &'a [Hash256],
    t0: Instant,
    /// Hand-off times of admitted writes that are not yet committed,
    /// oldest first; blocks are booked against them in that order.
    pending: VecDeque<Duration>,
    /// How many of `pending` have already been drained into the mempool.
    drained: usize,
    out: PassResult,
}

impl<'a> Pass<'a> {
    fn new(door: &'a mut Door, articles: &'a [Hash256], rec: &'a mut Recorder) -> Pass<'a> {
        Pass {
            door,
            rec,
            articles,
            t0: Instant::now(),
            pending: VecDeque::with_capacity(2 * DOOR_BLOCK),
            drained: 0,
            out: PassResult::default(),
        }
    }

    /// Offers one request; a write's latency clock starts at `handed`.
    fn offer(&mut self, req: Request, handed: Duration, block: u32) {
        let now_ns = self.t0.elapsed().as_nanos() as u64;
        match req.kind {
            RequestKind::Write(tx) => {
                self.out.counts.writes_offered += 1;
                let span = self.rec.enter("gateway.offer", block);
                let verdict = self.door.gw.offer(req.client, *tx, now_ns);
                self.rec.exit(span);
                if verdict == AdmitVerdict::Admitted {
                    self.pending.push_back(handed);
                } else {
                    self.out.counts.shed += 1;
                }
            }
            RequestKind::Read { article } => {
                self.out.counts.reads_offered += 1;
                let t = Instant::now();
                let span = self.rec.enter("gateway.offer_read", block);
                let within_rate = self.door.gw.offer_read(req.client, now_ns);
                self.rec.exit(span);
                if !within_rate {
                    self.out.counts.reads_shed += 1;
                    return;
                }
                let span = self.rec.enter("supplychain.article_read", block);
                let ok = serve_page(&self.door.node, self.articles, article);
                self.rec.exit(span);
                self.out.reads.us.push(us_since(t));
                self.out.reads.failed += u64::from(!ok);
            }
        }
    }

    /// Drains the lanes into the mempool.
    fn drain(&mut self, block: u32) {
        let span = self.rec.enter("gateway.drain_into", block);
        let drain_at = self.t0.elapsed();
        let report = self.door.gw.drain_into(&mut self.door.node);
        self.rec.exit(span);
        self.out.counts.rejected += report.rejected as u64;
        self.out.counts.backpressured += u64::from(report.backpressured);
        let upto = (self.drained + report.ingested).min(self.pending.len());
        self.out.queue_wait_ms.extend(
            self.pending
                .range(self.drained..upto)
                .map(|handed| drain_at.saturating_sub(*handed).as_secs_f64() * 1e3),
        );
        self.drained = upto;
    }

    /// Commits one block and books its transactions against the oldest
    /// pending hand-off times. Returns false when no transaction was ready.
    fn cut_block(&mut self, cap: usize, block: u32) -> bool {
        let span = self.rec.enter("node.produce_block", block);
        let t = Instant::now();
        let outcome = self
            .door
            .node
            .produce_block_from_mempool(cap)
            .expect("own proposals import");
        let took = ms_since(t);
        self.rec.exit(span);
        let Some(outcome) = outcome else {
            return false;
        };
        let done = self.t0.elapsed();
        let phase = &mut self.out.phase;
        phase.block_ms.push(took);
        phase.block_txs.push(outcome.included);
        phase.committed += outcome.included as u64;
        self.out.counts.failed_receipts += outcome.failed as u64;
        let booked = outcome.included.min(self.pending.len());
        phase.commit_ms.extend(
            self.pending
                .drain(..booked)
                .map(|handed| done.saturating_sub(handed).as_secs_f64() * 1e3),
        );
        self.drained = self.drained.saturating_sub(booked);
        true
    }

    fn finish(mut self) -> PassResult {
        self.out.phase.wall_s = self.t0.elapsed().as_secs_f64();
        self.out
    }
}

/// Splits the stream into cycles of exactly `block` writes (reads ride in
/// the cycle they precede); a trailing partial cycle is returned apart.
fn cycles_of(requests: Vec<Request>, block: usize) -> (Vec<Vec<Request>>, Vec<Request>) {
    let mut cycles = Vec::new();
    let mut current = Vec::new();
    let mut writes = 0;
    for req in requests {
        let is_write = matches!(req.kind, RequestKind::Write(_));
        current.push(req);
        if is_write {
            writes += 1;
            if writes == block {
                cycles.push(std::mem::take(&mut current));
                writes = 0;
            }
        }
    }
    (cycles, current)
}

/// Closed loop: offer one cycle, drain, cut a block; the next cycle
/// starts when the block call returns.
fn drive_closed(
    door: &mut Door,
    cycles: Vec<Vec<Request>>,
    articles: &[Hash256],
    rec: &mut Recorder,
) -> PassResult {
    let mut pass = Pass::new(door, articles, rec);
    for (b, cycle) in cycles.into_iter().enumerate() {
        let b = b as u32;
        let root = pass.rec.enter("driver.cycle", b);
        for req in cycle {
            let handed = pass.t0.elapsed();
            pass.offer(req, handed, b);
        }
        pass.drain(b);
        pass.cut_block(DOOR_BLOCK, b);
        pass.rec.exit(root);
    }
    pass.finish()
}

/// What the last round leaves for the probes of a traced run.
struct LastRound {
    door: Door,
    committed: u64,
    queue_wait_ms: Vec<f64>,
    delta: crate::common::RegistryDelta,
}

/// Runs `door_single`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = engine_config();
    let t_gen = Instant::now();
    // A spare block of writes beyond the measured stream feeds the
    // select/propose probes of a traced run.
    let spare = if ctx.traced { DOOR_BLOCK } else { 0 };
    let writes = ROUND_BLOCKS * DOOR_BLOCK;
    let Workload {
        setup,
        mut requests,
        articles,
        ..
    } = persona(&config, ctx.seed, writes + spare, writes / 3);
    let spare_txs = split_spare(&mut requests, writes);
    let (cycles, tail) = cycles_of(requests, DOOR_BLOCK);
    assert!(tail
        .iter()
        .all(|r| matches!(r.kind, RequestKind::Read { .. })));
    let gen_s = t_gen.elapsed().as_secs_f64();

    let spans_per_round = 2 * cycles.iter().map(Vec::len).sum::<usize>() + 4 * cycles.len() + 8;
    let mut rec = if ctx.traced {
        Recorder::enabled(spans_per_round * ctx.recorded_rounds_at_most())
    } else {
        Recorder::disabled()
    };
    let mut rounds = Rounds::default();
    let mut totals = DoorCounts::default();
    let mut first: Option<(DoorCounts, u64, u64, u64, Hash256)> = None;
    let mut last: Option<LastRound> = None;
    let (mut conserved, mut sampled, mut same, mut catalogue_ok) = (true, true, true, true);
    let (mut sync_ok, mut recover_ok) = (true, true);
    let mut snapshot_ms = 0.0;
    let started = Instant::now();
    while ctx.another_round(rounds.len(), started) {
        let round = rounds.len();
        let recorded = ctx.records(round);
        rec.set_recording(recorded);
        let stream = cycles.clone();
        drop(last.take());

        let t = Instant::now();
        let mut door = boot(&config, &setup);
        let setup_s = t.elapsed().as_secs_f64();
        let catalogue = seed_articles(&door.node, articles);
        catalogue_ok &= catalogue.len() == articles;
        let base = ctx.traced.then(|| door.node.metrics_snapshot());

        let PassResult {
            phase,
            reads,
            counts,
            queue_wait_ms,
        } = drive_closed(&mut door, stream, &catalogue, &mut rec);

        // Door conservation: every offered write has exactly one fate.
        let stats = *door.gw.stats();
        conserved &= stats.offered
            == stats.admitted + stats.shed_rate_limit + stats.shed_queue_full
            && stats.offered == counts.writes_offered
            && stats.admitted == phase.committed + stats.mempool_rejected
            && door.gw.queued() == 0
            && door.node.mempool().is_empty();
        sampled &= phase.commit_ms.len() as u64 == phase.committed;
        let delta = base.map(|base| registry_delta!(door.node, &base));

        let target = door.node.execution_digest();
        let seen = (
            counts,
            phase.committed,
            phase.block_ms.len() as u64,
            door.node.height(),
            target,
        );
        same &= *first.get_or_insert(seen) == seen;

        let chain_txs = setup.len() as u64 + phase.committed;
        let mut fresh = ValidatorNode::new(1, &config);
        let (sync_tps, ok) = sync_once(
            &mut fresh,
            &[&door.node],
            target,
            chain_txs,
            round,
            &mut rec,
        );
        sync_ok &= ok;
        drop(fresh);
        let t = Instant::now();
        let snapshot = door.node.snapshot();
        snapshot_ms = ms_since(t);
        let (recover_ms, ok) = recover_once(&snapshot, 0, &config, target, round, &mut rec);
        recover_ok &= ok;

        totals.add(&counts);
        out.failed +=
            (counts.writes_offered - counts.shed - counts.rejected).saturating_sub(phase.committed);
        if let Some(delta) = delta {
            last = Some(LastRound {
                door,
                committed: phase.committed,
                queue_wait_ms,
                delta,
            });
        }
        rounds.push(
            Round {
                setup_s,
                writes: phase,
                reads,
                sync_tps,
                recover_ms,
            },
            recorded,
        );
    }

    out.check("setup prefix built the seed catalogue", catalogue_ok);
    out.check(
        "door conservation: offered = admitted + shed, admitted = committed + rejected",
        conserved,
    );
    out.check("every committed write has a latency sample", sampled);
    out.check(
        "every round of the same stream: same counts, same execution digest",
        same,
    );
    out.check("catch_up digest equals its source", sync_ok);
    out.check("recover digest equals the pre-restart digest", recover_ok);

    let n = rounds.len() as u64;
    out.e2e = rounds.end_to_end();
    out.attempted = totals.writes_offered + totals.reads_offered + 2 * n;
    out.failed += totals.shed
        + totals.rejected
        + totals.failed_receipts
        + totals.reads_shed
        + rounds.reads.failed
        + u64::from(!sync_ok)
        + u64::from(!recover_ok);
    if let Some((counts, committed, blocks, height, digest)) = first {
        out.digest = digest.to_hex();
        out.counts = vec![
            ("writes_offered", counts.writes_offered),
            ("committed", committed),
            ("reads_offered", counts.reads_offered),
            ("blocks", blocks),
            ("height", height),
        ];
    }

    if let Some(LastRound {
        mut door,
        committed,
        queue_wait_ms,
        delta,
    }) = last
    {
        let txs = rounds.recorded_committed.max(1) as f64;
        out.driver_layers(gen_s, &rounds, &rec, "driver.cycle");
        out.layer(
            "gateway.offer_ns_per_req",
            rec.total_ns("gateway.offer") as f64 / rec.count("gateway.offer").max(1) as f64,
        );
        out.layer("gateway.queue_wait_p50_ms", stats::median(&queue_wait_ms));
        out.layer(
            "gateway.shed_share",
            totals.shed as f64 / totals.writes_offered.max(1) as f64,
        );
        out.layer("gateway.backpressure_ticks", totals.backpressured as f64);
        // Admission runs inside drain_into; the drain's own share is
        // measured apart (micro::gateway_drain_self) and is ~0.1 % of it.
        out.layer(
            "chain.admit_us_per_tx",
            rec.total_ns("gateway.drain_into") as f64 / 1e3 / txs,
        );
        out.restart_layers(snapshot_ms);
        probe_node(
            &mut out,
            &mut door.node,
            spare_txs,
            committed,
            // The last round's block times are the tail of the pool.
            &rounds.all.block_ms[rounds.all.block_ms.len() - ROUND_BLOCKS..],
            delta,
        );
    }
    out.recorder = Some(rec);
    out
}
