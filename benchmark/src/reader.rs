//! `reader_mix`: the `Platform` facade extends deep provenance chains
//! and rates them, and readers query the projections the write path
//! mutates between every two blocks. Every round opens a fresh platform
//! and takes every author's chain to its full depth once.

use std::time::Instant;

use tn_core::platform::{Platform, PlatformConfig};
use tn_core::roles::Role;
use tn_crypto::{Hash256, Keypair};
use tn_node::ValidatorNode;
use tn_supplychain::PropagationOp;

use crate::common::{
    ms_since, recover_once, us_since, Ctx, Outcome, ReadPhase, Round, Rounds, WritePhase,
};
use crate::inputs::{engine_config, Rng, Zipf};
use crate::spans::Recorder;
use crate::stats;

/// Transactions per block.
pub const READER_BLOCK: usize = 64;
/// Blocks per round: two publishes to one rating, so nine blocks hold the
/// 384 publishes that take all eight chains to [`MAX_DEPTH`].
pub const ROUND_BLOCKS: usize = 9;
/// Reads served after every block (one read per write).
pub const READS_PER_BLOCK: usize = 64;
/// Provenance chains restart from a fresh fact citation at this depth.
pub const MAX_DEPTH: usize = 48;
const AUTHORS: usize = 8;
const RATERS: usize = 16;
const TOPIC: &str = "general";

struct Keys {
    publisher: Keypair,
    authors: Vec<Keypair>,
    raters: Vec<Keypair>,
}

fn keys(seed: u64) -> Keys {
    let key = |role: &str, i: usize| {
        Keypair::from_seed(format!("tn-benchmark/reader/{seed}/{role}/{i}").as_bytes())
    };
    Keys {
        publisher: key("publisher", 0),
        authors: (0..AUTHORS).map(|i| key("author", i)).collect(),
        raters: (0..RATERS).map(|i| key("rater", i)).collect(),
    }
}

/// A platform with its newsroom open and every account registered.
struct Ready {
    platform: Platform,
    room: u64,
    fact_roots: Vec<Hash256>,
}

fn boot(config: &PlatformConfig, keys: &Keys) -> Ready {
    let mut p = Platform::new(config.clone());
    p.register_identity(&keys.publisher, "Benchmark Press", &[Role::Publisher])
        .expect("register publisher");
    for (i, k) in keys.authors.iter().enumerate() {
        p.register_identity(
            k,
            &format!("Author {i}"),
            &[Role::ContentCreator, Role::Consumer],
        )
        .expect("register author");
    }
    for (i, k) in keys.raters.iter().enumerate() {
        p.register_identity(k, &format!("Rater {i}"), &[Role::Consumer])
            .expect("register rater");
    }
    p.produce_block().expect("identity block");
    p.create_publisher_platform(&keys.publisher, "Benchmark Press")
        .expect("create platform");
    p.produce_block().expect("platform block");
    let pid = p
        .newsrooms()
        .find_platform("Benchmark Press")
        .expect("platform registered");
    p.create_news_room(&keys.publisher, pid, TOPIC)
        .expect("create room");
    p.produce_block().expect("room block");
    let room = p.newsrooms().rooms().next().expect("room created").0;
    for k in &keys.authors {
        p.authorize_journalist(&keys.publisher, room, &k.address())
            .expect("authorize author");
    }
    p.produce_block().expect("authorize block");
    let fact_roots = p
        .graph()
        .iter()
        .filter(|i| i.is_fact_root)
        .map(|i| i.id)
        .collect();
    Ready {
        platform: p,
        room,
        fact_roots,
    }
}

/// One planned write.
enum Op {
    /// `author` publishes; `fresh` starts a new chain by citing a fact
    /// record, `mix` relays the chain head and mixes in a fact record as a
    /// second parent.
    Publish {
        author: usize,
        fresh: bool,
        mix: bool,
    },
    /// `rater` scores the item at recency rank `rank`.
    Rate {
        rater: usize,
        rank: usize,
        score: u8,
    },
}

/// Seeded plan: two publishes to one rating, the authors taking turns (so
/// the depth every chain reaches is fixed by the size, not by the seed);
/// 15 % of non-fresh publishes mix a fact record into the relay. Parents
/// are always the author's own
/// chain head or a fact record: within one block only a single account's
/// transactions keep their order, so a parent by another author could be
/// indexed after its child.
fn plan(seed: u64, n: usize) -> Vec<Op> {
    let mut rng = Rng::new(seed, 0x4ead);
    let zipf = Zipf::new(4096, 1.0);
    let mut depth = [0usize; AUTHORS];
    let mut publishes = 0usize;
    (0..n)
        .map(|i| {
            if i % 3 == 2 {
                Op::Rate {
                    rater: rng.below(RATERS),
                    rank: zipf.sample(&mut rng),
                    score: 10 + rng.below(90) as u8,
                }
            } else {
                let author = publishes % AUTHORS;
                publishes += 1;
                let fresh = depth[author] == 0 || depth[author] >= MAX_DEPTH;
                depth[author] = if fresh { 1 } else { depth[author] + 1 };
                Op::Publish {
                    author,
                    fresh,
                    mix: !fresh && rng.unit() < 0.15,
                }
            }
        })
        .collect()
}

/// An item the workload published, with what the readers may check.
struct Published {
    id: Hash256,
    author: usize,
    /// Hops to the fact root along the author's own chain; `None` once a
    /// mix made a second path possible.
    depth: Option<usize>,
    /// Position in the author's current chain (1 = the citing item),
    /// whether or not a mix has added shortcuts to it.
    chain_pos: usize,
}

struct Drive {
    phase: WritePhase,
    reads: ReadPhase,
    items: Vec<Published>,
    publish_us: Vec<f64>,
    offered: u64,
}

fn drive(ready: &mut Ready, keys: &Keys, ops: &[Op], seed: u64, rec: &mut Recorder) -> Drive {
    let p = &mut ready.platform;
    let mut out = Drive {
        phase: WritePhase::default(),
        reads: ReadPhase::default(),
        items: Vec::with_capacity(ops.len()),
        publish_us: Vec::new(),
        offered: 0,
    };
    // Per author: index of the chain head in `items`.
    let mut heads: [Option<usize>; AUTHORS] = [None; AUTHORS];
    let mut rng = Rng::new(seed, 0x5eed);
    let read_zipf = Zipf::new(4096, 1.0);
    let mut handed: Vec<Instant> = Vec::with_capacity(READER_BLOCK);
    let mut block = 0u32;
    let t0 = Instant::now();
    let mut root = rec.enter("driver.cycle", block);
    for (i, op) in ops.iter().enumerate() {
        let now = Instant::now();
        match op {
            Op::Publish { author, fresh, mix } => {
                let fact = ready.fact_roots[rng.below(ready.fact_roots.len())];
                let (parents, depth, chain_pos, base) = match (*fresh, heads[*author]) {
                    (false, Some(head)) => {
                        let head_item = &out.items[head];
                        let mut parents = vec![(head_item.id, PropagationOp::Relay)];
                        let mut depth = head_item.depth.map(|d| d + 1);
                        if *mix {
                            parents.push((fact, PropagationOp::Mix));
                            depth = None;
                        }
                        (parents, depth, head_item.chain_pos + 1, head)
                    }
                    _ => (vec![(fact, PropagationOp::Cite)], Some(1), 1, i),
                };
                // Content stays close to the chain's first report so each
                // hop is a light modification, as relays are.
                let content = format!(
                    "Report {base} of author {author}: the committee approved the amendment \
                     with a clear majority and the minister welcomed it. Update {i}."
                );
                let span = rec.enter("core.publish_news", block);
                let id = p
                    .publish_news(&keys.authors[*author], ready.room, TOPIC, &content, parents)
                    .expect("authorized author publishes");
                rec.exit(span);
                out.publish_us.push(us_since(now));
                heads[*author] = Some(out.items.len());
                out.items.push(Published {
                    id,
                    author: *author,
                    depth,
                    chain_pos,
                });
            }
            Op::Rate { rater, rank, score } => {
                // Ratings before the first publish target a fact root's
                // id, which the contract accepts like any item id.
                let item = match out.items.len() {
                    0 => ready.fact_roots[0],
                    n => out.items[n - 1 - rank % n].id,
                };
                let span = rec.enter("core.submit_rating", block);
                p.submit_rating(&keys.raters[*rater], &item, *score)
                    .expect("verified rater rates");
                rec.exit(span);
            }
        }
        handed.push(now);
        out.offered += 1;
        if handed.len() == READER_BLOCK || i + 1 == ops.len() {
            let span = rec.enter("core.produce_block", block);
            let t = Instant::now();
            let summary = p.produce_block().expect("platform block imports");
            out.phase.block_ms.push(ms_since(t));
            rec.exit(span);
            out.phase.block_txs.push(summary.included);
            out.phase.committed += summary.included as u64;
            out.phase.failed_receipts += summary.failed as u64;
            out.phase
                .commit_ms
                .extend(handed.drain(..).map(ms_since).take(summary.included));
            serve_reads(
                p,
                &out.items,
                &read_zipf,
                &mut rng,
                block,
                &mut out.reads,
                rec,
            );
            rec.exit(root);
            block += 1;
            root = rec.enter("driver.cycle", block);
        }
    }
    rec.exit(root);
    out.phase.wall_s = t0.elapsed().as_secs_f64();
    out
}

/// One burst of reads over Zipf-chosen items, newest most popular:
/// 85 % `rank_item`, 10 % `origin_of` / `distortion_culprit_of`,
/// 5 % `suggest_experts`.
fn serve_reads(
    p: &Platform,
    items: &[Published],
    zipf: &Zipf,
    rng: &mut Rng,
    block: u32,
    reads: &mut ReadPhase,
    rec: &mut Recorder,
) {
    if items.is_empty() {
        return;
    }
    for _ in 0..READS_PER_BLOCK {
        let item = &items[items.len() - 1 - zipf.sample(rng) % items.len()];
        let kind = rng.below(100);
        let (name, ok);
        let t = Instant::now();
        if kind < 85 {
            name = "supplychain.rank_item";
            let span = rec.enter(name, block);
            ok = p.rank_item(&item.id).is_ok_and(|r| r.reaches_root);
            rec.exit(span);
        } else if kind < 90 {
            name = "supplychain.origin_of";
            let span = rec.enter(name, block);
            ok = p.origin_of(&item.id).is_ok_and(|o| o.is_some());
            rec.exit(span);
        } else if kind < 95 {
            name = "supplychain.distortion_culprit_of";
            let span = rec.enter(name, block);
            ok = p.distortion_culprit_of(&item.id).is_ok();
            rec.exit(span);
        } else {
            name = "supplychain.suggest_experts";
            let span = rec.enter(name, block);
            ok = !p.suggest_experts(TOPIC, 5).is_empty();
            rec.exit(span);
        }
        reads.us.push(us_since(t));
        reads.failed += u64::from(!ok);
        std::hint::black_box(name);
    }
}

/// A fresh validator imports the platform's chain block by block through
/// the state-sync entry point; returns tx/s and digest equality.
fn sync_from_platform(p: &Platform, config: &PlatformConfig, id: usize) -> (f64, bool) {
    let store = p.store();
    let mut ids = store.canonical_chain();
    ids.reverse();
    let mut node = ValidatorNode::new(id, config);
    let blocks: Vec<_> = ids
        .iter()
        .filter_map(|b| store.block(b))
        .filter(|b| b.header.height > node.height())
        .collect();
    let txs: u64 = blocks.iter().map(|b| b.transactions.len() as u64).sum();
    let t = Instant::now();
    let mut ok = true;
    for b in blocks {
        ok &= node.apply_synced_block(b).is_ok();
    }
    let secs = t.elapsed().as_secs_f64();
    (
        txs as f64 / secs.max(1e-9),
        ok && node.execution_digest() == p.execution_digest(),
    )
}

/// Runs `reader_mix`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let config = engine_config();
    let t_gen = Instant::now();
    let keys = keys(ctx.seed);
    let ops = plan(ctx.seed, ROUND_BLOCKS * READER_BLOCK);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let spans_per_round = 2 * ops.len() + ROUND_BLOCKS * (READS_PER_BLOCK + 4) + 8;
    let mut rec = if ctx.traced {
        Recorder::enabled(spans_per_round * ctx.recorded_rounds_at_most())
    } else {
        Recorder::disabled()
    };
    let mut rounds = Rounds::default();
    let mut publish_us = Vec::new();
    let mut first: Option<(u64, usize, usize, u64, Hash256)> = None;
    let mut last: Option<(Ready, Vec<Published>)> = None;
    let (mut roots_ok, mut complete, mut traces_ok, mut same) = (true, true, true, true);
    let (mut sync_ok, mut recover_ok) = (true, true);
    let mut snapshot_ms = 0.0;
    let started = Instant::now();
    while ctx.another_round(rounds.len(), started) {
        let round = rounds.len();
        let recorded = ctx.records(round);
        rec.set_recording(recorded);
        drop(last.take());

        let t = Instant::now();
        let mut ready = boot(&config, &keys);
        let setup_s = t.elapsed().as_secs_f64();
        roots_ok &= !ready.fact_roots.is_empty();

        let mut run = drive(&mut ready, &keys, &ops, ctx.seed, &mut rec);
        let p = &ready.platform;
        complete &= run.phase.committed == run.offered && run.phase.failed_receipts == 0;
        // Every single-path item traces to its fact root in exactly its
        // chain depth; mixed items must still reach a root.
        for item in &run.items {
            let trace = p.trace_item(&item.id);
            traces_ok &= trace
                .is_ok_and(|t| t.reaches_root && item.depth.is_none_or(|d| t.distance == Some(d)));
            traces_ok &= p.origin_of(&item.id).is_ok_and(|o| {
                item.depth.is_none() || o == Some(keys.authors[item.author].address())
            });
        }

        let target = p.execution_digest();
        let seen = (
            run.phase.committed,
            run.items.len(),
            run.phase.block_ms.len(),
            p.height(),
            target,
        );
        same &= *first.get_or_insert(seen) == seen;

        let span = rec.enter("node.apply_synced_blocks", round as u32);
        let (sync_tps, ok) = sync_from_platform(p, &config, 1);
        rec.exit(span);
        sync_ok &= ok;
        let t = Instant::now();
        let snapshot = p.store().snapshot();
        snapshot_ms = ms_since(t);
        let (recover_ms, ok) = recover_once(&snapshot, 0, &config, target, round, &mut rec);
        recover_ok &= ok;

        out.attempted += run.offered + 2;
        out.failed += run.offered.saturating_sub(run.phase.committed);
        publish_us.append(&mut run.publish_us);
        rounds.push(
            Round {
                setup_s,
                writes: run.phase,
                reads: run.reads,
                sync_tps,
                recover_ms,
            },
            recorded,
        );
        if ctx.traced {
            last = Some((ready, run.items));
        }
    }

    out.check("fact roots seeded", roots_ok);
    out.check("every publish and rating committed", complete);
    out.check(
        "reader answers: reaches_root, distance = chain depth, origin",
        traces_ok,
    );
    out.check(
        "every round of the same plan: same counts, same execution digest",
        same,
    );
    out.check("synced replica digest equals the platform's", sync_ok);
    out.check("recover digest equals the pre-restart digest", recover_ok);

    out.e2e = rounds.end_to_end();
    out.attempted += rounds.reads.us.len() as u64;
    out.failed += rounds.all.failed_receipts
        + rounds.reads.failed
        + u64::from(!sync_ok)
        + u64::from(!recover_ok);
    if let Some((committed, items, blocks, height, digest)) = first {
        out.digest = digest.to_hex();
        out.counts = vec![
            ("committed", committed),
            ("items", items as u64),
            ("blocks", blocks as u64),
            ("reads", (blocks * READS_PER_BLOCK) as u64),
            ("height", height),
        ];
    }

    if let Some((ready, items)) = last {
        out.driver_layers(gen_s, &rounds, &rec, "driver.cycle");
        out.layer("core.platform_publish_us", stats::median(&publish_us));
        let block_sum_ms: f64 = rounds.all.block_ms.iter().sum();
        out.layer(
            "core.block_commit_us_per_tx",
            block_sum_ms * 1e3 / rounds.all.committed.max(1) as f64,
        );
        out.restart_layers(snapshot_ms);
        supplychain_probes(&ready.platform, &items, ctx.micro_iters(), &mut out);
    }
    out.recorder = Some(rec);
    out
}

/// Isolated read timings on the final graph: warm-up, then `iters` calls
/// each, median, on the newest items at positions 8 and 48 of their
/// author's chain.
fn supplychain_probes(p: &Platform, items: &[Published], iters: usize, out: &mut Outcome) {
    let at_depth = |want: usize| items.iter().rev().find(|i| i.chain_pos == want);
    let time = |f: &dyn Fn()| {
        for _ in 0..iters / 10 {
            f();
        }
        crate::common::median_us(iters, f)
    };
    if let Some(item) = at_depth(8) {
        out.layer(
            "supplychain.rank_item_us_p50.depth8",
            time(&|| drop(std::hint::black_box(p.rank_item(&item.id)))),
        );
    }
    if let Some(item) = at_depth(MAX_DEPTH) {
        out.layer(
            "supplychain.rank_item_us_p50.depth48",
            time(&|| drop(std::hint::black_box(p.rank_item(&item.id)))),
        );
        out.layer(
            "supplychain.trace_back_us_p50",
            time(&|| drop(std::hint::black_box(p.trace_item(&item.id)))),
        );
        out.layer(
            "supplychain.culprit_us_p50",
            time(&|| drop(std::hint::black_box(p.distortion_culprit_of(&item.id)))),
        );
    }
    out.layer(
        "supplychain.experts_ms",
        crate::common::median_us(15, || p.suggest_experts(TOPIC, 5)) / 1e3,
    );
    out.layer(
        "supplychain.graph_digest_ms",
        crate::common::median_us(5, || p.graph().digest()) / 1e3,
    );
    out.layer(
        "core.execution_digest_ms",
        crate::common::median_us(3, || p.execution_digest()) / 1e3,
    );
    let t = Instant::now();
    let replay_ok = p.verify_replay().is_ok();
    out.layer("core.verify_replay_s", t.elapsed().as_secs_f64());
    out.check("replay audit reproduces every projection digest", replay_ok);
}
