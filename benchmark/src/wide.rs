//! `wide_state`: transfers to fresh addresses grow the account table by
//! one entry per transaction. The chain spans the whole run — state size
//! is the point — and every round extends it by ten blocks, after which a
//! follower state-syncs the new blocks and a replica restarts.

use std::time::Instant;

use tn_chain::prelude::*;
use tn_node::ValidatorNode;

use crate::common::{
    apply_setup, ms_since, probe_node, recover_once, registry_delta, sync_once, us_since, Ctx,
    Outcome, ReadPhase, Round, Rounds, WritePhase, MIN_ROUNDS,
};
use crate::inputs::{wide_state, Rng, WideInputs};
use crate::spans::Recorder;

/// Transactions per block.
pub const WIDE_BLOCK: usize = 128;
/// Blocks per round.
pub const ROUND_BLOCKS: usize = 10;
/// Rounds per `--seconds` second. The work of this workload is fixed by
/// its size, not by the clock (the state a round meets must not depend on
/// how fast the rounds before it ran). A round takes 0.9 s on the
/// recording machine when the state is small and 0.085 s more with every
/// round before it, so the 15 rounds of a 26-second run take ~23 s.
const ROUNDS_PER_SECOND: f64 = 0.58;
/// Account-page reads served after every block.
const READS_PER_BLOCK: usize = 24;
/// Balances looked up per account-page read.
const PAGE: usize = 16;

fn boot(inputs: &WideInputs) -> ValidatorNode {
    let mut node = ValidatorNode::new(0, &inputs.config);
    apply_setup(&mut node, &inputs.setup);
    node
}

/// One round's write phase, without the gateway: admit a block's worth of
/// transfers, cut the block, then serve account pages over the accounts
/// created so far (every one must hold exactly its one token). `created`
/// counts the accounts the rounds before this one made; `first_block` is
/// the index of this round's first block in the run.
fn drive(
    node: &mut ValidatorNode,
    inputs: &WideInputs,
    transfers: &[Transaction],
    created: usize,
    first_block: usize,
    rng: &mut Rng,
    rec: &mut Recorder,
) -> (WritePhase, ReadPhase, u64) {
    let mut phase = WritePhase::default();
    let mut reads = ReadPhase::default();
    let mut rejected = 0u64;
    let mut created = created;
    let chunks: Vec<Vec<Transaction>> = transfers.chunks(WIDE_BLOCK).map(<[_]>::to_vec).collect();
    let t0 = Instant::now();
    for (b, chunk) in chunks.into_iter().enumerate() {
        let b = (first_block + b) as u32;
        let root = rec.enter("driver.cycle", b);
        let n = chunk.len();
        let handed = Instant::now();
        let span = rec.enter("node.submit_batch", b);
        let ingest = node.submit_batch(chunk);
        rec.exit(span);
        rejected += ingest.rejected as u64;
        let span = rec.enter("node.produce_block", b);
        let t = Instant::now();
        let outcome = node
            .produce_block_from_mempool(WIDE_BLOCK)
            .expect("own proposals import");
        phase.block_ms.push(ms_since(t));
        rec.exit(span);
        let latency = ms_since(handed);
        if let Some(outcome) = outcome {
            phase.block_txs.push(outcome.included);
            phase.committed += outcome.included as u64;
            phase.failed_receipts += outcome.failed as u64;
            phase
                .commit_ms
                .extend(std::iter::repeat_n(latency, outcome.included));
        }
        created += n;
        let span = rec.enter("chain.account_reads", b);
        let state = node.pipeline().store().head_state();
        for _ in 0..READS_PER_BLOCK {
            let t = Instant::now();
            let mut sum = 0u64;
            for _ in 0..PAGE {
                sum += state.balance(&inputs.recipients[rng.below(created)]);
            }
            reads.us.push(us_since(t));
            if sum != PAGE as u64 {
                reads.failed += 1;
            }
        }
        rec.exit(span);
        rec.exit(root);
    }
    phase.wall_s = t0.elapsed().as_secs_f64();
    (phase, reads, rejected)
}

/// Runs `wide_state`.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let spare = if ctx.traced { WIDE_BLOCK } else { 0 };
    let n_rounds = ((ctx.seconds * ROUNDS_PER_SECOND).round() as usize).max(MIN_ROUNDS);
    let per_round = ROUND_BLOCKS * WIDE_BLOCK;
    let n = n_rounds * per_round;
    let t_gen = Instant::now();
    let mut inputs = wide_state(ctx.seed, n + spare);
    let spare_txs = inputs.transfers.split_off(n);
    let transfers = std::mem::take(&mut inputs.transfers);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let mut node = boot(&inputs);
    let accounts_before = node.pipeline().store().head_state().account_count();
    let base = node.metrics_snapshot();
    // The follower starts empty, so its first sync also imports the
    // setup prefix.
    let mut follower = ValidatorNode::new(1, &inputs.config);
    let mut unsynced = inputs.setup.len() as u64;

    let mut rec = if ctx.traced {
        Recorder::enabled(n_rounds * (4 * ROUND_BLOCKS + 4))
    } else {
        Recorder::disabled()
    };
    let mut rounds = Rounds::default();
    let mut rng = Rng::new(ctx.seed, 0x71de);
    let mut rejected = 0u64;
    let (mut sync_ok, mut recover_ok) = (true, true);
    // Every restart replays the chain as round 0 left it: restarting from
    // the head would make the rounds cost O(rounds²) together.
    let mut restart_from: Option<(Vec<u8>, tn_crypto::Hash256)> = None;
    let mut snapshot_ms = 0.0;
    for round in 0..n_rounds {
        let recorded = ctx.records(round);
        rec.set_recording(recorded);

        let t = Instant::now();
        let throwaway = boot(&inputs);
        let setup_s = t.elapsed().as_secs_f64();
        drop(throwaway);

        let (phase, reads, round_rejected) = drive(
            &mut node,
            &inputs,
            &transfers[round * per_round..(round + 1) * per_round],
            round * per_round,
            round * ROUND_BLOCKS,
            &mut rng,
            &mut rec,
        );
        rejected += round_rejected;

        let target = node.execution_digest();
        unsynced += phase.committed;
        let (sync_tps, ok) = sync_once(&mut follower, &[&node], target, unsynced, round, &mut rec);
        sync_ok &= ok;
        unsynced = 0;

        let (snapshot, restart_target) = restart_from.get_or_insert_with(|| {
            let t = Instant::now();
            let snapshot = node.snapshot();
            snapshot_ms = ms_since(t);
            (snapshot, target)
        });
        let (recover_ms, ok) = recover_once(
            snapshot,
            0,
            &inputs.config,
            *restart_target,
            round,
            &mut rec,
        );
        recover_ok &= ok;

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

    let committed = rounds.all.committed;
    let accounts = node.pipeline().store().head_state().account_count();
    out.check(
        "every transfer committed and created one account",
        committed == n as u64 && accounts == accounts_before + n && rejected == 0,
    );
    out.check("mempool drained", node.mempool().is_empty());
    out.check("catch_up digest equals its source", sync_ok);
    out.check("recover digest equals the pre-restart digest", recover_ok);

    out.e2e = rounds.end_to_end();
    out.attempted = n as u64 + rounds.reads.us.len() as u64 + 2 * n_rounds as u64;
    out.failed = rejected
        + rounds.all.failed_receipts
        + (n as u64 - rejected).saturating_sub(committed)
        + rounds.reads.failed
        + u64::from(!sync_ok)
        + u64::from(!recover_ok);
    out.digest = node.execution_digest().to_hex();
    out.counts = vec![
        ("committed", committed),
        ("accounts", accounts as u64),
        ("blocks", rounds.all.block_ms.len() as u64),
        ("height", node.height()),
    ];

    if ctx.traced {
        out.driver_layers(gen_s, &rounds, &rec, "driver.cycle");
        out.layer(
            "chain.admit_us_per_tx",
            rec.total_ns("node.submit_batch") as f64
                / 1e3
                / rounds.recorded_committed.max(1) as f64,
        );
        out.restart_layers(snapshot_ms);
        let delta = registry_delta!(node, &base);
        probe_node(
            &mut out,
            &mut node,
            spare_txs,
            committed,
            &rounds.all.block_ms,
            delta,
        );
    }
    out.recorder = Some(rec);
    out
}
