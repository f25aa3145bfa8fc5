//! E20: durable storage — restart-proportional recovery and disk-backed
//! import throughput.
//!
//! The disk storage engine (`tn-storage`: CRC-framed WAL segments plus
//! state checkpoints) claims two things worth measuring:
//!
//! 1. **Recovery is proportional to downtime, not chain length.** A
//!    replica reopened from its storage directory restores the newest
//!    state checkpoint and replays only the CRC-framed WAL tail past it.
//!    The kill-and-restart matrix here varies blocks-since-checkpoint
//!    *independently* of chain length and times `ValidatorNode::reopen`:
//!    recovery cost tracks the former and is flat in the latter. Every
//!    cell also asserts the demo's correctness half — the reopened
//!    replica reports the exact pre-crash execution and projection
//!    digests and passes the full ledger-replay audit.
//! 2. **The disk backend stays in the same performance class as the
//!    in-memory backend on the hot import path.** The throughput sweep
//!    commits the same batch stream through `MemBackend` and
//!    `DiskBackend` (at the default group-commit interval and at
//!    fsync-every-append) and reports blocks/s.
//!
//! Full runs write `results/e20.json` plus a repo-root `BENCH_e20.json`
//! perf snapshot; `--quick` is a CI smoke run in a temp dir that asserts
//! the invariants and writes nothing.

use std::time::Instant;

use serde::Serialize;

use tn_bench::scenarios::TempDir;
use tn_bench::table::capture;
use tn_bench::Experiment;
use tn_core::platform::PlatformConfig;
use tn_node::validator::ValidatorNode;
use tn_storage::BackendKind;

/// One kill-and-restart cell: a chain of `chain_blocks`, crashed
/// `since_checkpoint` blocks after its last durable checkpoint.
#[derive(Debug, Serialize)]
struct RecoveryRow {
    /// Chain height at the moment of the crash.
    chain_blocks: u64,
    /// Blocks committed after the last checkpoint (the WAL tail).
    since_checkpoint: u64,
    /// Blocks the reopen actually replayed (must equal the tail).
    replayed: u64,
    /// Wall-clock `ValidatorNode::reopen` time.
    recover_ms: f64,
    /// Reopened replica reports the exact pre-crash execution digest.
    digest_match: bool,
    /// Reopened replica reports the exact pre-crash projection digests.
    projections_match: bool,
    /// Full ledger-replay audit passes on the reopened replica.
    replay_audit: bool,
}

/// One import-throughput cell: the same batch stream through one backend.
#[derive(Debug, Serialize)]
struct ThroughputRow {
    backend: &'static str,
    /// Appends per fsync group commit (0 for the in-memory backend).
    fsync_interval: u64,
    batches: usize,
    import_ms: f64,
    blocks_per_s: f64,
}

/// Opaque four-tx batches: they exercise the full commit path (seal,
/// append, WAL frame, fsync, index) without consuming workload nonces,
/// so every backend sees a byte-identical stream of any length.
fn opaque_batches(n: usize) -> Vec<Vec<Vec<u8>>> {
    (0..n)
        .map(|i| {
            (0..4u8)
                .map(|j| {
                    let mut tx = vec![(i % 251) as u8, j, 0x5a, 0xa5];
                    tx.extend(std::iter::repeat_n((i % 7) as u8, 96));
                    tx
                })
                .collect()
        })
        .collect()
}

fn disk_config(dir: &TempDir, checkpoint_interval: u64, fsync_interval: u64) -> PlatformConfig {
    let mut config = PlatformConfig::default();
    config.storage.backend = BackendKind::Disk(dir.0.clone());
    config.storage.checkpoint_interval = checkpoint_interval;
    config.storage.fsync_interval = fsync_interval;
    config
}

/// Builds a disk-backed chain of `chain_blocks` batches whose last
/// checkpoint sits exactly `since_checkpoint` blocks before the head,
/// crashes it, then times the reopen. Asserts the kill-and-restart
/// demo's invariants: exact digest recovery and tail-bounded replay.
fn recovery_cell(chain_blocks: u64, since_checkpoint: u64) -> RecoveryRow {
    assert!(since_checkpoint < chain_blocks);
    let tmp = TempDir::new(&format!("rec-{chain_blocks}-{since_checkpoint}"));
    // Auto-checkpointing off (interval 0): the one explicit checkpoint
    // below pins blocks-since-checkpoint precisely.
    let config = disk_config(&tmp, 0, 8);
    let batches = opaque_batches(chain_blocks as usize);
    let mut node = ValidatorNode::new(0, &config);
    let (head, tail) = batches.split_at((chain_blocks - since_checkpoint) as usize);
    for b in head {
        node.apply_committed_batch(b).expect("batch");
    }
    node.checkpoint().expect("checkpoint");
    for b in tail {
        node.apply_committed_batch(b).expect("batch");
    }
    let pre_digest = node.execution_digest();
    let pre_projections = node.projection_digests();
    let pre_height = node.height();
    drop(node); // crash: no shutdown checkpoint

    let t0 = Instant::now();
    let (recovered, replayed) = ValidatorNode::reopen(0, &config).expect("reopen");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_eq!(recovered.height(), pre_height, "full height recovered");
    assert_eq!(
        replayed, since_checkpoint,
        "reopen must replay exactly the WAL tail past the checkpoint"
    );
    RecoveryRow {
        chain_blocks,
        since_checkpoint,
        replayed,
        recover_ms,
        digest_match: recovered.execution_digest() == pre_digest,
        projections_match: recovered.projection_digests() == pre_projections,
        replay_audit: recovered.verify_replay().is_ok(),
    }
}

/// Times importing `batches` through one backend configuration.
fn throughput_cell(
    backend: &'static str,
    fsync_interval: u64,
    batches: &[Vec<Vec<u8>>],
) -> ThroughputRow {
    let tmp = TempDir::new(&format!("tput-{backend}-{fsync_interval}"));
    let config = match backend {
        "mem" => PlatformConfig::default(),
        _ => disk_config(&tmp, 16, fsync_interval),
    };
    let mut node = ValidatorNode::new(0, &config);
    let t0 = Instant::now();
    for b in batches {
        node.apply_committed_batch(b).expect("batch");
    }
    let import_ms = t0.elapsed().as_secs_f64() * 1e3;
    ThroughputRow {
        backend,
        fsync_interval: if backend == "mem" { 0 } else { fsync_interval },
        batches: batches.len(),
        import_ms,
        blocks_per_s: batches.len() as f64 / (import_ms / 1e3),
    }
}

fn main() {
    let exp = Experiment::start(
        "E20",
        "Durable storage: restart-proportional recovery + disk import throughput",
    );

    // Recovery matrix: vary the WAL tail at fixed chain length, then
    // repeat one tail size at a longer chain. Proportionality shows up
    // as recover_ms growing with `since_checkpoint` and staying flat
    // across `chain_blocks`.
    let cells: &[(u64, u64)] = if exp.quick {
        &[(24, 0), (24, 8), (48, 8)]
    } else {
        &[(96, 0), (96, 8), (96, 24), (96, 48), (192, 8), (192, 48)]
    };
    let mut recovery = Vec::new();
    for &(chain, tail) in cells {
        let row = recovery_cell(chain, tail);
        assert!(row.digest_match, "kill-and-restart digest mismatch");
        assert!(row.projections_match, "projection digest mismatch");
        assert!(row.replay_audit, "replay audit failed after recovery");
        recovery.push(row);
    }
    exp.report(
        "E20",
        "Durable storage: kill-and-restart recovery matrix (disk backend)",
        &recovery,
    );

    // Proportionality check on the measurements themselves: at the same
    // tail size, doubling the chain must not double recovery time. Kept
    // loose (3x over an 8ms jitter floor: quick-mode recoveries are a
    // few ms, where one scheduler hiccup can triple the reading); the
    // recorded rows carry the real signal.
    let ms_at = |chain: u64, tail: u64| {
        recovery
            .iter()
            .find(|r| r.chain_blocks == chain && r.since_checkpoint == tail)
            .map(|r| r.recover_ms)
    };
    let (short, long) = if exp.quick {
        (ms_at(24, 8), ms_at(48, 8))
    } else {
        (ms_at(96, 48), ms_at(192, 48))
    };
    if let (Some(short), Some(long)) = (short, long) {
        assert!(
            long < short.max(8.0) * 3.0,
            "recovery scaled with chain length ({short:.1}ms -> {long:.1}ms), not with the tail"
        );
    }

    // Backend import throughput on an identical batch stream.
    let stream = opaque_batches(if exp.quick { 32 } else { 256 });
    let throughput: Vec<ThroughputRow> = [("mem", 0u64), ("disk", 8), ("disk", 1)]
        .into_iter()
        .map(|(backend, fsync)| throughput_cell(backend, fsync, &stream))
        .collect();
    println!();
    exp.table(&throughput);

    // `BENCH_e20.json`: the recovery matrix plus the backend throughput
    // sweep, in one perf snapshot under the `docs/BENCHMARKS.md` contract.
    exp.snapshot(
        "e20_durable_storage",
        vec![
            ("recovery", capture(&recovery)),
            ("throughput", capture(&throughput)),
        ],
    );
}
