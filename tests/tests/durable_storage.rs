//! Durable-storage integration: backend equivalence and crash safety.
//!
//! Two guarantees the storage engine must deliver end to end:
//!
//! 1. **Backend transparency** — a replica on the disk backend is
//!    observably identical to one on the in-memory backend: same head
//!    ids, head state roots, execution digests, projection digests, and
//!    per-height blocks and receipts.
//! 2. **Torn-write safety** — after a crash that tears the WAL tail,
//!    flips bits mid-WAL, or damages a sealed segment, reopening
//!    recovers a verified *prefix* of the chain whose execution digest
//!    matches a never-crashed replica at the same height — never a
//!    corrupted or diverged state.
//! 3. **Reopen is repeatable** — a replica can be reopened any number of
//!    times at any chain length; recovery never consumes the records the
//!    next recovery needs.

use std::fs::OpenOptions;
use std::path::PathBuf;

use tn_chain::codec::Encodable;
use tn_core::platform::PlatformConfig;
use tn_node::validator::ValidatorNode;
use tn_node::workload::scripted_workload;
use tn_storage::BackendKind;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("tn-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A tight storage config: small retention window so eviction and
/// finalization actually run, frequent checkpoints, per-append fsync so
/// "what was acknowledged" is unambiguous in crash tests.
fn tight_storage(config: &mut PlatformConfig) {
    config.storage.retention = 4;
    config.storage.checkpoint_interval = 4;
    config.storage.segment_blocks = 4;
    config.storage.fsync_interval = 1;
}

/// Real platform traffic (identities, newsrooms, sourced news, ratings,
/// a fact admission) chunked into consensus-sized batches.
fn workload_batches() -> Vec<Vec<Vec<u8>>> {
    scripted_workload(&PlatformConfig::default())
        .chunks(3)
        .map(|txs| txs.iter().map(|tx| tx.to_bytes()).collect())
        .collect()
}

#[test]
fn mem_and_disk_backends_are_observably_identical() {
    let tmp = TempDir::new("equiv");
    let mut mem_cfg = PlatformConfig::default();
    tight_storage(&mut mem_cfg);
    let mut disk_cfg = mem_cfg.clone();
    disk_cfg.storage.backend = BackendKind::Disk(tmp.0.clone());

    let mut mem = ValidatorNode::new(0, &mem_cfg);
    let mut disk = ValidatorNode::new(1, &disk_cfg);
    for batch in workload_batches() {
        let a = mem.apply_committed_batch(&batch).expect("mem batch");
        let b = disk.apply_committed_batch(&batch).expect("disk batch");
        assert_eq!(a, b, "batch outcomes diverge at height {}", a.height);
        assert_eq!(mem.head_id(), disk.head_id());
        assert_eq!(mem.execution_digest(), disk.execution_digest());
        assert_eq!(mem.projection_digests(), disk.projection_digests());
    }
    assert!(
        mem.height() > mem_cfg.storage.retention + 2,
        "the workload must outgrow the retention window for this test to bite"
    );

    // Every height — including those evicted from the in-memory window —
    // answers identically from both backends.
    let ms = mem.pipeline().store();
    let ds = disk.pipeline().store();
    let mut ids = ms.canonical_chain();
    ids.reverse(); // genesis first
    for (h, id) in ids.iter().enumerate() {
        let mb = ms.block(id).expect("mem serves every canonical block");
        let db = ds.block(id).expect("disk serves every canonical block");
        assert_eq!(mb.header.height, h as u64);
        assert_eq!(mb.id(), db.id(), "height {h}");
        assert_eq!(
            ms.receipts_of(id).expect("mem receipts"),
            ds.receipts_of(id).expect("disk receipts"),
            "receipts at height {h}"
        );
    }
    assert_eq!(ms.head_state().root(), ds.head_state().root());
    assert_eq!(mem.execution_digest(), disk.execution_digest());
    assert_eq!(mem.projection_digests(), disk.projection_digests());
}

/// Crashes a disk-backed node after `batches` deterministic one-tx
/// batches and returns (storage dir config, batches, height at crash).
fn crashed_node(tmp: &TempDir, n: u8) -> (PlatformConfig, Vec<Vec<Vec<u8>>>, u64) {
    let mut config = PlatformConfig::default();
    tight_storage(&mut config);
    config.storage.backend = BackendKind::Disk(tmp.0.clone());
    let batches: Vec<Vec<Vec<u8>>> = (0..n).map(|i| vec![vec![i, 0x5a, 0xa5]]).collect();
    let mut node = ValidatorNode::new(0, &config);
    for b in &batches {
        node.apply_committed_batch(b).expect("batch");
    }
    let height = node.height();
    drop(node); // crash: no shutdown checkpoint
    (config, batches, height)
}

/// Asserts that reopening from `config` yields a replica whose state is
/// byte-equivalent to a never-crashed in-memory replica advanced by the
/// same batch prefix, then returns the recovered height.
fn assert_recovers_to_matching_prefix(
    config: &PlatformConfig,
    batches: &[Vec<Vec<u8>>],
    max_height: u64,
) -> u64 {
    let (recovered, _replayed) = ValidatorNode::reopen(0, config).expect("reopen");
    let height = recovered.height();
    assert!(height <= max_height);
    // The recovered chain must be an honest prefix: a fresh replica fed
    // the same first `height - 1` batches reports the same digest
    // (height 1 is the bootstrap anchor, so batch i lands at height i+2).
    let mut witness = ValidatorNode::new(9, &PlatformConfig::default());
    for b in &batches[..(height - 1) as usize] {
        witness.apply_committed_batch(b).expect("witness batch");
    }
    assert_eq!(
        recovered.execution_digest(),
        witness.execution_digest(),
        "recovered replica diverged from the never-crashed prefix at height {height}"
    );
    recovered
        .verify_replay()
        .expect("replay audit passes after recovery");
    height
}

#[test]
fn truncated_wal_tail_recovers_the_durable_prefix() {
    let tmp = TempDir::new("torn-tail");
    let (config, batches, crash_height) = crashed_node(&tmp, 9);
    // Tear the last WAL frame mid-write.
    let wal = tmp.0.join("wal.log");
    let len = std::fs::metadata(&wal).expect("wal exists").len();
    OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal")
        .set_len(len - 7)
        .expect("truncate");
    let height = assert_recovers_to_matching_prefix(&config, &batches, crash_height - 1);
    assert!(height >= 1, "at minimum the genesis prefix survives");
}

#[test]
fn bit_flipped_wal_frame_recovers_the_prefix_before_it() {
    let tmp = TempDir::new("bit-flip");
    let (config, batches, crash_height) = crashed_node(&tmp, 9);
    // Flip one byte ~60% into the WAL: the CRC framing must stop the
    // scan there, and recovery must fall back to a checkpoint at or
    // below the surviving prefix.
    let wal = tmp.0.join("wal.log");
    let mut data = std::fs::read(&wal).expect("read wal");
    let at = data.len() * 3 / 5;
    data[at] ^= 0xff;
    std::fs::write(&wal, &data).expect("write wal");
    let height = assert_recovers_to_matching_prefix(&config, &batches, crash_height - 1);
    assert!(height >= 1);
}

#[test]
fn damaged_sealed_segment_is_detected_on_read_not_served() {
    let tmp = TempDir::new("bad-segment");
    // Enough blocks that several segments seal (retention 4, segment 4):
    // 14 batches -> height 15, finalized to 11, segments 0-3, 4-7, 8-11.
    let (config, batches, crash_height) = crashed_node(&tmp, 14);
    let seg = tmp.0.join("segments").join("seg-0000000008.seg");
    let mut data = std::fs::read(&seg).expect("sealed segment exists");
    let at = data.len() / 2;
    data[at] ^= 0xff;
    std::fs::write(&seg, &data).expect("write segment");

    // Recovery is checkpoint + WAL tail by design — it never re-reads
    // sealed history, so it still reaches the full height with the
    // correct state (the newest checkpoint postdates the damage).
    let (recovered, replayed) = ValidatorNode::reopen(0, &config).expect("reopen");
    assert_eq!(recovered.height(), crash_height);
    assert!(replayed <= config.storage.checkpoint_interval);
    let mut witness = ValidatorNode::new(9, &PlatformConfig::default());
    for b in &batches {
        witness.apply_committed_batch(b).expect("witness batch");
    }
    assert_eq!(recovered.execution_digest(), witness.execution_digest());

    // But the damaged range is never *served*: the CRC-framed segment
    // read fails closed, so the query answers None instead of returning
    // corrupt bytes. Exactly one frame was hit; its neighbors survive.
    let store = recovered.pipeline().store();
    let mut ids = store.canonical_chain();
    ids.reverse(); // genesis first
    let unreadable: Vec<u64> = (8..=11)
        .filter(|&h| store.block(&ids[h as usize]).is_none())
        .collect();
    assert_eq!(
        unreadable.len(),
        1,
        "one flipped byte must poison exactly one framed record, got {unreadable:?}"
    );
    for h in [7u64, 12] {
        assert!(
            store.block(&ids[h as usize]).is_some(),
            "height {h} outside the damaged segment must still be served"
        );
    }
}

#[test]
fn reopen_is_repeatable_at_every_chain_length() {
    // Default storage (retention 64, 32-block segments, checkpoints
    // every 16): below ~96 blocks nothing is sealed before the first
    // reopen, so the genesis record lives only in the WAL and recovery
    // itself performs the first seal. Every reopen must leave the store
    // reopenable, with the exact pre-crash digest.
    for n in [8u8, 31, 32, 40, 64, 90, 100] {
        let tmp = TempDir::new(&format!("reopen-{n}"));
        let mut config = PlatformConfig::default();
        config.storage.backend = BackendKind::Disk(tmp.0.clone());
        let mut node = ValidatorNode::new(0, &config);
        for i in 0..n {
            node.apply_committed_batch(&[vec![i, 0x5a, 0xa5]])
                .expect("batch");
        }
        let (height, digest) = (node.height(), node.execution_digest());
        drop(node); // crash: no shutdown checkpoint
        let reopen = |attempt: u32, height: u64, digest| {
            let (reopened, _) = ValidatorNode::reopen(0, &config)
                .unwrap_or_else(|e| panic!("{n} blocks, reopen #{attempt}: {e}"));
            assert_eq!(reopened.height(), height, "{n} blocks, reopen #{attempt}");
            assert_eq!(
                reopened.execution_digest(),
                digest,
                "{n} blocks, reopen #{attempt}"
            );
            reopened
        };
        reopen(1, height, digest);
        reopen(2, height, digest);
        // A reopened replica keeps growing: the seals that follow must
        // not lose anything the next reopen reads either.
        let mut node = reopen(3, height, digest);
        for i in n..n + 120 {
            node.apply_committed_batch(&[vec![i, 0x5a, 0xa5]])
                .expect("batch after reopen");
        }
        let (height, digest) = (node.height(), node.execution_digest());
        drop(node);
        reopen(4, height, digest);
    }
}

#[test]
fn damaged_newest_checkpoint_reopens_from_the_next_older_one() {
    let tmp = TempDir::new("bad-checkpoint");
    let (config, batches, crash_height) = crashed_node(&tmp, 14);
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(tmp.0.join("snapshots"))
        .expect("snapshot directory")
        .map(|e| e.expect("snapshot entry").path())
        .collect();
    snaps.sort();
    let [.., older, newest] = &snaps[..] else {
        panic!("two checkpoints at least, got {snaps:?}");
    };
    let height_of = |path: &PathBuf| -> u64 {
        let stem = path.file_stem().expect("file stem").to_string_lossy();
        stem.parse().expect("checkpoint files are named by height")
    };
    let (older, newest) = (height_of(older), height_of(newest));
    assert!(older < newest && newest < crash_height);

    // Flip one byte inside the newest checkpoint's frame.
    let path = &snaps[snaps.len() - 1];
    let mut data = std::fs::read(path).expect("read checkpoint");
    let at = data.len() / 2;
    data[at] ^= 0xff;
    std::fs::write(path, &data).expect("write checkpoint");

    // Recovery passes over it: it replays the tail past the older
    // checkpoint and reaches the full height with the never-crashed
    // replica's digest.
    let (recovered, replayed) = ValidatorNode::reopen(0, &config).expect("reopen");
    assert_eq!(recovered.height(), crash_height);
    assert_eq!(replayed, crash_height - older);
    let mut witness = ValidatorNode::new(9, &PlatformConfig::default());
    for b in &batches {
        witness.apply_committed_batch(b).expect("witness batch");
    }
    assert_eq!(recovered.execution_digest(), witness.execution_digest());
}
