//! The on-disk backend: CRC-framed WAL, sealed segments, checkpoints.
//!
//! ## Layout (under the storage directory)
//!
//! ```text
//! wal.log                  CRC-framed BlockRecords not yet sealed
//! segments/seg-NNNNNNNNNN.seg   sealed canonical blocks, contiguous heights
//! segments/seg-NNNNNNNNNN.idx   per-segment offset index (rebuildable)
//! snapshots/NNNNNNNNNN.snap     checkpoint blobs, one per height
//! ```
//!
//! ## Commit protocol
//!
//! Every append goes to the WAL as a `[len u32][crc32 u32][payload]` frame;
//! fsyncs are batched every `fsync_interval` appends (`flush` forces one).
//! When the chain layer finalizes a height the record stays in the WAL
//! until a full segment's worth of finalized blocks accumulates; the
//! segment is then written tmp-first, fsynced and renamed, and the WAL is
//! rewritten without the sealed (and dead fork) records. Sealing indexes
//! nothing: a block is its record, found by height through the segment's
//! offset sidecar and by id through a map rebuilt from the sidecars.
//! Checkpoints and segment files are only ever created whole (tmp file,
//! fsync, rename), so a crash leaves either the old or the new file, never
//! a torn one. The WAL is the only file that can tear; `open` scans it and
//! truncates at the first invalid frame, which restores exactly the
//! acknowledged durable prefix.
//!
//! ## Recovery invariants
//!
//! - Sealed segments cover contiguous heights `first..=sealed`; the WAL
//!   holds everything above `sealed` (canonical tail and fork blocks).
//! - Finalization state between `sealed` and the chain layer's eviction
//!   frontier is not persisted; the chain layer re-finalizes that gap
//!   after replay (the records are still in the WAL).

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tn_telemetry::TelemetrySink;

use crate::record::{crc32, put_u64, BlockRecord, Key, Reader};
use crate::{Checkpoint, Storage, StorageConfig, StorageError};

const MAX_FRAME: usize = 1 << 30;

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The `[len u32][crc32 u32]` header of the frame `data` starts with, or
/// `None` when fewer than eight bytes are left.
fn frame_header(data: &[u8]) -> Option<(usize, u32)> {
    let mut r = Reader::new(data);
    Some((r.u32().ok()? as usize, r.u32().ok()?))
}

/// Scans CRC frames from `data`, stopping at the first torn or corrupt
/// frame. Returns the decoded payloads with their frame offsets and the
/// length of the valid prefix.
fn scan_frames(data: &[u8]) -> (Vec<(u64, Vec<u8>)>, u64) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while let Some((len, crc)) = data.get(pos..).and_then(frame_header) {
        let payload = data.get(pos + 8..).and_then(|rest| rest.get(..len));
        let Some(payload) = payload.filter(|p| len <= MAX_FRAME && crc32(p) == crc) else {
            break;
        };
        out.push((pos as u64, payload.to_vec()));
        pos += 8 + len;
    }
    (out, pos as u64)
}

fn read_file(path: &Path) -> Result<Vec<u8>, StorageError> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Writes `bytes` to `path` atomically: tmp file, fsync, rename, dir fsync.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        File::open(parent)?.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Segments
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SegEntry {
    id: Key,
    /// Offset of the frame start within the segment file.
    offset: u64,
    /// Payload length (frame is 8 bytes longer).
    len: u64,
}

#[derive(Debug)]
struct Segment {
    path: PathBuf,
    entries: BTreeMap<u64, SegEntry>,
}

fn seg_path(dir: &Path, start: u64) -> PathBuf {
    dir.join("segments").join(format!("seg-{start:010}.seg"))
}

fn idx_path(dir: &Path, start: u64) -> PathBuf {
    dir.join("segments").join(format!("seg-{start:010}.idx"))
}

fn encode_idx_entry(height: u64, e: &SegEntry) -> Vec<u8> {
    let mut p = Vec::with_capacity(56);
    put_u64(&mut p, height);
    p.extend_from_slice(&e.id);
    put_u64(&mut p, e.offset);
    put_u64(&mut p, e.len);
    p
}

fn decode_idx_entry(payload: &[u8]) -> Result<(u64, SegEntry), StorageError> {
    let mut r = Reader::new(payload);
    let height = r.u64().map_err(bad)?;
    let id = r.key().map_err(bad)?;
    let offset = r.u64().map_err(bad)?;
    let len = r.u64().map_err(bad)?;
    r.expect_end().map_err(bad)?;
    Ok((height, SegEntry { id, offset, len }))
}

fn bad(e: crate::record::DecodeError) -> StorageError {
    StorageError::Corrupt(e.to_string())
}

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

/// On-disk storage backend. See the module docs for the file formats and
/// commit protocol.
#[derive(Debug)]
pub struct DiskBackend {
    dir: PathBuf,
    segment_blocks: u64,
    fsync_interval: u64,

    wal_file: File,
    /// In-memory copies of every record currently live in the WAL, in
    /// append order (canonical tail, pending-finalized, and fork blocks).
    live: Vec<BlockRecord>,
    live_ids: HashSet<Key>,
    /// Finalized-but-unsealed heights in order, and their ids.
    pending: Vec<(u64, Key)>,
    pending_ids: HashSet<Key>,

    segments: BTreeMap<u64, Segment>,
    /// id → height for sealed blocks.
    by_id: HashMap<Key, u64>,
    /// Finalized height range: `first..=frontier` (both 0 when none).
    first: u64,
    frontier: u64,

    /// Heights of the stored checkpoint files (blobs stay on disk and
    /// are read, and checked, only when asked for).
    checkpoints: BTreeSet<u64>,

    appends_since_sync: u64,
    /// WAL records restored by the last `open`, reported through telemetry
    /// once a sink is attached.
    recovered_records: u64,
    telemetry: TelemetrySink,
}

impl DiskBackend {
    /// Initializes a fresh store in `dir` (created if absent; must not
    /// already contain files).
    ///
    /// # Errors
    ///
    /// [`StorageError::Invalid`] when `dir` is non-empty,
    /// [`StorageError::Io`] on filesystem failure.
    pub(crate) fn create(dir: &Path, cfg: &StorageConfig) -> Result<Self, StorageError> {
        if dir.exists() && fs::read_dir(dir)?.next().is_some() {
            return Err(StorageError::Invalid(format!(
                "refusing to initialize non-empty directory {}",
                dir.display()
            )));
        }
        fs::create_dir_all(dir.join("segments"))?;
        fs::create_dir_all(dir.join("snapshots"))?;
        let wal_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("wal.log"))?;
        Ok(DiskBackend {
            dir: dir.to_path_buf(),
            segment_blocks: cfg.segment_blocks.max(1),
            fsync_interval: cfg.fsync_interval.max(1),
            wal_file,
            live: Vec::new(),
            live_ids: HashSet::new(),
            pending: Vec::new(),
            pending_ids: HashSet::new(),
            segments: BTreeMap::new(),
            by_id: HashMap::new(),
            first: 0,
            frontier: 0,
            checkpoints: BTreeSet::new(),
            appends_since_sync: 0,
            recovered_records: 0,
            telemetry: TelemetrySink::disabled(),
        })
    }

    /// Opens an existing store, recovering from any crash-interrupted
    /// write: the WAL is truncated at its first invalid frame and segments
    /// with missing or corrupt offset indexes are rescanned.
    ///
    /// # Errors
    ///
    /// [`StorageError::Invalid`] when `dir` is not a storage directory,
    /// [`StorageError::Io`] on filesystem failure.
    pub fn open(dir: &Path, cfg: &StorageConfig) -> Result<Self, StorageError> {
        if !dir.join("wal.log").exists() {
            return Err(StorageError::Invalid(format!(
                "{} is not a storage directory",
                dir.display()
            )));
        }
        // Segments: trust the offset index when it validates, rescan the
        // segment otherwise. Drop any segment that does not chain
        // contiguously onto the previous one (possible only after
        // out-of-band damage).
        let mut segments = BTreeMap::new();
        let seg_dir = dir.join("segments");
        let mut starts = Vec::new();
        for entry in fs::read_dir(&seg_dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(start) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                starts.push(start);
            }
        }
        starts.sort_unstable();
        let mut expected = None::<u64>;
        let mut first = 0u64;
        let mut sealed = 0u64;
        let mut by_id = HashMap::new();
        for start in starts {
            if let Some(exp) = expected {
                if start != exp {
                    break;
                }
            }
            let seg = load_segment(dir, start)?;
            let (Some((&lo, _)), Some((&hi, _))) =
                (seg.entries.first_key_value(), seg.entries.last_key_value())
            else {
                break;
            };
            if lo != start || seg.entries.len() as u64 != hi - lo + 1 {
                break; // torn segment: keep only history before it
            }
            for (&h, e) in &seg.entries {
                by_id.insert(e.id, h);
            }
            if segments.is_empty() {
                first = lo;
            }
            sealed = hi;
            expected = Some(hi + 1);
            segments.insert(start, seg);
        }

        // WAL: valid prefix, truncate the torn tail, drop records already
        // sealed (a crash between segment rename and WAL rewrite leaves
        // both copies).
        let wal_data = read_file(&dir.join("wal.log"))?;
        let (wal_frames, wal_valid) = scan_frames(&wal_data);
        if wal_valid < wal_data.len() as u64 {
            let f = OpenOptions::new().write(true).open(dir.join("wal.log"))?;
            f.set_len(wal_valid)?;
            f.sync_all()?;
        }
        let mut live = Vec::new();
        let mut live_ids = HashSet::new();
        for (_, payload) in &wal_frames {
            let rec = BlockRecord::from_bytes(payload).map_err(bad)?;
            if by_id.contains_key(&rec.id) || !live_ids.insert(rec.id) {
                continue;
            }
            live.push(rec);
        }
        let wal_file = OpenOptions::new().append(true).open(dir.join("wal.log"))?;

        // Checkpoints: the heights their file names give. A blob is read
        // (and a damaged one passed over) only when recovery asks for it.
        let mut checkpoints = BTreeSet::new();
        for entry in fs::read_dir(dir.join("snapshots"))? {
            let name = entry?.file_name();
            let height = name
                .to_string_lossy()
                .strip_suffix(".snap")
                .and_then(|s| s.parse::<u64>().ok());
            checkpoints.extend(height);
        }

        let recovered = live.len() as u64;
        Ok(DiskBackend {
            dir: dir.to_path_buf(),
            segment_blocks: cfg.segment_blocks.max(1),
            fsync_interval: cfg.fsync_interval.max(1),
            wal_file,
            live,
            live_ids,
            pending: Vec::new(),
            pending_ids: HashSet::new(),
            segments,
            by_id,
            first,
            frontier: sealed,
            checkpoints,
            appends_since_sync: 0,
            recovered_records: recovered,
            telemetry: TelemetrySink::disabled(),
        })
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        let span = self.telemetry.span("storage.fsync_ns");
        self.wal_file.sync_data()?;
        drop(span);
        self.appends_since_sync = 0;
        Ok(())
    }

    /// Seals the oldest `segment_blocks` pending-finalized records into a
    /// segment file and rewrites the WAL without them.
    fn seal_segment(&mut self) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.seal_ns");
        let take = self.segment_blocks.min(self.pending.len() as u64) as usize;
        let sealed: Vec<(u64, Key)> = self.pending.drain(..take).collect();
        let Some(&(start, _)) = sealed.first() else {
            return Ok(());
        };

        let mut seg_bytes = Vec::new();
        let mut entries = BTreeMap::new();
        for (height, id) in &sealed {
            let rec = self
                .live
                .iter()
                .find(|r| r.id == *id)
                .ok_or_else(|| {
                    StorageError::Invalid(format!("pending block at height {height} not in WAL"))
                })?
                .clone();
            let payload = rec.to_bytes();
            let offset = seg_bytes.len() as u64;
            seg_bytes.extend_from_slice(&frame_bytes(&payload));
            entries.insert(
                *height,
                SegEntry {
                    id: *id,
                    offset,
                    len: payload.len() as u64,
                },
            );
        }
        write_atomic(&seg_path(&self.dir, start), &seg_bytes)?;
        let mut idx_bytes = Vec::new();
        for (h, e) in &entries {
            idx_bytes.extend_from_slice(&frame_bytes(&encode_idx_entry(*h, e)));
        }
        write_atomic(&idx_path(&self.dir, start), &idx_bytes)?;

        for (h, e) in &entries {
            self.by_id.insert(e.id, *h);
        }
        if self.segments.is_empty() {
            self.first = start;
        }
        self.segments.insert(
            start,
            Segment {
                path: seg_path(&self.dir, start),
                entries,
            },
        );
        for (_, id) in &sealed {
            self.pending_ids.remove(id);
            self.live_ids.remove(id);
        }
        let sealed_set: HashSet<Key> = sealed.iter().map(|(_, id)| *id).collect();
        self.live.retain(|r| !sealed_set.contains(&r.id));
        self.rewrite_wal()?;
        Ok(())
    }

    fn rewrite_wal(&mut self) -> Result<(), StorageError> {
        let mut bytes = Vec::new();
        for rec in &self.live {
            bytes.extend_from_slice(&frame_bytes(&rec.to_bytes()));
        }
        write_atomic(&self.dir.join("wal.log"), &bytes)?;
        self.wal_file = OpenOptions::new()
            .append(true)
            .open(self.dir.join("wal.log"))?;
        self.appends_since_sync = 0;
        Ok(())
    }

    fn read_seg_entry(&self, seg: &Segment, e: &SegEntry) -> Result<BlockRecord, StorageError> {
        let mut f = File::open(&seg.path)?;
        f.seek(SeekFrom::Start(e.offset))?;
        let mut header = [0u8; 8];
        f.read_exact(&mut header)?;
        let [l0, l1, l2, l3, c0, c1, c2, c3] = header;
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let crc = u32::from_le_bytes([c0, c1, c2, c3]);
        if len as u64 != e.len {
            return Err(StorageError::Corrupt(format!(
                "segment {} frame length mismatch",
                seg.path.display()
            )));
        }
        let mut payload = vec![0u8; len];
        f.read_exact(&mut payload)?;
        if crc32(&payload) != crc {
            return Err(StorageError::Corrupt(format!(
                "segment {} frame CRC mismatch",
                seg.path.display()
            )));
        }
        BlockRecord::from_bytes(&payload).map_err(bad)
    }

    fn sealed_record(&self, height: u64) -> Result<Option<BlockRecord>, StorageError> {
        let Some((_, seg)) = self.segments.range(..=height).next_back() else {
            return Ok(None);
        };
        let Some(e) = seg.entries.get(&height) else {
            return Ok(None);
        };
        self.read_seg_entry(seg, e).map(Some)
    }

    /// The finalized canonical record at `height`: sealed, or finalized
    /// and still waiting in the WAL for its segment.
    fn block_by_height(&self, height: u64) -> Result<Option<BlockRecord>, StorageError> {
        if self.pending.first().is_none_or(|(h, _)| height < *h) {
            return self.sealed_record(height);
        }
        if let Some((_, id)) = self.pending.iter().find(|(h, _)| *h == height) {
            return Ok(self.live.iter().find(|r| r.id == *id).cloned());
        }
        Ok(None)
    }
}

fn load_segment(dir: &Path, start: u64) -> Result<Segment, StorageError> {
    let path = seg_path(dir, start);
    let idx = idx_path(dir, start);
    if idx.exists() {
        let data = read_file(&idx)?;
        let (frames, valid) = scan_frames(&data);
        if valid == data.len() as u64 && !frames.is_empty() {
            let mut entries = BTreeMap::new();
            let mut ok = true;
            for (_, payload) in &frames {
                match decode_idx_entry(payload) {
                    Ok((h, e)) => {
                        entries.insert(h, e);
                    }
                    Err(_) => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return Ok(Segment { path, entries });
            }
        }
    }
    // Missing or corrupt sidecar: rescan the segment file itself (its
    // valid frame prefix) and rewrite the sidecar.
    let data = read_file(&path)?;
    let (frames, _) = scan_frames(&data);
    let mut entries = BTreeMap::new();
    for (offset, payload) in &frames {
        let rec = BlockRecord::from_bytes(payload).map_err(bad)?;
        entries.insert(
            rec.height,
            SegEntry {
                id: rec.id,
                offset: *offset,
                len: payload.len() as u64,
            },
        );
    }
    let mut idx_bytes = Vec::new();
    for (h, e) in &entries {
        idx_bytes.extend_from_slice(&frame_bytes(&encode_idx_entry(*h, e)));
    }
    write_atomic(&idx, &idx_bytes)?;
    Ok(Segment { path, entries })
}

fn snap_path(dir: &Path, height: u64) -> PathBuf {
    dir.join("snapshots").join(format!("{height:010}.snap"))
}

fn read_checkpoint(dir: &Path, height: u64) -> Result<Option<Checkpoint>, StorageError> {
    let path = snap_path(dir, height);
    if !path.exists() {
        return Ok(None);
    }
    let data = read_file(&path)?;
    let (frames, _) = scan_frames(&data);
    let Some((_, payload)) = frames.first() else {
        return Ok(None); // torn checkpoint: treat as absent
    };
    let mut r = Reader::new(payload);
    let h = r.u64().map_err(bad)?;
    let blob = r.bytes().map_err(bad)?.to_vec();
    r.expect_end().map_err(bad)?;
    Ok((h == height).then_some(Checkpoint { height, blob }))
}

impl Storage for DiskBackend {
    fn kind(&self) -> &'static str {
        "disk"
    }

    fn append_block(&mut self, rec: BlockRecord) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.append_ns");
        if self.contains_block(&rec.id) {
            return Err(StorageError::Invalid(format!(
                "duplicate block id at height {}",
                rec.height
            )));
        }
        let frame = frame_bytes(&rec.to_bytes());
        self.wal_file.write_all(&frame)?;
        self.telemetry.add("storage.wal.bytes", frame.len() as u64);
        self.live_ids.insert(rec.id);
        self.live.push(rec);
        self.appends_since_sync += 1;
        if self.appends_since_sync >= self.fsync_interval {
            self.sync_wal()?;
        }
        Ok(())
    }

    fn finalize(&mut self, height: u64, id: &Key) -> Result<(), StorageError> {
        let expect = if let Some((h, _)) = self.pending.last() {
            h + 1
        } else if self.frontier > 0 {
            self.frontier + 1
        } else {
            height // first ever finalize fixes the base height
        };
        if height != expect {
            return Err(StorageError::Invalid(format!(
                "finalize height {height} breaks contiguity (expected {expect})"
            )));
        }
        if !self.live.iter().any(|r| r.id == *id && r.height == height) {
            return Err(StorageError::Invalid(format!(
                "finalize of unknown block at height {height}"
            )));
        }
        self.pending.push((height, *id));
        self.pending_ids.insert(*id);
        self.frontier = height;
        if self.first == 0 && self.segments.is_empty() && self.pending.len() == 1 {
            self.first = height;
        }
        // Fork siblings at or below the finalized height can never win;
        // drop them from the live set (the WAL file is cleaned at the
        // next rewrite).
        let pending_ids = &self.pending_ids;
        let dropped: Vec<Key> = self
            .live
            .iter()
            .filter(|r| r.height <= height && !pending_ids.contains(&r.id))
            .map(|r| r.id)
            .collect();
        if !dropped.is_empty() {
            self.live
                .retain(|r| r.height > height || pending_ids.contains(&r.id));
            for id in dropped {
                self.live_ids.remove(&id);
            }
        }
        if self.pending.len() as u64 >= self.segment_blocks {
            self.seal_segment()?;
        }
        Ok(())
    }

    fn finalized_height(&self) -> u64 {
        self.frontier
    }

    fn contains_block(&self, id: &Key) -> bool {
        self.live_ids.contains(id) || self.by_id.contains_key(id)
    }

    fn block_by_id(&self, id: &Key) -> Result<Option<BlockRecord>, StorageError> {
        if let Some(rec) = self.live.iter().find(|r| r.id == *id) {
            return Ok(Some(rec.clone()));
        }
        match self.by_id.get(id) {
            Some(&h) => self.sealed_record(h),
            None => Ok(None),
        }
    }

    fn finalized_id(&self, height: u64) -> Result<Option<Key>, StorageError> {
        if let Some((_, id)) = self.pending.iter().find(|(h, _)| *h == height) {
            return Ok(Some(*id));
        }
        let Some((_, seg)) = self.segments.range(..=height).next_back() else {
            return Ok(None);
        };
        Ok(seg.entries.get(&height).map(|e| e.id))
    }

    fn blocks_after(&self, height: u64) -> Result<Vec<BlockRecord>, StorageError> {
        let mut out = Vec::new();
        if self.frontier > height {
            for h in (height + 1).max(self.first.max(1))..=self.frontier {
                match self.block_by_height(h) {
                    Ok(Some(rec)) => out.push(rec),
                    // Valid-prefix semantics: stop at the first
                    // unreadable finalized record rather than serving a
                    // holed history.
                    Ok(None) | Err(_) => return Ok(out),
                }
            }
        }
        out.extend(
            self.live
                .iter()
                .filter(|r| r.height > height && !self.pending_ids.contains(&r.id))
                .cloned(),
        );
        Ok(out)
    }

    fn put_checkpoint(&mut self, height: u64, blob: &[u8]) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.snapshot_ns");
        let mut payload = Vec::with_capacity(16 + blob.len());
        put_u64(&mut payload, height);
        crate::record::put_bytes(&mut payload, blob);
        write_atomic(&snap_path(&self.dir, height), &frame_bytes(&payload))?;
        self.checkpoints.insert(height);
        Ok(())
    }

    fn checkpoint_at_or_before(&self, height: u64) -> Result<Option<Checkpoint>, StorageError> {
        // Newest first; a blob that does not read back whole (torn,
        // damaged, removed) is passed over for the next older one.
        let mut newest_first = self.checkpoints.range(..=height).rev();
        Ok(newest_first.find_map(|&h| read_checkpoint(&self.dir, h).ok().flatten()))
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.sync_wal()
    }

    fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
        if self.recovered_records > 0 {
            self.telemetry
                .add("storage.wal.replays", self.recovered_records);
            self.recovered_records = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> Self {
            let path = std::env::temp_dir().join(format!(
                "tn-storage-test-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&path);
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn cfg() -> StorageConfig {
        StorageConfig {
            segment_blocks: 4,
            fsync_interval: 2,
            ..StorageConfig::default()
        }
    }

    fn rec(height: u64, tag: u8) -> BlockRecord {
        BlockRecord {
            height,
            id: [tag; 32],
            parent: [tag.wrapping_sub(1); 32],
            block_bytes: vec![tag; 10].into(),
            receipts_bytes: vec![tag ^ 1].into(),
        }
    }

    #[test]
    fn create_append_reopen_round_trip() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=3 {
                s.append_block(rec(h, h as u8)).unwrap();
            }
            s.flush().unwrap();
        }
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        let recs = s.blocks_after(0).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[2], rec(3, 3));
    }

    #[test]
    fn create_refuses_nonempty_dir() {
        let tmp = TempDir::new();
        fs::create_dir_all(&tmp.0).unwrap();
        fs::write(tmp.0.join("junk"), b"x").unwrap();
        assert!(matches!(
            DiskBackend::create(&tmp.0, &cfg()),
            Err(StorageError::Invalid(_))
        ));
    }

    #[test]
    fn sealing_moves_blocks_to_segments_and_prunes_wal() {
        let tmp = TempDir::new();
        let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
        for h in 1..=6 {
            s.append_block(rec(h, h as u8)).unwrap();
        }
        for h in 1..=5 {
            s.finalize(h, &[h as u8; 32]).unwrap();
        }
        // segment_blocks = 4 → one sealed segment covering 1..=4.
        assert!(seg_path(&tmp.0, 1).exists());
        assert_eq!(s.finalized_height(), 5);
        assert_eq!(s.block_by_height(2).unwrap().unwrap(), rec(2, 2));
        assert_eq!(s.block_by_height(5).unwrap().unwrap(), rec(5, 5));
        // WAL now holds only heights 5 and 6.
        let wal = read_file(&tmp.0.join("wal.log")).unwrap();
        let (frames, _) = scan_frames(&wal);
        assert_eq!(frames.len(), 2);
        // Sealed blocks answer by id too, and nothing else was written.
        assert_eq!(s.block_by_id(&[2; 32]).unwrap().unwrap(), rec(2, 2));
        let mut files: Vec<String> = fs::read_dir(&tmp.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        files.sort();
        assert_eq!(files, ["segments", "snapshots", "wal.log"]);
    }

    #[test]
    fn reopen_after_seal_restores_index_and_segments() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=6 {
                s.append_block(rec(h, h as u8)).unwrap();
                if h <= 4 {
                    s.finalize(h, &[h as u8; 32]).unwrap();
                }
            }
            s.flush().unwrap();
        }
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(s.finalized_height(), 4, "pending state is not persisted");
        assert_eq!(s.block_by_height(3).unwrap().unwrap(), rec(3, 3));
        assert_eq!(s.block_by_id(&[3; 32]).unwrap().unwrap(), rec(3, 3));
        // Heights 5 and 6 are back in the WAL for re-import.
        let heights: Vec<u64> = s
            .blocks_after(4)
            .unwrap()
            .iter()
            .map(|r| r.height)
            .collect();
        assert_eq!(heights, vec![5, 6]);
    }

    #[test]
    fn torn_wal_tail_is_truncated() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=3 {
                s.append_block(rec(h, h as u8)).unwrap();
            }
            s.flush().unwrap();
        }
        // Tear the last frame.
        let wal_path = tmp.0.join("wal.log");
        let data = read_file(&wal_path).unwrap();
        let f = OpenOptions::new().write(true).open(&wal_path).unwrap();
        f.set_len(data.len() as u64 - 5).unwrap();
        drop(f);
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        let heights: Vec<u64> = s
            .blocks_after(0)
            .unwrap()
            .iter()
            .map(|r| r.height)
            .collect();
        assert_eq!(heights, vec![1, 2], "torn record dropped");
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), {
            let (frames, valid) = scan_frames(&read_file(&wal_path).unwrap());
            assert_eq!(frames.len(), 2);
            valid
        });
    }

    #[test]
    fn bitflipped_wal_record_truncates_from_flip() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=4 {
                s.append_block(rec(h, h as u8)).unwrap();
            }
            s.flush().unwrap();
        }
        let wal_path = tmp.0.join("wal.log");
        let mut data = read_file(&wal_path).unwrap();
        let (frames, _) = scan_frames(&data);
        let third = frames[2].0 as usize + 12; // inside record 3's payload
        data[third] ^= 0xFF;
        fs::write(&wal_path, &data).unwrap();
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        let heights: Vec<u64> = s
            .blocks_after(0)
            .unwrap()
            .iter()
            .map(|r| r.height)
            .collect();
        assert_eq!(heights, vec![1, 2], "everything from the flip is dropped");
    }

    #[test]
    fn corrupt_sidecar_index_is_rebuilt_from_segment() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=5 {
                s.append_block(rec(h, h as u8)).unwrap();
                if h <= 4 {
                    s.finalize(h, &[h as u8; 32]).unwrap();
                }
            }
            s.flush().unwrap();
        }
        fs::write(idx_path(&tmp.0, 1), b"garbage").unwrap();
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(s.block_by_height(4).unwrap().unwrap(), rec(4, 4));
    }

    // Compaction is gone; the name is kept, the checkpoint half stays.
    #[test]
    fn checkpoints_round_trip_and_drive_compaction() {
        let tmp = TempDir::new();
        let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
        for h in 1..=9 {
            s.append_block(rec(h, h as u8)).unwrap();
            s.finalize(h, &[h as u8; 32]).unwrap();
        }
        s.put_checkpoint(8, b"snapshot-blob").unwrap();
        let c = s.checkpoint_at_or_before(u64::MAX).unwrap().unwrap();
        assert_eq!((c.height, c.blob.as_slice()), (8, &b"snapshot-blob"[..]));
        assert!(s.checkpoint_at_or_before(7).unwrap().is_none());
        s.flush().unwrap();
        drop(s);
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(
            s.checkpoint_at_or_before(u64::MAX).unwrap().unwrap().blob,
            b"snapshot-blob"
        );
        assert_eq!(s.block_by_height(2).unwrap().unwrap(), rec(2, 2));
        assert_eq!(s.finalized_height(), 8);
    }

    #[test]
    fn finalize_contiguity_enforced() {
        let tmp = TempDir::new();
        let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
        s.append_block(rec(1, 1)).unwrap();
        s.append_block(rec(3, 3)).unwrap();
        s.finalize(1, &[1; 32]).unwrap();
        assert!(matches!(
            s.finalize(3, &[3; 32]),
            Err(StorageError::Invalid(_))
        ));
    }

    #[test]
    fn fork_siblings_dropped_at_finalize() {
        let tmp = TempDir::new();
        let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
        s.append_block(rec(1, 1)).unwrap();
        s.append_block(rec(1, 9)).unwrap();
        s.finalize(1, &[1; 32]).unwrap();
        assert!(s.block_by_id(&[9; 32]).unwrap().is_none());
        assert_eq!(s.blocks_after(0).unwrap().len(), 1);
    }

    /// Short files parse to an error or to a shorter recovered prefix,
    /// never to a panic: a WAL whose last frame header stops mid-word
    /// loses that frame, a segment whose `.idx` sidecar ends inside an
    /// entry is rescanned, and a checkpoint cut inside its frame is
    /// passed over for the older one.
    #[test]
    fn short_files_are_errors_or_shorter_prefixes() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            for h in 1..=7 {
                s.append_block(rec(h, h as u8)).unwrap();
                if h <= 4 {
                    s.finalize(h, &[h as u8; 32]).unwrap();
                }
            }
            s.put_checkpoint(2, b"older").unwrap();
            s.put_checkpoint(4, b"newer").unwrap();
            s.flush().unwrap();
        }
        let cut = |path: &Path, len: u64| {
            let f = OpenOptions::new().write(true).open(path).unwrap();
            f.set_len(len).unwrap();
        };
        // WAL: heights 5..=7 live there; cut two bytes into 7's header.
        let wal_path = tmp.0.join("wal.log");
        let (frames, _) = scan_frames(&read_file(&wal_path).unwrap());
        assert_eq!(frames.len(), 3);
        cut(&wal_path, frames[2].0 + 2);
        // Sidecar: cut the last entry short.
        let idx = idx_path(&tmp.0, 1);
        cut(&idx, fs::metadata(&idx).unwrap().len() - 3);
        // Checkpoint: cut the newer one inside its frame.
        let newer = snap_path(&tmp.0, 4);
        cut(&newer, fs::metadata(&newer).unwrap().len() - 3);
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        let c = s.checkpoint_at_or_before(u64::MAX).unwrap().unwrap();
        assert_eq!((c.height, c.blob.as_slice()), (2, &b"older"[..]));
        assert_eq!(s.finalized_height(), 4);
        assert_eq!(s.block_by_height(4).unwrap().unwrap(), rec(4, 4));
        let heights: Vec<u64> = s
            .blocks_after(0)
            .unwrap()
            .iter()
            .map(|r| r.height)
            .collect();
        assert_eq!(heights, vec![1, 2, 3, 4, 5, 6], "the torn frame is gone");
        assert_eq!(fs::metadata(&wal_path).unwrap().len(), frames[2].0);
        drop(s);
        // No WAL: not a storage directory, refused.
        fs::remove_file(&wal_path).unwrap();
        assert!(matches!(
            DiskBackend::open(&tmp.0, &cfg()),
            Err(StorageError::Invalid(_))
        ));
    }
}
