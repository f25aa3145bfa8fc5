//! The on-disk backend: CRC-framed WAL, sealed segments, checkpoints.
//!
//! ## Layout (under the storage directory)
//!
//! ```text
//! meta                     dual-slot head metadata (seqno + CRC per slot)
//! wal.log                  CRC-framed BlockRecords not yet sealed
//! index.log                CRC-framed tx/account index entries (sealed blocks)
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
//! segment is then written tmp-first, fsynced and renamed, its index
//! entries are appended to `index.log`, and the WAL is rewritten without
//! the sealed (and dead fork) records. Checkpoints and segment files are
//! only ever created whole (tmp + fsync + rename), so a crash leaves
//! either the old or the new file, never a torn one. The WAL is the only
//! file that can tear; `open` scans it and truncates at the first invalid
//! frame, which restores exactly the acknowledged durable prefix.
//!
//! ## Recovery invariants
//!
//! - Sealed segments cover contiguous heights `first..=sealed`; the WAL
//!   holds everything above `sealed` (canonical tail and fork blocks).
//! - Finalization state between `sealed` and the chain layer's eviction
//!   frontier is not persisted; the chain layer re-finalizes that gap
//!   after replay (the records are still in the WAL).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use tn_telemetry::TelemetrySink;

use crate::record::{crc32, put_u64, BlockRecord, HeadMeta, Key, Reader, TxIndexEntry, TxLocation};
use crate::{Checkpoint, Storage, StorageConfig, StorageError};

const META_MAGIC: u32 = 0x544E_4D54; // "TNMT"
const META_SLOT: u64 = 64;
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

/// Scans CRC frames from `data`, stopping at the first torn or corrupt
/// frame. Returns the decoded payloads with their frame offsets and the
/// length of the valid prefix.
fn scan_frames(data: &[u8]) -> (Vec<(u64, Vec<u8>)>, u64) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while data.len() - pos >= 8 {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4"));
        if len > MAX_FRAME || data.len() - pos - 8 < len {
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
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

    index_file: File,
    tx_index: HashMap<Key, TxLocation>,
    account_index: HashMap<Key, Vec<Key>>,

    /// height → checkpoint block id (blobs stay on disk).
    checkpoints: BTreeMap<u64, Key>,

    head: Option<HeadMeta>,
    meta_file: File,
    meta_seqno: u64,
    head_dirty: bool,

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
    pub fn create(dir: &Path, cfg: &StorageConfig) -> Result<Self, StorageError> {
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
        let index_file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("index.log"))?;
        let meta_file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(dir.join("meta"))?;
        let mut backend = DiskBackend {
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
            index_file,
            tx_index: HashMap::new(),
            account_index: HashMap::new(),
            checkpoints: BTreeMap::new(),
            head: None,
            meta_file,
            meta_seqno: 0,
            head_dirty: false,
            appends_since_sync: 0,
            recovered_records: 0,
            telemetry: TelemetrySink::disabled(),
        };
        backend.write_meta()?;
        Ok(backend)
    }

    /// Opens an existing store, recovering from any crash-interrupted
    /// write: the WAL is truncated at its first invalid frame, segments
    /// with missing or corrupt offset indexes are rescanned, and the head
    /// metadata slot with the highest valid sequence number wins.
    ///
    /// # Errors
    ///
    /// [`StorageError::Invalid`] when `dir` is not a storage directory,
    /// [`StorageError::Io`] on filesystem failure.
    pub fn open(dir: &Path, cfg: &StorageConfig) -> Result<Self, StorageError> {
        if !dir.join("meta").exists() {
            return Err(StorageError::Invalid(format!(
                "{} is not a storage directory",
                dir.display()
            )));
        }
        let meta_file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join("meta"))?;
        let (head, meta_seqno) = read_meta(&meta_file)?;

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
            let Some((&lo, _)) = seg.entries.iter().next() else {
                break;
            };
            let (&hi, _) = seg.entries.iter().next_back().expect("nonempty");
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

        // Index log: valid prefix only, and only entries for heights that
        // survived the segment scan.
        let mut tx_index = HashMap::new();
        let mut account_index: HashMap<Key, Vec<Key>> = HashMap::new();
        let index_data = read_file(&dir.join("index.log"))?;
        let (index_frames, index_valid) = scan_frames(&index_data);
        for (_, payload) in &index_frames {
            let (height, entries) = decode_index_frame(payload)?;
            if segments.is_empty() || height < first || height > sealed {
                continue;
            }
            apply_index(&mut tx_index, &mut account_index, height, &entries);
        }
        if index_valid < index_data.len() as u64 {
            let f = OpenOptions::new().write(true).open(dir.join("index.log"))?;
            f.set_len(index_valid)?;
            f.sync_all()?;
        }
        let index_file = OpenOptions::new()
            .append(true)
            .open(dir.join("index.log"))?;

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

        // Checkpoints: remember heights; blobs are validated on read.
        let mut checkpoints = BTreeMap::new();
        for entry in fs::read_dir(dir.join("snapshots"))? {
            let name = entry?.file_name();
            let name = name.to_string_lossy().into_owned();
            if let Some(h) = name
                .strip_suffix(".snap")
                .and_then(|s| s.parse::<u64>().ok())
            {
                checkpoints.insert(h, [0u8; 32]);
            }
        }
        // Resolve checkpoint ids eagerly (cheap: one read per checkpoint).
        let mut resolved = BTreeMap::new();
        for &h in checkpoints.keys() {
            if let Ok(Some(c)) = read_checkpoint(dir, h) {
                resolved.insert(h, c.id);
            }
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
            index_file,
            tx_index,
            account_index,
            checkpoints: resolved,
            head,
            meta_file,
            meta_seqno,
            head_dirty: false,
            appends_since_sync: 0,
            recovered_records: recovered,
            telemetry: TelemetrySink::disabled(),
        })
    }

    /// The directory this backend stores into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn write_meta(&mut self) -> Result<(), StorageError> {
        self.meta_seqno += 1;
        let mut slot = Vec::with_capacity(64);
        slot.extend_from_slice(&META_MAGIC.to_le_bytes());
        slot.extend_from_slice(&self.meta_seqno.to_le_bytes());
        match self.head {
            Some(h) => {
                slot.push(1);
                slot.extend_from_slice(&h.height.to_le_bytes());
                slot.extend_from_slice(&h.id);
            }
            None => {
                slot.push(0);
                slot.extend_from_slice(&[0u8; 40]);
            }
        }
        let crc = crc32(&slot);
        slot.extend_from_slice(&crc.to_le_bytes());
        slot.resize(META_SLOT as usize, 0);
        let offset = (self.meta_seqno % 2) * META_SLOT;
        self.meta_file.seek(SeekFrom::Start(offset))?;
        self.meta_file.write_all(&slot)?;
        self.meta_file.sync_data()?;
        self.head_dirty = false;
        Ok(())
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        let span = self.telemetry.span("storage.fsync_ns");
        self.wal_file.sync_data()?;
        drop(span);
        self.appends_since_sync = 0;
        if self.head_dirty {
            self.write_meta()?;
        }
        Ok(())
    }

    /// Seals the oldest `segment_blocks` pending-finalized records into a
    /// segment file, appends their index entries, and rewrites the WAL
    /// without them.
    fn seal_segment(&mut self) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.seal_ns");
        let take = self.segment_blocks.min(self.pending.len() as u64) as usize;
        let sealed: Vec<(u64, Key)> = self.pending.drain(..take).collect();
        let start = sealed[0].0;

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

        // Index entries become durable with the segment.
        for (height, id) in &sealed {
            let rec = self.live.iter().find(|r| r.id == *id).expect("checked");
            let entries: Vec<(Key, Vec<Key>)> = rec.txs.iter().map(index_entry).collect();
            let payload = encode_index_frame(*height, &entries);
            self.index_file.write_all(&frame_bytes(&payload))?;
        }
        self.index_file.sync_data()?;

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
        let len = u32::from_le_bytes(header[..4].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4"));
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
}

fn read_meta(file: &File) -> Result<(Option<HeadMeta>, u64), StorageError> {
    let mut f = file;
    let mut buf = Vec::new();
    f.seek(SeekFrom::Start(0))?;
    f.read_to_end(&mut buf)?;
    let mut best: Option<(u64, Option<HeadMeta>)> = None;
    for slot in 0..2u64 {
        let lo = (slot * META_SLOT) as usize;
        if buf.len() < lo + 57 {
            continue;
        }
        let s = &buf[lo..lo + 57];
        let magic = u32::from_le_bytes(s[..4].try_into().expect("4"));
        let crc = u32::from_le_bytes(s[53..57].try_into().expect("4"));
        if magic != META_MAGIC || crc32(&s[..53]) != crc {
            continue;
        }
        let seqno = u64::from_le_bytes(s[4..12].try_into().expect("8"));
        let head = if s[12] == 1 {
            Some(HeadMeta {
                height: u64::from_le_bytes(s[13..21].try_into().expect("8")),
                id: s[21..53].try_into().expect("32"),
            })
        } else {
            None
        };
        if best.as_ref().is_none_or(|(s0, _)| seqno > *s0) {
            best = Some((seqno, head));
        }
    }
    match best {
        Some((seqno, head)) => Ok((head, seqno)),
        None => Err(StorageError::Corrupt("no valid meta slot".into())),
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
    let id = r.key().map_err(bad)?;
    let blob = r.bytes().map_err(bad)?.to_vec();
    r.expect_end().map_err(bad)?;
    if h != height {
        return Ok(None);
    }
    Ok(Some(Checkpoint { height, id, blob }))
}

fn encode_index_frame(height: u64, entries: &[(Key, Vec<Key>)]) -> Vec<u8> {
    let mut p = Vec::new();
    put_u64(&mut p, height);
    put_u64(&mut p, entries.len() as u64);
    for (tx, accounts) in entries {
        p.extend_from_slice(tx);
        put_u64(&mut p, accounts.len() as u64);
        for a in accounts {
            p.extend_from_slice(a);
        }
    }
    p
}

/// One decoded `index.log` frame: the finalized height plus, per tx id,
/// the accounts it touches.
type IndexFrame = (u64, Vec<(Key, Vec<Key>)>);

/// A record's index entry in the shape of an `index.log` frame entry.
fn index_entry(tx: &TxIndexEntry) -> (Key, Vec<Key>) {
    (tx.id, tx.accounts().copied().collect())
}

fn decode_index_frame(payload: &[u8]) -> Result<IndexFrame, StorageError> {
    let mut r = Reader::new(payload);
    let height = r.u64().map_err(bad)?;
    let n = r.u64().map_err(bad)? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let tx = r.key().map_err(bad)?;
        let m = r.u64().map_err(bad)? as usize;
        let mut accounts = Vec::with_capacity(m.min(1 << 10));
        for _ in 0..m {
            accounts.push(r.key().map_err(bad)?);
        }
        entries.push((tx, accounts));
    }
    r.expect_end().map_err(bad)?;
    Ok((height, entries))
}

fn apply_index(
    tx_index: &mut HashMap<Key, TxLocation>,
    account_index: &mut HashMap<Key, Vec<Key>>,
    height: u64,
    entries: &[(Key, Vec<Key>)],
) {
    for (i, (tx, accounts)) in entries.iter().enumerate() {
        tx_index.insert(
            *tx,
            TxLocation {
                height,
                index: i as u32,
            },
        );
        for a in accounts {
            let txs = account_index.entry(*a).or_default();
            if !txs.contains(tx) {
                txs.push(*tx);
            }
        }
    }
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
        let Some(rec) = self.live.iter().find(|r| r.id == *id && r.height == height) else {
            return Err(StorageError::Invalid(format!(
                "finalize of unknown block at height {height}"
            )));
        };
        let entries: Vec<(Key, Vec<Key>)> = rec.txs.iter().map(index_entry).collect();
        apply_index(
            &mut self.tx_index,
            &mut self.account_index,
            height,
            &entries,
        );
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

    fn block_by_height(&self, height: u64) -> Result<Option<BlockRecord>, StorageError> {
        if self.pending_ids.is_empty() || height < self.pending[0].0 {
            return self.sealed_record(height);
        }
        if let Some((_, id)) = self.pending.iter().find(|(h, _)| *h == height) {
            return Ok(self.live.iter().find(|r| r.id == *id).cloned());
        }
        Ok(None)
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

    fn head(&self) -> Result<Option<HeadMeta>, StorageError> {
        Ok(self.head)
    }

    fn set_head(&mut self, head: HeadMeta) -> Result<(), StorageError> {
        self.head = Some(head);
        self.head_dirty = true;
        Ok(())
    }

    fn tx_location(&self, tx: &Key) -> Result<Option<TxLocation>, StorageError> {
        Ok(self.tx_index.get(tx).copied())
    }

    fn account_txs(&self, account: &Key) -> Result<Vec<Key>, StorageError> {
        Ok(self.account_index.get(account).cloned().unwrap_or_default())
    }

    fn put_checkpoint(&mut self, height: u64, id: &Key, blob: &[u8]) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.snapshot_ns");
        let mut payload = Vec::with_capacity(48 + blob.len());
        put_u64(&mut payload, height);
        payload.extend_from_slice(id);
        crate::record::put_bytes(&mut payload, blob);
        write_atomic(&snap_path(&self.dir, height), &frame_bytes(&payload))?;
        self.checkpoints.insert(height, *id);
        Ok(())
    }

    fn latest_checkpoint(&self) -> Result<Option<Checkpoint>, StorageError> {
        for (&h, _) in self.checkpoints.iter().rev() {
            if let Some(c) = read_checkpoint(&self.dir, h)? {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    fn checkpoint_at_or_before(&self, height: u64) -> Result<Option<Checkpoint>, StorageError> {
        for (&h, _) in self.checkpoints.range(..=height).rev() {
            if let Some(c) = read_checkpoint(&self.dir, h)? {
                return Ok(Some(c));
            }
        }
        Ok(None)
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        self.sync_wal()?;
        if self.head_dirty {
            self.write_meta()?;
        }
        Ok(())
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
            txs: [TxIndexEntry {
                id: [tag | 0x80; 32],
                sender: [0x42; 32],
                counterparty: None,
            }]
            .into(),
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
            s.set_head(HeadMeta {
                height: 3,
                id: [3; 32],
            })
            .unwrap();
            s.flush().unwrap();
        }
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(s.head().unwrap().unwrap().height, 3);
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
        // Index answers survive sealing.
        assert_eq!(
            s.tx_location(&[2 | 0x80; 32]).unwrap(),
            Some(TxLocation {
                height: 2,
                index: 0
            })
        );
        assert_eq!(s.account_txs(&[0x42; 32]).unwrap().len(), 5);
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
        assert_eq!(s.tx_location(&[3 | 0x80; 32]).unwrap().unwrap().height, 3);
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

    #[test]
    fn meta_slot_crc_guards_head() {
        let tmp = TempDir::new();
        {
            let mut s = DiskBackend::create(&tmp.0, &cfg()).unwrap();
            s.append_block(rec(1, 1)).unwrap();
            s.set_head(HeadMeta {
                height: 1,
                id: [1; 32],
            })
            .unwrap();
            s.flush().unwrap();
            s.set_head(HeadMeta {
                height: 2,
                id: [2; 32],
            })
            .unwrap();
            s.flush().unwrap();
        }
        // Corrupt the most recent slot; open falls back to the older one.
        let meta_path = tmp.0.join("meta");
        let mut data = read_file(&meta_path).unwrap();
        // Seqnos: create=1, flush=2 (slot 0), flush=3 (slot 1). Newest in
        // slot 1.
        data[(META_SLOT + 20) as usize] ^= 0xFF;
        fs::write(&meta_path, &data).unwrap();
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(s.head().unwrap().unwrap().height, 1);
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
        s.put_checkpoint(8, &[8; 32], b"snapshot-blob").unwrap();
        let c = s.latest_checkpoint().unwrap().unwrap();
        assert_eq!((c.height, c.blob.as_slice()), (8, &b"snapshot-blob"[..]));
        assert!(s.checkpoint_at_or_before(7).unwrap().is_none());
        s.flush().unwrap();
        drop(s);
        let s = DiskBackend::open(&tmp.0, &cfg()).unwrap();
        assert_eq!(
            s.latest_checkpoint().unwrap().unwrap().blob,
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
}
