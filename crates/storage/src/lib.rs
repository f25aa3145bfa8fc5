//! Durable block storage engine for the trusting-news platform.
//!
//! The paper's provenance ledger must survive restarts and grow past RAM,
//! so the chain layer delegates persistence to the [`Storage`] trait
//! defined here. The engine is chain-agnostic: blocks, receipts and
//! checkpoints cross the boundary as opaque byte blobs keyed by height and
//! 32-byte ids (see [`record::BlockRecord`]), which keeps this crate free
//! of chain dependencies and lets `tn-chain` depend on it without a cycle.
//!
//! Two backends implement the trait:
//!
//! - [`MemBackend`] — everything in process memory; the pre-storage-engine
//!   behavior, extracted. Used by default and by tests.
//! - [`DiskBackend`] — a CRC-framed write-ahead log for recent blocks,
//!   sealed append-only segment files for finalized history and atomic
//!   checkpoint blobs. Restart cost is proportional to the WAL tail past
//!   the last checkpoint, not to chain length.
//!
//! ## Lifecycle of a block
//!
//! 1. `append_block` — the record (possibly a fork block) is made durable
//!    in the WAL. Fsyncs are batched; `flush` forces one.
//! 2. `finalize(height, id)` — the chain layer has evicted the height from
//!    its in-memory window; the canonical record is sealed into a segment
//!    as it is, with nothing indexed beside it, and fork siblings at or
//!    below the height are discarded.
//! 3. `put_checkpoint` — a serialized chain+projection snapshot is stored;
//!    recovery replays only blocks after the latest checkpoint. History is
//!    never deleted: full-history audits need every block.

#![deny(missing_docs)]
#![warn(unreachable_pub)]
#![forbid(unsafe_code)]

mod disk;
mod mem;
mod record;

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

pub use disk::DiskBackend;
pub use mem::MemBackend;
pub use record::{BlockRecord, Key};

use tn_telemetry::TelemetrySink;

/// Errors surfaced by a storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O failure (disk full, permission, ...).
    Io(String),
    /// On-disk data failed validation (CRC mismatch, bad magic, short
    /// frame) beyond what crash recovery tolerates.
    Corrupt(String),
    /// The caller violated the engine's protocol (e.g. finalizing an
    /// unknown block or appending a duplicate id).
    Invalid(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(m) => write!(f, "storage i/o error: {m}"),
            StorageError::Corrupt(m) => write!(f, "storage corruption: {m}"),
            StorageError::Invalid(m) => write!(f, "storage misuse: {m}"),
        }
    }
}

impl Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// A stored checkpoint: an opaque chain snapshot taken at a height (the
/// snapshot names its block itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Height of the block the snapshot was taken at.
    pub height: u64,
    /// The serialized snapshot (format owned by the chain layer).
    pub blob: Vec<u8>,
}

/// Which backend a node runs on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory storage (the default; prior behavior).
    #[default]
    Mem,
    /// On-disk storage rooted at the given directory.
    Disk(PathBuf),
}

/// Storage-engine configuration, threaded from `PlatformConfig` down to
/// the chain store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageConfig {
    /// Backend selection.
    pub backend: BackendKind,
    /// How many recent blocks the chain layer keeps fully materialized
    /// in memory (blocks, per-block states, fork branches). Heights that
    /// fall out of the window are finalized into the backend.
    pub retention: u64,
    /// Write a checkpoint every this many blocks (0 disables periodic
    /// checkpoints; a genesis checkpoint is always written).
    pub checkpoint_interval: u64,
    /// Finalized blocks per sealed segment file (disk backend).
    pub segment_blocks: u64,
    /// Appends per fsync (disk backend); `flush` forces one regardless.
    pub fsync_interval: u64,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            backend: BackendKind::Mem,
            retention: 64,
            checkpoint_interval: 16,
            segment_blocks: 32,
            fsync_interval: 8,
        }
    }
}

impl StorageConfig {
    /// Builds the configured backend (empty; opening existing disk state
    /// is a separate, explicit recovery path).
    ///
    /// # Errors
    ///
    /// [`StorageError`] when the disk directory cannot be initialized.
    pub fn build(&self) -> Result<Box<dyn Storage>, StorageError> {
        match &self.backend {
            BackendKind::Mem => Ok(Box::new(MemBackend::new())),
            BackendKind::Disk(dir) => Ok(Box::new(DiskBackend::create(dir, self)?)),
        }
    }
}

/// The persistence boundary between the chain layer and its storage.
///
/// Query methods take `&self`; mutations take `&mut self`. Implementations
/// must tolerate crash-interrupted mutations: after reopening, the store
/// reflects a prefix of the acknowledged appends (everything up to the
/// last durable frame).
pub trait Storage: Send + fmt::Debug {
    /// Short backend name for logs and metrics (`"mem"`, `"disk"`).
    fn kind(&self) -> &'static str;

    /// Makes a block record durable (WAL). Records may arrive for
    /// competing forks; only [`Storage::finalize`] declares canonicity.
    ///
    /// # Errors
    ///
    /// [`StorageError::Invalid`] on duplicate ids, [`StorageError::Io`]
    /// on write failure.
    fn append_block(&mut self, rec: BlockRecord) -> Result<(), StorageError>;

    /// Seals the canonical block `id` at `height` into finalized history
    /// and drops competing records at or below that height. Must be
    /// called with strictly increasing heights.
    ///
    /// # Errors
    ///
    /// [`StorageError::Invalid`] when `id` was never appended or the
    /// height is not above the finalized frontier.
    fn finalize(&mut self, height: u64, id: &Key) -> Result<(), StorageError>;

    /// Highest finalized height (0 when nothing is finalized).
    fn finalized_height(&self) -> u64;

    /// True when [`Storage::block_by_id`] would find a record for `id`,
    /// answered from the id indexes without touching the record.
    fn contains_block(&self, id: &Key) -> bool;

    /// Fetches a record by block id: WAL records and finalized history.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on read failure or corruption.
    fn block_by_id(&self, id: &Key) -> Result<Option<BlockRecord>, StorageError>;

    /// Id of the finalized canonical block at `height`, without reading
    /// the record payload (used to rebuild the height → id map cheaply on
    /// recovery).
    ///
    /// # Errors
    ///
    /// [`StorageError`] on read failure.
    fn finalized_id(&self, height: u64) -> Result<Option<Key>, StorageError>;

    /// Every stored record above `height`: finalized canonical blocks in
    /// height order, then un-finalized WAL records in append order. This
    /// is the recovery feed — re-importing it in order reconstructs the
    /// chain past a checkpoint.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on read failure or corruption.
    fn blocks_after(&self, height: u64) -> Result<Vec<BlockRecord>, StorageError>;

    /// Stores a checkpoint blob for the block at `height`, replacing any
    /// checkpoint at the same height.
    ///
    /// # Errors
    ///
    /// [`StorageError`] on write failure.
    fn put_checkpoint(&mut self, height: u64, blob: &[u8]) -> Result<(), StorageError>;

    /// The highest checkpoint at or below `height` (`u64::MAX` asks for
    /// the newest).
    ///
    /// # Errors
    ///
    /// [`StorageError`] on read failure or corruption.
    fn checkpoint_at_or_before(&self, height: u64) -> Result<Option<Checkpoint>, StorageError>;

    /// Forces buffered WAL writes to durable storage.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on fsync failure.
    fn flush(&mut self) -> Result<(), StorageError>;

    /// Attaches a telemetry sink; backends record `storage.*` spans and
    /// counters through it.
    fn set_telemetry(&mut self, sink: TelemetrySink);
}
