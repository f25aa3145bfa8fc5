//! The in-memory backend: the platform's original behavior, extracted.
//!
//! Everything lives in process maps; "durability" is a no-op. The backend
//! still implements the full finalize/checkpoint protocol so the chain
//! layer behaves identically over both backends (the round-trip property
//! tests depend on that), and so memory stays bounded. A block's
//! [`BlockRecord`] here is the only copy of its body in the process,
//! whether the block is finalized or still in the chain layer's window:
//! the chain layer keeps headers, receipts and per-block `State`s for the
//! window (and drops them when it finalizes a height) but no bodies, and
//! every read hands out the record's shared slices, not copies of them.
//!
//! Checkpoint blobs are full state snapshots, so only the ones recovery
//! and historical queries can need are kept: the oldest (the genesis
//! checkpoint every replay can start from) and the newest two. A query for a height below the kept recent ones
//! is answered with the genesis checkpoint and the chain layer replays
//! further — the same state, since records are never dropped. (The disk
//! backend keeps every blob; they cost it no memory.)

use std::collections::{BTreeMap, HashMap};

use tn_telemetry::TelemetrySink;

use crate::record::{BlockRecord, HeadMeta, Key, TxLocation};
use crate::{Checkpoint, Storage, StorageError};

/// Checkpoints kept besides the oldest one. Two, so that a checkpoint the
/// chain layer finds unusable still has a recent predecessor.
const RECENT_CHECKPOINTS: usize = 2;

/// In-memory storage backend.
#[derive(Debug, Default)]
pub struct MemBackend {
    /// Un-finalized records in append order (the "WAL").
    wal: Vec<BlockRecord>,
    /// Finalized canonical records by height.
    finalized: BTreeMap<u64, BlockRecord>,
    /// id → height for finalized records.
    by_id: HashMap<Key, u64>,
    head: Option<HeadMeta>,
    checkpoints: BTreeMap<u64, (Key, Vec<u8>)>,
    tx_index: HashMap<Key, TxLocation>,
    account_index: HashMap<Key, Vec<Key>>,
    telemetry: TelemetrySink,
}

impl MemBackend {
    /// New empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn append_block(&mut self, rec: BlockRecord) -> Result<(), StorageError> {
        let _span = self.telemetry.span("storage.append_ns");
        if self.contains_block(&rec.id) {
            return Err(StorageError::Invalid(format!(
                "duplicate block id at height {}",
                rec.height
            )));
        }
        self.wal.push(rec);
        Ok(())
    }

    fn finalize(&mut self, height: u64, id: &Key) -> Result<(), StorageError> {
        let frontier = self.finalized_height();
        if height <= frontier && !self.finalized.is_empty() {
            return Err(StorageError::Invalid(format!(
                "finalize height {height} not above frontier {frontier}"
            )));
        }
        let pos = self
            .wal
            .iter()
            .position(|r| r.id == *id && r.height == height)
            .ok_or_else(|| {
                StorageError::Invalid(format!("finalize of unknown block at height {height}"))
            })?;
        let rec = self.wal.remove(pos);
        // Competing fork records at or below the frontier can never become
        // canonical; discard them.
        self.wal.retain(|r| r.height > height);
        for (i, tx) in rec.txs.iter().enumerate() {
            self.tx_index.insert(
                tx.id,
                TxLocation {
                    height,
                    index: i as u32,
                },
            );
            for account in tx.accounts() {
                self.account_index.entry(*account).or_default().push(tx.id);
            }
        }
        self.by_id.insert(rec.id, height);
        self.finalized.insert(height, rec);
        Ok(())
    }

    fn finalized_height(&self) -> u64 {
        self.finalized.keys().next_back().copied().unwrap_or(0)
    }

    fn contains_block(&self, id: &Key) -> bool {
        self.by_id.contains_key(id) || self.wal.iter().any(|r| r.id == *id)
    }

    fn block_by_id(&self, id: &Key) -> Result<Option<BlockRecord>, StorageError> {
        if let Some(h) = self.by_id.get(id) {
            return Ok(self.finalized.get(h).cloned());
        }
        Ok(self.wal.iter().find(|r| r.id == *id).cloned())
    }

    fn block_by_height(&self, height: u64) -> Result<Option<BlockRecord>, StorageError> {
        Ok(self.finalized.get(&height).cloned())
    }

    fn finalized_id(&self, height: u64) -> Result<Option<Key>, StorageError> {
        Ok(self.finalized.get(&height).map(|r| r.id))
    }

    fn blocks_after(&self, height: u64) -> Result<Vec<BlockRecord>, StorageError> {
        let mut out: Vec<BlockRecord> = self
            .finalized
            .range(height + 1..)
            .map(|(_, r)| r.clone())
            .collect();
        out.extend(self.wal.iter().filter(|r| r.height > height).cloned());
        Ok(out)
    }

    fn head(&self) -> Result<Option<HeadMeta>, StorageError> {
        Ok(self.head)
    }

    fn set_head(&mut self, head: HeadMeta) -> Result<(), StorageError> {
        self.head = Some(head);
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
        self.checkpoints.insert(height, (*id, blob.to_vec()));
        if self.checkpoints.len() > 1 + RECENT_CHECKPOINTS {
            // One insert, one removal: the oldest after the first.
            if let Some(&superseded) = self.checkpoints.keys().nth(1) {
                self.checkpoints.remove(&superseded);
            }
        }
        Ok(())
    }

    fn latest_checkpoint(&self) -> Result<Option<Checkpoint>, StorageError> {
        Ok(self
            .checkpoints
            .iter()
            .next_back()
            .map(|(&height, (id, blob))| Checkpoint {
                height,
                id: *id,
                blob: blob.clone(),
            }))
    }

    fn checkpoint_at_or_before(&self, height: u64) -> Result<Option<Checkpoint>, StorageError> {
        Ok(self
            .checkpoints
            .range(..=height)
            .next_back()
            .map(|(&h, (id, blob))| Checkpoint {
                height: h,
                id: *id,
                blob: blob.clone(),
            }))
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.telemetry = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TxIndexEntry;
    use std::sync::Arc;

    fn rec(height: u64, tag: u8) -> BlockRecord {
        BlockRecord {
            height,
            id: [tag; 32],
            parent: [tag.wrapping_sub(1); 32],
            block_bytes: vec![tag].into(),
            receipts_bytes: vec![].into(),
            txs: [TxIndexEntry {
                id: [tag ^ 0xFF; 32],
                sender: [0x11; 32],
                counterparty: None,
            }]
            .into(),
        }
    }

    #[test]
    fn append_finalize_lookup() {
        let mut s = MemBackend::new();
        s.append_block(rec(1, 1)).unwrap();
        s.append_block(rec(2, 2)).unwrap();
        assert_eq!(s.finalized_height(), 0);
        s.finalize(1, &[1; 32]).unwrap();
        assert_eq!(s.finalized_height(), 1);
        assert_eq!(s.block_by_height(1).unwrap().unwrap().id, [1; 32]);
        assert_eq!(s.block_by_id(&[2; 32]).unwrap().unwrap().height, 2);
        assert_eq!(
            s.tx_location(&[1 ^ 0xFF; 32]).unwrap(),
            Some(TxLocation {
                height: 1,
                index: 0
            })
        );
        assert_eq!(s.account_txs(&[0x11; 32]).unwrap(), vec![[1 ^ 0xFF; 32]]);
    }

    #[test]
    fn duplicate_append_rejected() {
        let mut s = MemBackend::new();
        s.append_block(rec(1, 1)).unwrap();
        assert!(matches!(
            s.append_block(rec(1, 1)),
            Err(StorageError::Invalid(_))
        ));
    }

    #[test]
    fn finalize_drops_fork_siblings() {
        let mut s = MemBackend::new();
        s.append_block(rec(1, 1)).unwrap();
        s.append_block(rec(1, 9)).unwrap(); // fork sibling
        s.append_block(rec(2, 2)).unwrap();
        s.finalize(1, &[1; 32]).unwrap();
        assert!(s.block_by_id(&[9; 32]).unwrap().is_none());
        assert_eq!(s.blocks_after(0).unwrap().len(), 2);
    }

    #[test]
    fn blocks_after_orders_finalized_then_wal() {
        let mut s = MemBackend::new();
        for h in 1..=4 {
            s.append_block(rec(h, h as u8)).unwrap();
        }
        s.finalize(1, &[1; 32]).unwrap();
        s.finalize(2, &[2; 32]).unwrap();
        let heights: Vec<u64> = s
            .blocks_after(1)
            .unwrap()
            .iter()
            .map(|r| r.height)
            .collect();
        assert_eq!(heights, vec![2, 3, 4]);
    }

    // Compaction is gone; the name is kept, the checkpoint half stays.
    #[test]
    fn checkpoints_and_compaction() {
        let mut s = MemBackend::new();
        for h in 1..=6 {
            s.append_block(rec(h, h as u8)).unwrap();
            s.finalize(h, &[h as u8; 32]).unwrap();
        }
        s.put_checkpoint(0, &[0; 32], b"genesis").unwrap();
        s.put_checkpoint(4, &[4; 32], b"mid").unwrap();
        assert_eq!(s.latest_checkpoint().unwrap().unwrap().height, 4);
        assert_eq!(s.checkpoint_at_or_before(3).unwrap().unwrap().height, 0);
        assert!(s.block_by_height(3).unwrap().is_some());
    }

    #[test]
    fn keeps_the_oldest_checkpoint_and_the_newest_two() {
        let mut s = MemBackend::new();
        for h in 0..100u64 {
            s.put_checkpoint(h * 16, &[h as u8; 32], &[h as u8; 8])
                .unwrap();
            assert!(s.checkpoints.len() <= 3);
        }
        let kept: Vec<u64> = s.checkpoints.keys().copied().collect();
        assert_eq!(kept, vec![0, 98 * 16, 99 * 16]);
        assert_eq!(s.latest_checkpoint().unwrap().unwrap().height, 99 * 16);
        // Heights the kept recent checkpoints cover answer with them, every
        // older height with the genesis checkpoint — never with nothing.
        let at = |h| s.checkpoint_at_or_before(h).unwrap().unwrap();
        assert_eq!(at(u64::MAX).height, 99 * 16);
        assert_eq!(at(99 * 16 - 1).height, 98 * 16);
        assert_eq!(at(98 * 16 - 1).height, 0);
        assert_eq!(at(17).blob, vec![0u8; 8]);
        // Rewriting a kept height replaces it and drops nothing.
        s.put_checkpoint(99 * 16, &[7; 32], b"again").unwrap();
        assert_eq!(s.checkpoints.len(), 3);
        assert_eq!(s.latest_checkpoint().unwrap().unwrap().blob, b"again");
    }

    #[test]
    fn reads_share_the_stored_bytes() {
        let mut s = MemBackend::new();
        let original = rec(1, 1);
        s.append_block(original.clone()).unwrap();
        s.append_block(rec(2, 2)).unwrap();
        let same = |got: BlockRecord| {
            Arc::ptr_eq(&got.block_bytes, &original.block_bytes)
                && Arc::ptr_eq(&got.receipts_bytes, &original.receipts_bytes)
                && Arc::ptr_eq(&got.txs, &original.txs)
        };
        assert!(s.contains_block(&[1; 32]) && !s.contains_block(&[9; 32]));
        assert!(same(s.block_by_id(&[1; 32]).unwrap().unwrap()));
        assert!(same(s.blocks_after(0).unwrap().remove(0)));
        s.finalize(1, &[1; 32]).unwrap();
        assert!(s.contains_block(&[1; 32]));
        assert!(same(s.block_by_id(&[1; 32]).unwrap().unwrap()));
        assert!(same(s.block_by_height(1).unwrap().unwrap()));
    }

    #[test]
    fn head_round_trip() {
        let mut s = MemBackend::new();
        assert_eq!(s.head().unwrap(), None);
        let h = HeadMeta {
            height: 3,
            id: [3; 32],
        };
        s.set_head(h).unwrap();
        assert_eq!(s.head().unwrap(), Some(h));
    }
}
