//! Storage-layer records and their self-contained wire format.
//!
//! The storage engine is deliberately ignorant of chain semantics: blocks,
//! receipts and checkpoints cross the [`crate::Storage`] boundary as opaque
//! byte blobs tagged with the few fields the engine needs for placement and
//! lookup (height, 32-byte ids, index keys). The mini-codec here is
//! little-endian and length-prefixed, and every frame written to disk is
//! protected by a CRC-32 so torn or bit-flipped tails are detected at open.

use std::fmt;
use std::sync::Arc;

/// A 32-byte identifier (block id, transaction id, or account key).
///
/// The engine never interprets these; they are hashes/addresses minted by
/// the chain layer.
pub type Key = [u8; 32];

/// One block as the engine stores it: placement metadata and opaque
/// payloads.
///
/// The payloads are shared slices: a backend that keeps records in memory
/// hands out clones that copy two pointers, so the bytes of a block exist
/// once however many readers ask for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRecord {
    /// Block height.
    pub height: u64,
    /// Block id (content hash).
    pub id: Key,
    /// Parent block id.
    pub parent: Key,
    /// Canonical encoding of the block itself.
    pub block_bytes: Arc<[u8]>,
    /// Canonical encoding of the block's execution receipts.
    pub receipts_bytes: Arc<[u8]>,
}

// ---------------------------------------------------------------------------
// Mini-codec (little-endian, length-prefixed)
// ---------------------------------------------------------------------------

/// Appends a `u64` in little-endian.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// A bounds-checked reader over an encoded record: the bytes not read yet.
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

/// Decode failure: the buffer was shorter or longer than the format
/// requires (the CRC framing means this indicates an engine bug or
/// deliberate tampering rather than a torn write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecodeError(pub(crate) &'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed storage record: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(DecodeError("unexpected end of record"))?;
        self.rest = rest;
        Ok(*head)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    pub(crate) fn key(&mut self) -> Result<Key, DecodeError> {
        self.array()
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u64()? as usize;
        if len > self.rest.len() {
            return Err(DecodeError("length prefix beyond buffer"));
        }
        let (head, rest) = self.rest.split_at(len);
        self.rest = rest;
        Ok(head)
    }

    pub(crate) fn expect_end(&self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes after record"))
        }
    }
}

impl BlockRecord {
    /// Encodes the record for framing into the WAL or a segment.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(88 + self.block_bytes.len() + self.receipts_bytes.len());
        put_u64(&mut out, self.height);
        out.extend_from_slice(&self.id);
        out.extend_from_slice(&self.parent);
        put_bytes(&mut out, &self.block_bytes);
        put_bytes(&mut out, &self.receipts_bytes);
        out
    }

    /// Decodes a record previously produced by [`BlockRecord::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the buffer does not parse exactly.
    pub(crate) fn from_bytes(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let height = r.u64()?;
        let id = r.key()?;
        let parent = r.key()?;
        let block_bytes = r.bytes()?.into();
        let receipts_bytes = r.bytes()?.into();
        let rec = BlockRecord {
            height,
            id,
            parent,
            block_bytes,
            receipts_bytes,
        };
        r.expect_end()?;
        Ok(rec)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-based
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) over `data` — the checksum guarding every on-disk frame.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(height: u64) -> BlockRecord {
        BlockRecord {
            height,
            id: [height as u8; 32],
            parent: [height.wrapping_sub(1) as u8; 32],
            block_bytes: vec![1, 2, 3, height as u8].into(),
            receipts_bytes: vec![9, 8].into(),
        }
    }

    #[test]
    fn record_round_trip() {
        let rec = sample(7);
        let bytes = rec.to_bytes();
        assert_eq!(BlockRecord::from_bytes(&bytes).unwrap(), rec);
    }

    #[test]
    fn truncated_record_rejected() {
        let bytes = sample(3).to_bytes();
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(BlockRecord::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = sample(3).to_bytes();
        bytes.push(0);
        assert!(BlockRecord::from_bytes(&bytes).is_err());
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" → 0xCBF43926 is the canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
