//! Chain checkpoints: the blob the chain layer persists through
//! [`tn_storage::Storage::put_checkpoint`].
//!
//! A checkpoint captures everything a restarted replica needs to resume
//! without replaying from genesis: the canonical head at checkpoint time,
//! the full account [`State`] at that block, and a set of named extension
//! blobs contributed by higher layers (projection snapshots, the contract
//! registry). Recovery decodes the checkpoint, restores state and
//! extensions, then replays only the storage records past the checkpoint
//! height — so restart cost is proportional to downtime, not chain length.

use tn_crypto::Hash256;

use crate::codec::{Decodable, DecodeError, Decoder, Encodable, Encoder};
use crate::state::State;

/// Durable snapshot of chain state at a canonical block, plus named
/// extension blobs from higher layers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainCheckpoint {
    /// Height of the canonical block the checkpoint was taken at.
    pub height: u64,
    /// Id of that block (the head at checkpoint time).
    pub(crate) head_id: Hash256,
    /// Full account state after executing the checkpoint block.
    pub(crate) state: State,
    /// Named opaque blobs saved by projections and the execution layer.
    /// Order is preserved; names should be unique.
    pub extensions: Vec<(String, Vec<u8>)>,
}

impl ChainCheckpoint {
    /// Looks up an extension blob by name.
    pub fn extension(&self, name: &str) -> Option<&[u8]> {
        self.extensions
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, b)| b.as_slice())
    }

    /// Encodes the checkpoint for storage.
    pub(crate) fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.finish()
    }

    /// Decodes a checkpoint previously produced by
    /// `ChainCheckpoint::to_bytes`.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] when the buffer does not parse exactly.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut dec = Decoder::new(bytes);
        let cp = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(cp)
    }
}

impl Encodable for ChainCheckpoint {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.height).put_hash(&self.head_id);
        self.state.encode(enc);
        enc.put_varint(self.extensions.len() as u64);
        for (name, blob) in &self.extensions {
            enc.put_str(name).put_bytes(blob);
        }
    }
}

impl Decodable for ChainCheckpoint {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let height = dec.get_u64()?;
        let head_id = dec.get_hash()?;
        let state = State::decode(dec)?;
        let n = dec.get_varint()? as usize;
        let mut extensions = Vec::with_capacity(n.min(1 << 10));
        for _ in 0..n {
            let name = dec.get_str()?;
            let blob = dec.get_bytes()?;
            extensions.push((name, blob));
        }
        Ok(ChainCheckpoint {
            height,
            head_id,
            state,
            extensions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::sha256::sha256;
    use tn_crypto::Address;

    fn sample() -> ChainCheckpoint {
        let mut state = State::new();
        state.credit(&Address::from_hash(Hash256::ZERO), 1_000);
        ChainCheckpoint {
            height: 42,
            head_id: tn_crypto::sha256::tagged_hash("t", b"head"),
            state,
            extensions: vec![
                ("supplychain".into(), vec![1, 2, 3]),
                ("contracts".into(), vec![]),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let cp = sample();
        let bytes = cp.to_bytes();
        assert_eq!(ChainCheckpoint::from_bytes(&bytes).unwrap(), cp);
    }

    #[test]
    fn extension_lookup() {
        let cp = sample();
        assert_eq!(cp.extension("supplychain"), Some(&[1u8, 2, 3][..]));
        assert_eq!(cp.extension("contracts"), Some(&[][..]));
        assert_eq!(cp.extension("missing"), None);
    }

    /// A blob whose account table is out of order, or names one address
    /// twice, is refused by the decoder — before anyone could compare a
    /// root over whichever entry "won".
    #[test]
    fn non_canonical_account_table_rejected() {
        let mut cp = sample();
        cp.state.credit(&Address::from_hash(sha256(b"second")), 7);
        cp.state.credit(&Address::from_hash(sha256(b"third")), 9);
        let bytes = cp.to_bytes();
        assert_eq!(ChainCheckpoint::from_bytes(&bytes).unwrap(), cp);
        // height (8) + head id (32) + account count (1), then 48-byte entries.
        let entry = |i: usize| 41 + 48 * i..41 + 48 * (i + 1);
        let mut swapped = bytes.clone();
        swapped.copy_within(entry(1), entry(0).start);
        swapped[entry(1)].copy_from_slice(&bytes[entry(0)]);
        let mut doubled = bytes.clone();
        doubled.copy_within(entry(1), entry(2).start);
        for bad in [swapped, doubled] {
            assert_eq!(
                ChainCheckpoint::from_bytes(&bad),
                Err(DecodeError::UnsortedKeys)
            );
        }
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample().to_bytes();
        assert!(ChainCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }
}
