//! The 32-byte hash value type used everywhere in the platform.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::hex;

/// A 256-bit hash digest.
///
/// `Hash256` is the universal identifier currency of the platform: block
/// ids, transaction ids, news-item content addresses, Merkle roots and
/// account addresses are all (or contain) `Hash256` values.
///
/// # Example
///
/// ```
/// use tn_crypto::sha256::sha256;
/// let h = sha256(b"abc");
/// assert_eq!(h.to_hex().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Hash256([u8; 32]);

impl Hash256 {
    /// The all-zero hash, used as a sentinel (e.g. the parent of the genesis
    /// block).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Wraps raw digest bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Hash256(bytes)
    }

    /// Borrows the digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Consumes the hash, returning the digest bytes.
    pub fn into_bytes(self) -> [u8; 32] {
        self.0
    }

    /// Lowercase hexadecimal rendering (64 chars).
    pub fn to_hex(&self) -> String {
        hex::encode(&self.0)
    }

    /// True if this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// A short 8-hex-char prefix, convenient for logs and debug output.
    pub fn short(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash256({}…)", self.short())
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Hash256 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(b: [u8; 32]) -> Self {
        Hash256(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::sha256;

    #[test]
    fn hex_round_trip() {
        let h = sha256(b"round trip");
        let parsed = hex::decode(&h.to_hex()).expect("valid hex");
        assert_eq!(parsed, h.as_bytes());
    }

    #[test]
    fn zero_sentinel() {
        assert!(Hash256::ZERO.is_zero());
        assert!(!sha256(b"x").is_zero());
    }

    #[test]
    fn display_is_full_hex_debug_is_short() {
        let h = sha256(b"abc");
        assert_eq!(format!("{h}"), h.to_hex());
        assert!(format!("{h:?}").contains(&h.short()));
    }
}
