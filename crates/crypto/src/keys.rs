//! Key pairs, public keys and hash-derived account addresses.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

use serde::{Deserialize, Serialize};

use crate::ec::{mul_generator, Affine};
use crate::field::{reduce, N};
use crate::hash::Hash256;
use crate::schnorr::{sign_digest, Signature, PROCESS_SIGNERS};
use crate::sha256::tagged_hash;
use crate::u256::U256;

/// A secret signing key: a scalar in `[1, n−1]`.
#[derive(Clone)]
pub struct SecretKey(U256);

impl SecretKey {
    /// Derives a secret key deterministically from arbitrary seed bytes by
    /// hashing into the scalar field (rejecting the zero scalar).
    pub(crate) fn from_seed(seed: &[u8]) -> SecretKey {
        let mut counter = 0u32;
        loop {
            let mut data = Vec::with_capacity(seed.len() + 4);
            data.extend_from_slice(seed);
            data.extend_from_slice(&counter.to_be_bytes());
            let d = reduce(
                &U256::from_be_bytes(tagged_hash("TN/keygen", &data).as_bytes()),
                &N,
            );
            if !d.is_zero() {
                return SecretKey(d);
            }
            counter += 1;
        }
    }

    /// The corresponding public key `d·G`.
    pub(crate) fn public(&self) -> PublicKey {
        PublicKey(mul_generator(&self.0))
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print secret material.
        f.write_str("SecretKey(…redacted…)")
    }
}

/// A public verification key (a curve point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PublicKey(Affine);

impl PublicKey {
    /// Verifies a Schnorr signature over a 32-byte digest. A key this
    /// process has verified before is recognised (see [`crate::schnorr::SignerMemo`]).
    pub fn verify(&self, msg: &Hash256, sig: &Signature) -> bool {
        PROCESS_SIGNERS.verify(self, msg, sig)
    }

    /// The underlying curve point (for the batch-verification kernels).
    pub(crate) fn as_affine(&self) -> &Affine {
        &self.0
    }

    /// SEC1 compressed encoding (33 bytes).
    pub fn to_compressed(&self) -> [u8; 33] {
        self.0.to_compressed()
    }

    /// Decodes a compressed public key. Rejects infinity and off-curve
    /// encodings.
    ///
    /// Decompression is a field square root (~3 µs), and a chain names the
    /// same few keys in every block and transaction it decodes, so the
    /// points of encodings that passed are remembered in a bounded,
    /// process-wide memo: a hit returns the very point the full decode
    /// produced. Rejected encodings are not remembered.
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<PublicKey> {
        /// Entries the memo holds before it starts over (~100 KiB).
        const CAPACITY: usize = 1024;
        static DECODED: OnceLock<Mutex<HashMap<[u8; 33], Affine>>> = OnceLock::new();
        // A panic elsewhere cannot leave a wrong point behind: entries are
        // written whole, after validation, and never changed.
        let memo = || {
            let memo = DECODED.get_or_init(Mutex::default);
            memo.lock().unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(point) = memo().get(bytes) {
            return Some(PublicKey(*point));
        }
        let point = match Affine::from_compressed(bytes)? {
            Affine::Infinity => return None,
            point => point,
        };
        let mut memo = memo();
        if memo.len() >= CAPACITY {
            memo.clear();
        }
        memo.insert(*bytes, point);
        Some(PublicKey(point))
    }

    /// The account address derived from this key: a tagged hash of the
    /// compressed encoding. Addresses identify accounts on the news chain;
    /// they are what the paper's "accountability and traceability" resolve
    /// to.
    pub fn address(&self) -> Address {
        Address(tagged_hash("TN/address", &self.to_compressed()))
    }
}

impl Serialize for PublicKey {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serde::Serialize::serialize(&self.to_compressed().to_vec(), s)
    }
}

impl<'de> Deserialize<'de> for PublicKey {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v: Vec<u8> = serde::Deserialize::deserialize(d)?;
        let arr: [u8; 33] = v
            .try_into()
            .map_err(|_| serde::de::Error::custom("public key must be 33 bytes"))?;
        PublicKey::from_compressed(&arr)
            .ok_or_else(|| serde::de::Error::custom("invalid public key encoding"))
    }
}

/// An account address: the tagged hash of a public key.
///
/// Addresses are the on-chain identities of every ecosystem participant
/// (consumers, creators, fact checkers, publishers).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Address(Hash256);

impl Address {
    /// Sentinel address (all zero) used for system-originated transactions
    /// such as genesis grants.
    pub const SYSTEM: Address = Address(Hash256::ZERO);

    /// Wraps a raw hash as an address (for tests and deterministic setups).
    pub fn from_hash(h: Hash256) -> Address {
        Address(h)
    }

    /// The underlying hash.
    pub fn as_hash(&self) -> &Hash256 {
        &self.0
    }

    /// Short printable prefix for logs.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Debug for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Address({}…)", self.0.short())
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0.to_hex())
    }
}

/// A secret/public key pair plus the derived address.
///
/// # Example
///
/// ```
/// use tn_crypto::Keypair;
/// use tn_crypto::sha256::sha256;
///
/// let kp = Keypair::from_seed(b"alice");
/// let sig = kp.sign(&sha256(b"post"));
/// assert!(kp.public().verify(&sha256(b"post"), &sig));
/// ```
#[derive(Clone, Debug)]
pub struct Keypair {
    secret: SecretKey,
    public: PublicKey,
    address: Address,
}

impl Keypair {
    /// Deterministic key pair from seed bytes.
    pub fn from_seed(seed: &[u8]) -> Keypair {
        let secret = SecretKey::from_seed(seed);
        let public = secret.public();
        let address = public.address();
        Keypair {
            secret,
            public,
            address,
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The derived account address.
    pub fn address(&self) -> Address {
        self.address
    }

    /// Signs a 32-byte digest.
    pub fn sign(&self, msg: &Hash256) -> Signature {
        sign_digest(&self.secret.0, &self.public.0, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_seed_is_deterministic() {
        let a = Keypair::from_seed(b"seed");
        let b = Keypair::from_seed(b"seed");
        assert_eq!(a.public(), b.public());
        assert_eq!(a.address(), b.address());
    }

    #[test]
    fn different_seeds_different_keys() {
        assert_ne!(
            Keypair::from_seed(b"a").address(),
            Keypair::from_seed(b"b").address()
        );
    }

    #[test]
    fn public_key_round_trip() {
        let kp = Keypair::from_seed(b"rt");
        let enc = kp.public().to_compressed();
        let dec = PublicKey::from_compressed(&enc).expect("valid");
        assert_eq!(&dec, kp.public());
        assert_eq!(dec.address(), kp.address());
    }

    #[test]
    fn infinity_pubkey_rejected() {
        assert!(PublicKey::from_compressed(&[0u8; 33]).is_none());
    }

    #[test]
    fn address_is_stable_hash_of_pubkey() {
        let kp = Keypair::from_seed(b"stable");
        let again = kp.public().address();
        assert_eq!(again, kp.address());
        assert!(!kp.address().as_hash().is_zero());
    }

    #[test]
    fn debug_redacts_secret() {
        let kp = Keypair::from_seed(b"secret stuff");
        let s = format!("{:?}", kp);
        assert!(s.contains("redacted"));
    }

    #[test]
    fn system_address_is_zero() {
        assert!(Address::SYSTEM.as_hash().is_zero());
    }
}
