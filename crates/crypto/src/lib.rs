//! # tn-crypto
//!
//! From-scratch cryptographic primitives backing the trusting-news
//! blockchain platform.
//!
//! The paper ("AI Blockchain Platform for Trusting News", ICDCS 2019) relies
//! on a permissioned blockchain substrate in which every news item and every
//! propagation step is a signed, hash-linked transaction. This crate supplies
//! the primitives that substrate needs without external crypto dependencies:
//!
//! - [`sha256`]: SHA-256 and tagged hashes on one compression — the CPU's
//!   SHA extensions where run-time detection finds them, the portable
//!   FIPS 180-4 rounds elsewhere and as the tests' reference.
//! - [`u256`]: fixed-width 256-bit unsigned integer arithmetic (with 512-bit
//!   multiplication intermediates).
//! - [`field`]: the dedicated base-field element `Fe` for
//!   `p = 2^256 − 0x1000003D1` — schoolbook 4×4 limb product (dedicated
//!   squaring), reduced by two single-limb folds of the high half times
//!   `0x1000003D1` and one conditional subtraction; inversion and square
//!   root by the fixed addition chains for `p − 2` and `(p + 1)/4` — plus
//!   the generic `*_mod` family that serves the group order `n` and is the
//!   reference `Fe` is tested against.
//! - [`ec`]: secp256k1 group operations in Jacobian coordinates over
//!   `Fe`; `k·G` from a 19 × 64 signed-digit comb (at most 38 mixed
//!   additions, no doublings), and the endomorphism `λ·(x, y) = (β·x, y)`
//!   for one field multiplication.
//! - [`msm`]: multi-scalar multiplication on endomorphism-split half-width
//!   scalars — Straus for small batches, signed-digit Pippenger buckets for
//!   large ones — behind batch signature verification, and the `s·G + k·P`
//!   of a single verification on one half-width doubling chain.
//! - [`schnorr`]: Schnorr signatures over secp256k1 (BIP340-flavoured, but
//!   simplified: the nonce is derived deterministically from the secret key
//!   and message).
//! - [`merkle`]: binary Merkle trees with inclusion proofs, used to anchor
//!   block transaction sets.
//! - [`history`]: RFC 6962-style append-only history trees with
//!   consistency proofs, used by the factual database so clients can audit
//!   that it only ever grows.
//! - `keys`: key pairs and addresses (hash-of-public-key identities).
//! - [`hex`]: hexadecimal encoding/decoding helpers.
//!
//! # Security note
//!
//! These implementations are *functionally* correct (tested against known
//! vectors and algebraic properties) but are **not** hardened: nothing
//! here is constant-time (the field reduction, the scalar recodings and the
//! table lookups all branch or index on secret data), and there is no
//! side-channel resistance. They exist so the
//! reproduction is self-contained; a production deployment would swap in
//! audited crates behind the same interfaces.
//!
//! Exactly one `unsafe` block exists: [`sha256`]'s call to its compression
//! on the SHA extensions, a safe `#[target_feature(enable = "sha,sse4.1")]`
//! fn that touches no memory but its arguments. It is sound because it is
//! made only after `is_x86_feature_detected!` found both on the running CPU.
//!
//! # Example
//!
//! ```
//! use tn_crypto::Keypair;
//! use tn_crypto::sha256::sha256;
//!
//! let kp = Keypair::from_seed(b"example seed");
//! let msg = sha256(b"breaking news: reproducible systems research");
//! let sig = kp.sign(&msg);
//! assert!(kp.public().verify(&msg, &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ec;
pub mod field;
mod hash;
pub mod hex;
pub mod history;
mod keys;
pub mod merkle;
pub mod msm;
pub mod schnorr;
pub mod sha256;
pub mod u256;

pub use hash::Hash256;
pub use keys::{Address, Keypair, PublicKey, SecretKey};
pub use schnorr::{batch_coefficients, verify_batch, BatchItem, Signature};
