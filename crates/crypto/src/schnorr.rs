//! Schnorr signatures over secp256k1.
//!
//! Simplified BIP340-flavoured scheme:
//!
//! - nonce `k` is derived deterministically from the secret key and message
//!   via a tagged hash (no RNG needed at signing time, no nonce-reuse risk);
//! - challenge `e = H_tag("TN/challenge", R.x ‖ parity ‖ P ‖ m) mod n`;
//! - signature is `(R.x, parity(R.y), s)` with `s = k + e·d mod n`;
//! - verification recomputes `R' = s·G − e·P` and checks coordinates.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use crate::ec::{mul_generator, Affine, GENERATOR};
use crate::field::{add_mod, mul_mod, neg_mod, reduce, N};
use crate::hash::Hash256;
use crate::keys::PublicKey;
use crate::msm::{double_mul_glv, msm, SignerTables};
use crate::sha256::tagged_hash;
use crate::u256::U256;

/// A Schnorr signature: the nonce commitment (x coordinate + y parity) and
/// the response scalar.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Signature {
    /// x coordinate of the nonce point `R`, big-endian.
    pub r_x: [u8; 32],
    /// True when `R.y` is odd.
    pub r_parity_odd: bool,
    /// Response scalar `s`, big-endian.
    pub s: [u8; 32],
}

impl Signature {
    /// Serializes to 65 bytes: `r_x ‖ parity ‖ s`.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r_x);
        out[32] = self.r_parity_odd as u8;
        out[33..].copy_from_slice(&self.s);
        out
    }

    /// Parses the 65-byte encoding. Returns `None` if the parity byte is
    /// not 0 or 1.
    pub fn from_bytes(bytes: &[u8; 65]) -> Option<Signature> {
        if bytes[32] > 1 {
            return None;
        }
        let mut r_x = [0u8; 32];
        let mut s = [0u8; 32];
        r_x.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[33..]);
        Some(Signature {
            r_x,
            r_parity_odd: bytes[32] == 1,
            s,
        })
    }
}

/// The challenge scalar for the nonce point encoded as `r_x` and
/// `r_parity_odd` — the signature's own bytes, which the caller has
/// checked do name a curve point.
fn challenge(r_x: &[u8; 32], r_parity_odd: bool, pubkey: &Affine, msg: &Hash256) -> U256 {
    // `r_x ‖ parity ‖ P ‖ msg`, 98 bytes in one piece.
    let mut input = [0u8; 98];
    input[..32].copy_from_slice(r_x);
    input[32] = r_parity_odd as u8;
    input[33..66].copy_from_slice(&pubkey.to_compressed());
    input[66..].copy_from_slice(msg.as_bytes());
    let e = tagged_hash("TN/challenge", &input);
    reduce(&U256::from_be_bytes(e.as_bytes()), &N)
}

/// Signs a 32-byte message digest with secret scalar `d`.
///
/// `d` must be in `[1, n−1]` and `pubkey` must equal `d·G` (the
/// [`crate::keys::Keypair`] wrapper guarantees both).
pub(crate) fn sign_digest(d: &U256, pubkey: &Affine, msg: &Hash256) -> Signature {
    // Deterministic nonce: H(tag, d || msg || counter), retrying on the
    // (astronomically unlikely) zero or R-at-infinity cases.
    let mut counter = 0u32;
    loop {
        let mut seed = Vec::with_capacity(32 + 32 + 4);
        seed.extend_from_slice(&d.to_be_bytes());
        seed.extend_from_slice(msg.as_bytes());
        seed.extend_from_slice(&counter.to_be_bytes());
        let k = reduce(
            &U256::from_be_bytes(tagged_hash("TN/nonce", &seed).as_bytes()),
            &N,
        );
        counter += 1;
        if k.is_zero() {
            continue;
        }
        let r = mul_generator(&k);
        let (r_x, parity_odd) = match r {
            Affine::Infinity => continue,
            Affine::Point { x, y } => (x, y.is_odd()),
        };
        let r_x = r_x.to_be_bytes();
        let e = challenge(&r_x, parity_odd, pubkey, msg);
        let s = add_mod(&k, &mul_mod(&e, d, &N), &N);
        return Signature {
            r_x,
            r_parity_odd: parity_odd,
            s: s.to_be_bytes(),
        };
    }
}

/// A signature parsed and lifted for verification: the reconstructed
/// nonce point, the recomputed challenge, and the validated scalars.
struct Prepared {
    r: Affine,
    e: U256,
    s: U256,
}

/// Range-checks `sig`, reconstructs `R` from its x coordinate and parity,
/// and recomputes the challenge. `None` exactly when [`verify_digest`]
/// would reject before reaching the group equation.
fn prepare(pubkey: &Affine, msg: &Hash256, sig: &Signature) -> Option<Prepared> {
    let s = U256::from_be_bytes(&sig.s);
    if s >= N || matches!(pubkey, Affine::Infinity) {
        return None;
    }
    let r = Affine::lift_x(&U256::from_be_bytes(&sig.r_x), sig.r_parity_odd)?;
    // The lift accepts canonical x only, so `sig`'s bytes are R's encoding.
    let e = challenge(&sig.r_x, sig.r_parity_odd, pubkey, msg);
    Some(Prepared { r, e, s })
}

/// The [`SignerTables`] of the public keys a process verifies alone again
/// and again — a permissioned ledger's registered identities, each signing
/// transaction after transaction.
///
/// A key's first verification through a memo goes through
/// [`double_mul_glv`] as if there were no memo and leaves a mark; the
/// second spends the mark on building the key's tables and verifies with
/// them; from the third on the tables are looked up. A key seen once never
/// costs a build, and a key pays at most one build per two verifications
/// whatever evicts it in between or races it.
///
/// Bounded like the decode memo of [`PublicKey::from_compressed`]: at
/// [`SignerMemo::CAPACITY`] keys it starts over, so the worst case is
/// 1 024 × 2.4 KiB (tables, key and map slot) — under 4 MiB, reached only
/// by 1 024 distinct keys each verified at least twice.
#[derive(Debug, Default)]
pub struct SignerMemo(Mutex<HashMap<[u8; 33], Option<Arc<SignerTables>>>>);

impl SignerMemo {
    /// Keys (marked or with tables) a memo holds before it starts over.
    pub const CAPACITY: usize = 1024;

    /// An empty memo. [`PublicKey::verify`] uses one memo for the whole
    /// process; a test makes its own to meet a key for the first time
    /// more than once.
    pub fn new() -> SignerMemo {
        SignerMemo::default()
    }

    /// [`PublicKey::verify`] against this memo.
    pub fn verify(&self, key: &PublicKey, msg: &Hash256, sig: &Signature) -> bool {
        verify_digest(self, key.as_affine(), msg, sig)
    }

    /// The tables to verify `pubkey`'s signature with, or `None` when
    /// this is a first sighting (now marked).
    fn tables(&self, pubkey: &Affine) -> Option<Arc<SignerTables>> {
        // A panic elsewhere cannot leave wrong tables behind: entries are
        // written whole, built from the key they are filed under.
        let lock = || self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let key = pubkey.to_compressed();
        let file = |entry: Option<Arc<SignerTables>>| {
            let mut memo = lock();
            if memo.len() >= SignerMemo::CAPACITY {
                memo.clear();
            }
            memo.insert(key, entry.clone());
            entry
        };
        let mut memo = lock();
        match memo.get(&key).cloned() {
            Some(Some(tables)) => Some(tables),
            // Second sighting: the mark is spent on a build, made with
            // the lock released.
            Some(None) => {
                memo.remove(&key);
                drop(memo);
                file(Some(Arc::new(SignerTables::build(pubkey))))
            }
            None => {
                drop(memo);
                file(None)
            }
        }
    }
}

/// The memo behind [`PublicKey::verify`].
pub(crate) static PROCESS_SIGNERS: LazyLock<SignerMemo> = LazyLock::new(SignerMemo::new);

/// Verifies `sig` over `msg` against `pubkey`.
///
/// The group equation `s·G == R + e·P` is checked as
/// `s·G + (−e)·P + (−R) == ∞`: the two products come out of one shared
/// doubling chain — [`double_mul_glv`] for a key `signers` has not met,
/// [`SignerTables::double_mul`] for one it has — and the identity test is
/// free in Jacobian coordinates.
pub(crate) fn verify_digest(
    signers: &SignerMemo,
    pubkey: &Affine,
    msg: &Hash256,
    sig: &Signature,
) -> bool {
    let Some(Prepared { r, e, s }) = prepare(pubkey, msg, sig) else {
        return false;
    };
    let k = neg_mod(&e, &N);
    let sum = match signers.tables(pubkey) {
        Some(tables) => tables.double_mul(&s, &k),
        None => double_mul_glv(&s, pubkey, &k),
    };
    sum.add_affine(&r.negate()).is_infinity()
}

/// One batch-verification entry: public key, message digest, signature.
pub type BatchItem = (PublicKey, Hash256, Signature);

/// Nonzero 128-bit Fiat–Shamir coefficients, one per batch item.
///
/// Every coefficient is bound to the whole batch: a transcript hash
/// commits to `seed` and to each item's signature, public key and message;
/// `zᵢ` is then the tagged hash of the transcript and the item index,
/// truncated to 128 bits (and bumped to 1 in the 2⁻¹²⁸ zero case).
/// The derivation is pure — replicas hashing the same `seed` and items
/// compute bit-identical coefficients, which keeps the batched check a
/// deterministic function of block contents. Public so cross-replica
/// determinism is directly testable.
pub fn batch_coefficients(items: &[BatchItem], seed: &[u8]) -> Vec<U256> {
    let mut transcript = Vec::with_capacity(seed.len() + items.len() * (65 + 33 + 32));
    transcript.extend_from_slice(seed);
    for (pubkey, msg, sig) in items {
        transcript.extend_from_slice(&sig.to_bytes());
        transcript.extend_from_slice(&pubkey.to_compressed());
        transcript.extend_from_slice(msg.as_bytes());
    }
    let root = tagged_hash("TN/batch", &transcript);
    (0..items.len())
        .map(|i| {
            let mut data = [0u8; 40];
            data[..32].copy_from_slice(root.as_bytes());
            data[32..].copy_from_slice(&(i as u64).to_be_bytes());
            let h = tagged_hash("TN/batchcoef", &data);
            let wide = U256::from_be_bytes(h.as_bytes());
            let z = U256::from_limbs([wide.limbs()[0], wide.limbs()[1], 0, 0]);
            if z.is_zero() {
                U256::ONE
            } else {
                z
            }
        })
        .collect()
}

/// Batches of fewer items than this are their items' [`PublicKey::verify`]
/// calls, which cost less there (measured in [`crate::msm`]).
pub const LONE_BELOW: usize = 8;

/// Verifies a batch of Schnorr signatures with one multi-scalar check.
///
/// Accepts exactly when every item would pass [`PublicKey::verify`]
/// individually, up to the 2⁻¹²⁸ soundness error of the random linear
/// combination: with coefficients `zᵢ` from [`batch_coefficients`], the
/// batch is valid iff
///
/// ```text
/// (Σ zᵢ·sᵢ)·G − Σ zᵢ·Rᵢ − Σ (zᵢ·eᵢ)·Pᵢ == ∞
/// ```
///
/// Each term of the sum is the identity exactly when item `i` satisfies
/// its own verification equation, so a batch of valid signatures is
/// **never** rejected; an invalid item can only slip through if the
/// adversary predicts the Fiat–Shamir coefficients, which requires
/// breaking the hash. Repeated points (a block's repeat signers) are
/// coalesced into one MSM ([`crate::msm::msm`]) whose full-width scalars,
/// a key's `Σ zᵢ·eᵢ` and the generator's `−Σ zᵢ·sᵢ`, are split into
/// 128-bit halves beside the `Rᵢ`'s 128-bit `zᵢ`; fewer than [`LONE_BELOW`]
/// items are verified alone. Any malformed item (out-of-range scalar,
/// off-curve nonce, infinity key) fails the batch immediately; callers
/// fall back to per-item verification to localize the failure.
pub fn verify_batch(items: &[BatchItem], seed: &[u8]) -> bool {
    if items.len() < LONE_BELOW {
        return items
            .iter()
            .all(|(pubkey, msg, sig)| pubkey.verify(msg, sig));
    }
    let mut prepared = Vec::with_capacity(items.len());
    for (pubkey, msg, sig) in items {
        match prepare(pubkey.as_affine(), msg, sig) {
            Some(p) => prepared.push(p),
            None => return false,
        }
    }
    let zs = batch_coefficients(items, seed);
    // Coalesce duplicate points: one MSM pair per distinct point, scalars
    // accumulated mod n (sound because the curve group has prime order n).
    let mut pairs: Vec<(Affine, U256)> = Vec::with_capacity(2 * items.len() + 1);
    let mut slots: HashMap<[u8; 33], usize> = HashMap::with_capacity(2 * items.len() + 1);
    let mut accumulate = |pairs: &mut Vec<(Affine, U256)>, point: &Affine, scalar: U256| {
        let key = point.to_compressed();
        match slots.get(&key) {
            Some(&i) => pairs[i].1 = add_mod(&pairs[i].1, &reduce(&scalar, &N), &N),
            None => {
                slots.insert(key, pairs.len());
                pairs.push((*point, scalar));
            }
        }
    };
    let mut sg = U256::ZERO; // Σ z_i·s_i mod n
    for ((pubkey, _, _), (p, z)) in items.iter().zip(prepared.iter().zip(zs.iter())) {
        sg = add_mod(&sg, &mul_mod(z, &p.s, &N), &N);
        accumulate(&mut pairs, &p.r, *z);
        accumulate(&mut pairs, pubkey.as_affine(), mul_mod(z, &p.e, &N));
    }
    // Fold −(Σ z_i·s_i)·G into the same MSM; valid ⟺ the total is ∞.
    accumulate(&mut pairs, &GENERATOR, neg_mod(&sg, &N));
    msm(&pairs).is_infinity()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keypair;
    use crate::sha256::sha256;

    #[test]
    fn sign_verify_round_trip() {
        let kp = Keypair::from_seed(b"signer one");
        let msg = sha256(b"the facts of the matter");
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(b"determinism");
        let msg = sha256(b"same message");
        assert_eq!(kp.sign(&msg), kp.sign(&msg));
    }

    #[test]
    fn different_messages_different_sigs() {
        let kp = Keypair::from_seed(b"k");
        assert_ne!(kp.sign(&sha256(b"a")), kp.sign(&sha256(b"b")));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = Keypair::from_seed(b"k");
        let sig = kp.sign(&sha256(b"original"));
        assert!(!kp.public().verify(&sha256(b"tampered"), &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(b"k1");
        let kp2 = Keypair::from_seed(b"k2");
        let msg = sha256(b"msg");
        let sig = kp1.sign(&msg);
        assert!(!kp2.public().verify(&msg, &sig));
    }

    #[test]
    fn corrupted_signature_fields_rejected() {
        let kp = Keypair::from_seed(b"k");
        let msg = sha256(b"msg");
        let good = kp.sign(&msg);

        let mut bad = good;
        bad.s[31] ^= 1;
        assert!(!kp.public().verify(&msg, &bad));

        let mut bad = good;
        bad.r_x[0] ^= 1;
        assert!(!kp.public().verify(&msg, &bad));

        let mut bad = good;
        bad.r_parity_odd = !bad.r_parity_odd;
        assert!(!kp.public().verify(&msg, &bad));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = Keypair::from_seed(b"k");
        let sig = kp.sign(&sha256(b"m"));
        let parsed = Signature::from_bytes(&sig.to_bytes()).expect("valid");
        assert_eq!(parsed, sig);
    }

    #[test]
    fn from_bytes_rejects_bad_parity() {
        let mut raw = [0u8; 65];
        raw[32] = 2;
        assert!(Signature::from_bytes(&raw).is_none());
    }

    #[test]
    fn out_of_range_s_rejected() {
        let kp = Keypair::from_seed(b"k");
        let msg = sha256(b"m");
        let mut sig = kp.sign(&msg);
        sig.s = [0xffu8; 32]; // >= n
        assert!(!kp.public().verify(&msg, &sig));
    }

    #[test]
    fn memo_marks_then_builds_and_starts_over_when_full() {
        let memo = SignerMemo::new();
        let msg = sha256(b"m");
        let state = |kp: &Keypair| {
            let held = memo.0.lock().unwrap();
            held.get(&kp.public().to_compressed())
                .map(|entry| entry.is_some())
        };
        let verify = |kp: &Keypair| assert!(memo.verify(kp.public(), &msg, &kp.sign(&msg)));
        let regular = Keypair::from_seed(b"regular");
        assert_eq!(state(&regular), None);
        verify(&regular);
        assert_eq!(state(&regular), Some(false), "seen once: a mark, no tables");
        verify(&regular);
        assert_eq!(state(&regular), Some(true), "seen twice: tables");
        verify(&regular);
        assert_eq!(state(&regular), Some(true));
        // A rejected signature counts as a sighting like any other.
        let other = Keypair::from_seed(b"other");
        assert!(!memo.verify(other.public(), &msg, &regular.sign(&msg)));
        assert_eq!(state(&other), Some(false));
        for i in 0..SignerMemo::CAPACITY as u32 {
            verify(&Keypair::from_seed(&i.to_be_bytes()));
            assert!(memo.0.lock().unwrap().len() <= SignerMemo::CAPACITY);
        }
        assert_eq!(state(&regular), None, "the memo started over");
        verify(&regular);
        assert_eq!(state(&regular), Some(false));
    }

    /// Batch of `n` items signed by `signers` distinct keys (round-robin).
    fn make_batch(n: usize, signers: usize) -> Vec<BatchItem> {
        let keys: Vec<Keypair> = (0..signers)
            .map(|i| Keypair::from_seed(format!("batch signer {i}").as_bytes()))
            .collect();
        (0..n)
            .map(|i| {
                let kp = &keys[i % signers];
                let msg = sha256(format!("batch message {i}").as_bytes());
                (*kp.public(), msg, kp.sign(&msg))
            })
            .collect()
    }

    #[test]
    fn batch_accepts_valid_signatures() {
        // Straus-sized and Pippenger-sized batches, few and many signers.
        for (n, signers) in [(0, 1), (1, 1), (2, 2), (7, 3), (64, 4), (80, 80)] {
            let items = make_batch(n, signers.max(1));
            assert!(verify_batch(&items, b"seed"), "n={n} signers={signers}");
        }
    }

    #[test]
    fn batch_rejects_any_corrupted_item() {
        let mut items = make_batch(9, 3);
        items[4].2.s[31] ^= 1;
        assert!(!verify_batch(&items, b"seed"));

        let mut items = make_batch(9, 3);
        items[0].2.r_x[0] ^= 1;
        assert!(!verify_batch(&items, b"seed"));

        let mut items = make_batch(9, 3);
        items[8].1 = sha256(b"swapped message");
        assert!(!verify_batch(&items, b"seed"));
    }

    #[test]
    fn batch_rejects_malformed_item() {
        let mut items = make_batch(5, 2);
        items[2].2.s = [0xffu8; 32]; // >= n: prepare() fails
        assert!(!verify_batch(&items, b"seed"));
    }

    #[test]
    fn batch_matches_individual_verdicts() {
        // Clean, poisoned (one bad item, at either end or inside) and
        // half-valid batches, for every way an item can be wrong, on both
        // sides of the lone/equation and Straus/Pippenger crossovers (each
        // item contributes up to two MSM points).
        type Corruption = fn(&mut BatchItem);
        let corruptions: [Corruption; 6] = [
            |item| item.2.s[30] ^= 0x40,
            |item| item.2.s = [0xff; 32],
            |item| item.2.r_x[7] ^= 1,
            |item| item.2.r_parity_odd = !item.2.r_parity_odd,
            |item| item.1 = sha256(b"another message"),
            |item| item.0 = *Keypair::from_seed(b"another signer").public(),
        ];
        for (n, signers) in [(2, 2), (LONE_BELOW - 1, 2), (LONE_BELOW, 2), (40, 40)] {
            let clean = make_batch(n, signers);
            assert!(verify_batch(&clean, b"seed"), "n={n}");
            for (c, corrupt) in corruptions.iter().enumerate() {
                let poisoned = [vec![0], vec![n / 2], vec![n - 1]];
                let half = (0..n).step_by(2).collect();
                for positions in poisoned.into_iter().chain([half]) {
                    let mut items = clean.clone();
                    positions.iter().for_each(|&i| corrupt(&mut items[i]));
                    let individual: Vec<bool> =
                        items.iter().map(|(pk, m, s)| pk.verify(m, s)).collect();
                    for &i in &positions {
                        assert!(!individual[i], "corruption {c} must invalidate item {i}");
                    }
                    assert_eq!(
                        verify_batch(&items, b"seed"),
                        individual.iter().all(|&ok| ok),
                        "n={n} corruption={c} at {positions:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_single_signer_coalesces_correctly() {
        // All items share one public key: the coalesced MSM has just two
        // distinct variable points besides G, exercising scalar
        // accumulation mod n.
        let items = make_batch(33, 1);
        assert!(verify_batch(&items, b"seed"));
        let mut bad = items;
        bad[17].2.s[31] ^= 2;
        assert!(!verify_batch(&bad, b"seed"));
    }

    #[test]
    fn batch_coefficients_deterministic_and_seed_bound() {
        let items = make_batch(6, 2);
        let a = batch_coefficients(&items, b"block id");
        let b = batch_coefficients(&items, b"block id");
        assert_eq!(a, b, "same inputs must give identical coefficients");
        let c = batch_coefficients(&items, b"other block");
        assert_ne!(a, c, "coefficients must bind the seed");
        // 128-bit truncation: high limbs clear, coefficients nonzero.
        for z in &a {
            assert_eq!(z.limbs()[2], 0);
            assert_eq!(z.limbs()[3], 0);
            assert!(!z.is_zero());
        }
    }

    #[test]
    fn batch_coefficients_bind_item_order() {
        let items = make_batch(4, 4);
        let mut swapped = items.clone();
        swapped.swap(1, 2);
        assert_ne!(
            batch_coefficients(&items, b"s"),
            batch_coefficients(&swapped, b"s")
        );
    }
}
