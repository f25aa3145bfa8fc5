//! Verdict-for-verdict oracle for single-signature verification.
//!
//! [`PublicKey::verify`] runs the group equation through one of two walks
//! over the same streams: the GLV-split four-term kernel
//! ([`tn_crypto::msm::double_mul_glv`]) for a key the process's
//! [`SignerMemo`] has not met, and the eight-term walk over stored tables
//! ([`tn_crypto::msm::SignerTables`]) from the key's second verification
//! on. A wrong table is a wrong verdict and nothing else — no digest, no
//! error — so every case here is put to a fresh memo three times: the
//! first sighting, the sighting that builds the tables, and one that
//! reads them back. The reference is the definition and nothing else:
//! range-check `s`, recompute the challenge from the signature's bytes,
//! compute `R' = s·G − e·P` with two plain double-and-add ladders and one
//! affine conversion, and accept exactly when `R'` is finite and encodes
//! to the signature's `r_x` and parity. It shares no window, table,
//! recoding or endomorphism with the kernels, and it never lifts `r_x` to
//! a point.

use proptest::prelude::*;
use tn_crypto::ec::{mul_generator, Affine, Jacobian, GENERATOR};
use tn_crypto::field::{add_mod, mul_mod, neg_mod, reduce, LAMBDA, N, P};
use tn_crypto::msm::{
    double_mul_glv, glv_halves, msm, pippenger, signed_digits, straus, SignerTables, PIPPENGER_FROM,
};
use tn_crypto::schnorr::{SignerMemo, LONE_BELOW};
use tn_crypto::sha256::{sha256, tagged_hash};
use tn_crypto::u256::U256;
use tn_crypto::{verify_batch, BatchItem, Hash256, Keypair, PublicKey, Signature};

/// `a·G + b·Q` by two ladders.
fn ladder_sum(a: &U256, q: &Affine, b: &U256) -> Affine {
    Jacobian::from_affine(&GENERATOR)
        .mul_scalar(a)
        .add(&Jacobian::from_affine(q).mul_scalar(b))
        .to_affine()
}

fn challenge(r_x: &[u8; 32], r_parity_odd: bool, key: &PublicKey, msg: &Hash256) -> U256 {
    let mut data = Vec::with_capacity(98);
    data.extend_from_slice(r_x);
    data.push(r_parity_odd as u8);
    data.extend_from_slice(&key.to_compressed());
    data.extend_from_slice(msg.as_bytes());
    reduce(
        &U256::from_be_bytes(tagged_hash("TN/challenge", &data).as_bytes()),
        &N,
    )
}

/// The scheme's definition of a valid signature.
fn reference_verify(key: &PublicKey, msg: &Hash256, sig: &Signature) -> bool {
    let s = U256::from_be_bytes(&sig.s);
    if s >= N {
        return false;
    }
    let point = Affine::from_compressed(&key.to_compressed()).expect("a public key decodes");
    let e = challenge(&sig.r_x, sig.r_parity_odd, key, msg);
    match ladder_sum(&s, &point, &neg_mod(&e, &N)) {
        Affine::Infinity => false,
        Affine::Point { x, y } => x.to_be_bytes() == sig.r_x && y.is_odd() == sig.r_parity_odd,
    }
}

/// Asserts that verification agrees with the reference on
/// `(key, msg, sig)` at every stage of a memo's acquaintance with the key
/// — first sighting, table-building sighting, tables read back — and
/// through the process's own memo, whatever it holds; returns the verdict.
fn agreed_verdict(key: &PublicKey, msg: &Hash256, sig: &Signature) -> bool {
    let expect = reference_verify(key, msg, sig);
    let memo = SignerMemo::new();
    let stages = [
        ("first sighting", memo.verify(key, msg, sig)),
        ("table build", memo.verify(key, msg, sig)),
        ("from the memo", memo.verify(key, msg, sig)),
        ("process memo", key.verify(msg, sig)),
    ];
    for (stage, got) in stages {
        assert_eq!(
            got,
            expect,
            "{stage}: key={:02x?} msg={msg:?} sig={sig:?}",
            key.to_compressed()
        );
    }
    expect
}

/// A signature by the secret scalar `d` with the nonce `k` chosen by the
/// caller (the crate's own signer derives both from hashes, which cannot
/// be steered onto the table-collision cases).
fn sign_with(d: &U256, k: &U256, msg: &Hash256) -> (PublicKey, Signature) {
    let key = PublicKey::from_compressed(&mul_generator(d).to_compressed()).expect("d in 1..n");
    let Affine::Point { x, y } = mul_generator(k) else {
        panic!("nonce must be in 1..n");
    };
    let (r_x, r_parity_odd) = (x.to_be_bytes(), y.is_odd());
    let e = challenge(&r_x, r_parity_odd, &key, msg);
    let s = add_mod(k, &mul_mod(&e, d, &N), &N);
    let sig = Signature {
        r_x,
        r_parity_odd,
        s: s.to_be_bytes(),
    };
    (key, sig)
}

fn flip(bytes: &mut [u8], bit: usize) {
    bytes[bit / 8] ^= 1 << (bit % 8);
}

/// Every one-bit corruption of `(key, msg, sig)`; a key that no longer
/// decodes is no key, so those flips are skipped.
fn single_bit_flips(
    key: &PublicKey,
    msg: &Hash256,
    sig: &Signature,
) -> Vec<(PublicKey, Hash256, Signature)> {
    let mut out = Vec::new();
    for bit in 0..256 {
        let (mut r, mut s, mut m) = (*sig, *sig, msg.into_bytes());
        flip(&mut r.r_x, bit);
        flip(&mut s.s, bit);
        flip(&mut m, bit);
        out.push((*key, *msg, r));
        out.push((*key, *msg, s));
        out.push((*key, Hash256::from_bytes(m), *sig));
    }
    let mut parity = *sig;
    parity.r_parity_odd = !parity.r_parity_odd;
    out.push((*key, *msg, parity));
    for bit in 0..33 * 8 {
        let mut k = key.to_compressed();
        flip(&mut k, bit);
        if let Some(other) = PublicKey::from_compressed(&k) {
            out.push((other, *msg, *sig));
        }
    }
    out
}

#[test]
fn valid_signatures_and_every_single_bit_flip() {
    let kp = Keypair::from_seed(b"oracle signer");
    let msg = sha256(b"oracle message");
    let sig = kp.sign(&msg);
    assert!(agreed_verdict(kp.public(), &msg, &sig));
    let flips = single_bit_flips(kp.public(), &msg, &sig);
    assert!(
        flips.len() > 3 * 256 + 1 + 100,
        "about half the key flips decode"
    );
    for (key, msg, sig) in flips {
        assert!(!agreed_verdict(&key, &msg, &sig), "a flipped bit verified");
    }
}

#[test]
fn response_scalar_at_and_beyond_the_group_order() {
    let kp = Keypair::from_seed(b"oracle signer");
    let msg = sha256(b"range");
    let good = kp.sign(&msg);
    for s in [
        U256::ZERO,
        U256::ONE,
        N.wrapping_sub(&U256::ONE),
        N,
        N.wrapping_add(&U256::ONE),
        U256::MAX,
    ] {
        let mut sig = good;
        sig.s = s.to_be_bytes();
        assert!(!agreed_verdict(kp.public(), &msg, &sig), "s={}", s.to_hex());
    }
    // No signature can be *made* valid with a chosen s (s = k + e·d, and
    // e hashes the nonce point), so s = 0 and s = n − 1 holding is checked
    // on the equation itself: R = s·G − e·P for the forced s.
    let p = mul_generator(&U256::from_u64(0x5eed));
    let e = U256::from_u64(0xe);
    for s in [U256::ZERO, N.wrapping_sub(&U256::ONE)] {
        assert_equation_agrees(&s, &p, &e);
    }
}

#[test]
fn nonce_encodings_that_name_no_point() {
    let kp = Keypair::from_seed(b"oracle signer");
    let msg = sha256(b"nonce");
    let good = kp.sign(&msg);
    // x ≥ p is not canonical; x = 5 is on no point (5³ + 7 is a
    // non-residue).
    for x in [P, P.wrapping_add(&U256::ONE), U256::MAX, U256::from_u64(5)] {
        for parity in [false, true] {
            let sig = Signature {
                r_x: x.to_be_bytes(),
                r_parity_odd: parity,
                s: good.s,
            };
            assert!(!agreed_verdict(kp.public(), &msg, &sig), "x={}", x.to_hex());
        }
    }
}

/// The group equation with every input forced: both kernels'
/// `s·G + (−e)·P − R == ∞` against the ladders' `s·G − e·P == R`, on the
/// `R` that makes it hold and on a wrong one.
fn assert_equation_agrees(s: &U256, p: &Affine, e: &U256) {
    let neg_e = neg_mod(e, &N);
    let r = ladder_sum(s, p, &neg_e);
    let wrong = ladder_sum(&add_mod(s, &U256::ONE, &N), p, &neg_e);
    let kernels = [
        double_mul_glv(s, p, &neg_e),
        SignerTables::build(p).double_mul(s, &neg_e),
    ];
    for lhs in kernels {
        assert_eq!(lhs.to_affine(), r, "s={} e={}", s.to_hex(), e.to_hex());
        assert!(lhs.add_affine(&r.negate()).is_infinity());
        assert!(!lhs.add_affine(&wrong.negate()).is_infinity());
    }
}

/// Secret scalars whose public keys sit in the kernels' static tables or
/// are their negations — `±G`, `±λG`, `±2^64·G`, `±2^64·λG`, and `λ²G`,
/// `2G`, `15G`, `31G` — so the accumulator can hold the very entry the
/// next digit adds (`crates/crypto/src/msm.rs`'s unit tests count those
/// additions).
fn table_collision_secrets() -> Vec<U256> {
    let two64 = U256::ONE.shl(64);
    let bases = [U256::ONE, LAMBDA, two64, mul_mod(&two64, &LAMBDA, &N)];
    let mut secrets: Vec<U256> = bases.iter().flat_map(|b| [*b, neg_mod(b, &N)]).collect();
    secrets.push(mul_mod(&LAMBDA, &LAMBDA, &N));
    secrets.extend([2, 15, 31].map(U256::from_u64));
    secrets
}

#[test]
fn challenge_forced_to_zero_and_other_edge_equations() {
    let mut points: Vec<Affine> = table_collision_secrets()
        .iter()
        .map(mul_generator)
        .collect();
    points.push(mul_generator(&U256::from_u64(0xfeed_f00d)));
    let edge = [
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        U256::from_u64(15),
        U256::ONE.shl(64),
        LAMBDA,
        N.wrapping_sub(&LAMBDA),
        N.wrapping_sub(&U256::ONE),
        U256::from_be_bytes(sha256(b"a full-width scalar").as_bytes()),
    ];
    for p in &points {
        for s in &edge {
            for e in &edge {
                assert_equation_agrees(s, p, &reduce(e, &N));
            }
        }
    }
}

#[test]
fn keys_that_collide_with_the_static_tables() {
    let msg = sha256(b"collision");
    for d in table_collision_secrets() {
        // Nonces that put R on a table entry too, and an ordinary one.
        for k in [U256::ONE, d, U256::from_u64(3), U256::from_u64(0xabcdef)] {
            let (key, sig) = sign_with(&d, &k, &msg);
            assert!(agreed_verdict(&key, &msg, &sig), "d={}", d.to_hex());
            for bit in [0usize, 7, 128, 255] {
                let mut bad = sig;
                flip(&mut bad.s, bit);
                assert!(!agreed_verdict(&key, &msg, &bad));
                let mut bad = sig;
                flip(&mut bad.r_x, bit);
                assert!(!agreed_verdict(&key, &msg, &bad));
            }
            let other = sha256(b"another message");
            assert!(!agreed_verdict(&key, &other, &sig));
        }
    }
}

#[test]
fn a_memo_that_starts_over_keeps_its_verdicts() {
    // One signer met twice (tables built), then more one-off signers than
    // the memo holds: it starts over somewhere among them and the signer
    // is a stranger again — first sighting, build, memo — with every
    // verdict, a stranger's and a forger's included, the reference's.
    let memo = SignerMemo::new();
    let agreed = |key: &PublicKey, msg: &Hash256, sig: &Signature| {
        let got = memo.verify(key, msg, sig);
        assert_eq!(got, reference_verify(key, msg, sig));
        got
    };
    let regular = Keypair::from_seed(b"a regular");
    let msg = sha256(b"again and again");
    let (sig, forged) = (regular.sign(&msg), Keypair::from_seed(b"forger").sign(&msg));
    for _ in 0..3 {
        assert!(agreed(regular.public(), &msg, &sig));
        assert!(!agreed(regular.public(), &msg, &forged));
    }
    for i in 0..SignerMemo::CAPACITY as u32 + 8 {
        let passerby = Keypair::from_seed(&i.to_be_bytes());
        let theirs = passerby.sign(&msg);
        assert!(agreed(passerby.public(), &msg, &theirs));
        // Every 64th comes back, so tables are built all along the way.
        if i % 64 == 0 {
            assert!(agreed(passerby.public(), &msg, &theirs));
            assert!(!agreed(passerby.public(), &msg, &sig));
        }
    }
    for _ in 0..3 {
        assert!(agreed(regular.public(), &msg, &sig));
        assert!(!agreed(regular.public(), &msg, &forged));
    }
}

#[test]
fn eight_threads_meet_a_key_while_its_tables_are_built() {
    // The key has been seen once, so the next verification builds its
    // tables with the memo unlocked; all eight threads leave the barrier
    // into that window, each with its own mix of signatures that hold and
    // signatures that do not. Whichever of them builds, marks or reads,
    // every verdict is the reference's.
    let kp = Keypair::from_seed(b"contended signer");
    let cases: Vec<(Hash256, Signature, bool)> = (0..16u8)
        .map(|i| {
            let msg = sha256(&[i]);
            let mut sig = kp.sign(&msg);
            if i % 3 == 0 {
                flip(&mut sig.s, i as usize);
            }
            let expect = reference_verify(kp.public(), &msg, &sig);
            assert_eq!(expect, i % 3 != 0);
            (msg, sig, expect)
        })
        .collect();
    for round in 0..24 {
        let memo = SignerMemo::new();
        assert!(memo.verify(kp.public(), &cases[1].0, &cases[1].1));
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (memo, barrier, cases, key) = (&memo, &barrier, &cases, kp.public());
                scope.spawn(move || {
                    barrier.wait();
                    for (msg, sig, expect) in cases.iter().cycle().skip(t * 2).take(6) {
                        assert_eq!(memo.verify(key, msg, sig), *expect, "round {round}");
                    }
                });
            }
        });
    }
}

fn arb_scalar() -> impl Strategy<Value = U256> {
    any::<[u64; 4]>().prop_map(|l| reduce(&U256::from_limbs(l), &N))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_verdicts_match_the_reference(
        seed in any::<[u8; 16]>(),
        body in any::<[u8; 24]>(),
        target in 0usize..4,
        bit in 0usize..256,
    ) {
        let kp = Keypair::from_seed(&seed);
        let msg = sha256(&body);
        let sig = kp.sign(&msg);
        prop_assert!(agreed_verdict(kp.public(), &msg, &sig));
        let (mut bad_sig, mut bad_msg) = (sig, msg.into_bytes());
        match target {
            0 => flip(&mut bad_sig.r_x, bit),
            1 => flip(&mut bad_sig.s, bit),
            2 => flip(&mut bad_msg, bit),
            _ => bad_sig.r_parity_odd = !bad_sig.r_parity_odd,
        }
        prop_assert!(!agreed_verdict(kp.public(), &Hash256::from_bytes(bad_msg), &bad_sig));
        // Someone else's key.
        let other = Keypair::from_seed(&body);
        prop_assert!(!agreed_verdict(other.public(), &msg, &sig));
    }

    #[test]
    fn prop_chosen_secrets_and_nonces_verify(
        d in arb_scalar(),
        k in arb_scalar(),
        body in any::<[u8; 24]>(),
    ) {
        prop_assume!(!d.is_zero() && !k.is_zero());
        let msg = sha256(&body);
        let (key, sig) = sign_with(&d, &k, &msg);
        prop_assert!(agreed_verdict(&key, &msg, &sig));
    }

    #[test]
    fn prop_equation_matches_the_ladders(
        s in arb_scalar(),
        e in arb_scalar(),
        d in arb_scalar(),
    ) {
        assert_equation_agrees(&s, &mul_generator(&d), &e);
    }
}

/// `n` items signed round-robin by `signers` keys.
fn signed_batch(n: usize, signers: usize) -> Vec<BatchItem> {
    let keys: Vec<Keypair> = (0..signers)
        .map(|i| Keypair::from_seed(format!("batch oracle signer {i}").as_bytes()))
        .collect();
    (0..n)
        .map(|i| {
            let kp = &keys[i % signers];
            let msg = sha256(format!("batch oracle message {i}").as_bytes());
            (*kp.public(), msg, kp.sign(&msg))
        })
        .collect()
}

/// `verify_batch` against the reference verdict of every item, for every
/// way an item can be wrong, at one item, the middle one, the last one and
/// every other one — on each side of both crossovers the batch kernel has:
/// lone verifications below [`LONE_BELOW`] items, and [`PIPPENGER_FROM`]
/// pairs between the shared-doubling walk and the signed buckets (three
/// signers: `n` nonces, three keys and the generator make `n + 4` pairs).
/// 128 is an admission chunk; 513 is past the default equation size.
#[test]
fn batch_verdicts_are_the_individual_verdicts_at_every_crossover() {
    type Corruption = fn(&mut BatchItem);
    let corruptions: [Corruption; 7] = [
        |item| flip(&mut item.2.s, 3),
        |item| item.2.s = N.to_be_bytes(),
        |item| flip(&mut item.2.r_x, 200),
        |item| item.2.r_parity_odd = !item.2.r_parity_odd,
        |item| item.1 = sha256(b"a message nobody signed"),
        |item| item.0 = *Keypair::from_seed(b"batch oracle stranger").public(),
        // The signature its signer made over another message.
        |item| item.2 = Keypair::from_seed(b"batch oracle signer 0").sign(&sha256(b"other")),
    ];
    let crossing = PIPPENGER_FROM - 4;
    let sizes = [
        2,
        LONE_BELOW - 1,
        LONE_BELOW,
        LONE_BELOW + 1,
        crossing - 1,
        crossing,
        crossing + 1,
        128,
        513,
    ];
    for n in sizes {
        let clean = signed_batch(n, 3);
        assert!(clean.iter().all(|(k, m, s)| reference_verify(k, m, s)));
        assert!(verify_batch(&clean, b"oracle"), "n={n}");
        let every_other: Vec<usize> = (0..n).step_by(2).collect();
        for (c, corrupt) in corruptions.iter().enumerate() {
            for positions in [vec![0], vec![n / 2], vec![n - 1], every_other.clone()] {
                let mut items = clean.clone();
                positions.iter().for_each(|&i| corrupt(&mut items[i]));
                let expect = positions
                    .iter()
                    .all(|&i| reference_verify(&items[i].0, &items[i].1, &items[i].2));
                assert_eq!(
                    verify_batch(&items, b"oracle"),
                    expect,
                    "n={n} corruption={c} at {} positions from {}",
                    positions.len(),
                    positions[0]
                );
            }
        }
    }
}

/// `Σ kᵢ·Pᵢ` by one plain ladder per pair.
fn ladder_msm(pairs: &[(Affine, U256)]) -> Affine {
    let sum = pairs.iter().fold(Jacobian::infinity(), |acc, (p, k)| {
        acc.add(&Jacobian::from_affine(p).mul_scalar(k))
    });
    sum.to_affine()
}

/// The batch kernels against the ladders on scalars whose endomorphism
/// halves are zero (λ, anything below 2^128), negative (n − 1, −λ), at the
/// 128-bit edge or of a scalar ≥ n, over a point, its negation, repeats,
/// other points and infinity — one pair at a time and all together.
#[test]
fn msm_kernels_match_the_ladders_on_split_edge_scalars() {
    let p = mul_generator(&U256::from_u64(99));
    let two128 = U256::ONE.shl(128);
    let mut ks = vec![
        U256::ZERO,
        U256::ONE,
        U256::MAX,
        two128.wrapping_sub(&U256::ONE),
    ];
    ks.extend([
        LAMBDA,
        neg_mod(&LAMBDA, &N),
        N.wrapping_sub(&U256::ONE),
        two128,
    ]);
    ks.extend([
        two128.wrapping_add(&U256::ONE),
        N,
        N.wrapping_add(&U256::from_u64(5)),
    ]);
    let mut pairs: Vec<(Affine, U256)> = ks.iter().map(|k| (p, *k)).collect();
    pairs.extend(ks.iter().map(|k| (p.negate(), *k)));
    pairs.extend(
        ks.iter()
            .map(|k| (mul_generator(&k.wrapping_add(&U256::ONE)), *k)),
    );
    pairs.push((Affine::Infinity, U256::MAX));
    for (i, pair) in pairs.iter().enumerate() {
        let one = std::slice::from_ref(pair);
        let (expect, halves) = (ladder_msm(one), glv_halves(one));
        assert!(halves.iter().all(|(_, k)| k.bits() <= 129), "pair {i}");
        assert_eq!(ladder_msm(&halves), expect, "pair {i}");
        assert_eq!(pippenger(&halves, 5).to_affine(), expect, "pair {i}");
        assert_eq!(straus(one).to_affine(), expect, "pair {i}");
    }
    let expect = ladder_msm(&pairs);
    assert_eq!(msm(&pairs).to_affine(), expect);
    assert_eq!(straus(&pairs).to_affine(), expect);
    for c in [2, 6, 9] {
        assert_eq!(
            pippenger(&glv_halves(&pairs), c).to_affine(),
            expect,
            "c={c}"
        );
    }
}

/// The signed recoding under the buckets and the signing comb, against
/// its definition: digits in `[−2^(c−1), 2^(c−1)]`, `b / c + 1` of them
/// for a `b`-bit scalar with zeros after — the carry out of the top window
/// placed — and `Σ dⱼ·2^(c·j)` the scalar again.
#[test]
fn signed_digits_stay_in_range_recombine_and_place_the_final_carry() {
    let all_ones = U256::ONE.shl(128).wrapping_sub(&U256::ONE);
    let mut ks = vec![
        U256::ZERO,
        U256::ONE,
        U256::MAX,
        N,
        all_ones,
        all_ones.shl(1),
    ];
    for i in 0u8..64 {
        let k = U256::from_be_bytes(sha256(&[i]).as_bytes());
        ks.extend([k, k.shr(128), k.shr(u32::from(i) * 4)]);
    }
    for c in [1u32, 2, 5, 7, 8, 11, 16] {
        let half = 1i32 << (c - 1);
        for k in &ks {
            let count = (k.bits() / c + 1) as usize;
            let digits: Vec<i32> = signed_digits(k, c).take(count + 4).collect();
            assert!(digits.iter().all(|d| (-half..=half).contains(d)), "c={c}");
            assert!(digits[count..].iter().all(|&d| d == 0), "c={c}");
            // Horner from the top, modulo 2^256.
            let sum = digits[..count].iter().rev().fold(U256::ZERO, |sum, &d| {
                let magnitude = U256::from_u64(u64::from(d.unsigned_abs()));
                if d >= 0 {
                    sum.shl(c).wrapping_add(&magnitude)
                } else {
                    sum.shl(c).wrapping_sub(&magnitude)
                }
            });
            assert_eq!(sum, *k, "c={c} k={}", k.to_hex());
        }
    }
    // 2^128 − 1 in 8-bit windows: −1, then fifteen windows of 0xff plus
    // the carry, each 0 carrying one on, and the carry on top.
    let digits: Vec<i32> = signed_digits(&all_ones, 8).take(18).collect();
    assert_eq!(digits, [[-1].as_slice(), &[0; 15], &[1, 0]].concat());
}
