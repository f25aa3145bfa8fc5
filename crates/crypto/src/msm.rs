//! Multi-scalar multiplication: `Σ kᵢ·Pᵢ` in one shared pass.
//!
//! Batch Schnorr verification ([`crate::schnorr::verify_batch`]) reduces
//! a block's worth of signatures to one multi-scalar multiplication (MSM).
//! Computing each `kᵢ·Pᵢ` alone costs ~256 doublings plus ~43 additions
//! *per point*; the kernels here share that work across the batch, and
//! they walk **half-width** scalars. secp256k1 has the endomorphism
//! `λ·(x, y) = (β·x, y)`, and every scalar splits as `k₁ + k₂·λ (mod n)`
//! with `|kᵢ| < 2^128` ([`glv_split`]), so a full-width term `k·P` is two
//! 128-bit terms over `P` and `λP`:
//!
//! - **Straus** ([`straus`]): every point gets a table of its eight odd
//!   multiples (`λP`'s is `P`'s with every x times `β`), and one doubling
//!   chain of ~129 steps serves all points — per point, 8 table additions
//!   plus ~22 mixed additions per 128-bit half.
//! - **Pippenger** ([`pippenger`]): per window of a signed `c`-bit
//!   recoding, each point into one of `2^(c−1)` buckets, collapsed by a
//!   running sum: `128/c + 1` windows of `n` mixed additions plus `2^c`,
//!   sublinear per point once `n` is large against `2^c` ([`signed_window`]).
//! - [`msm`] splits every scalar wider than 128 bits ([`glv_halves`]) and
//!   picks between them by the number of pairs ([`PIPPENGER_FROM`]).
//! - [`double_mul_glv`] and [`SignerTables::double_mul`] are the other end
//!   of the range: the two-term `s·G + k·P` of **one** verification, where
//!   there is no batch to share work with — so they share the doubling
//!   chain between the equation's own terms, halve its length over the
//!   endomorphism too, and, for a key the process has verified before,
//!   halve it again over stored tables (cost models below).
//!
//! `k·P` is taken modulo the group order `n`, so callers may pass scalars
//! `≥ n`; their halves are 129 bits wide instead of 128.
//!
//! # Measured: the batch equation
//!
//! A whole `verify_batch` per signature (µs; the `batch_verify` groups of
//! `crates/bench/benches/batch_verify.rs`, medians of five alternating
//! runs, linux/x86_64, 2 vCPUs giving about one CPU of time) with unsplit
//! 256-bit scalars over unsigned `2^c − 1` buckets (before), as here
//! (after), and the same items verified alone by repeat signers:
//!
//! | signatures × signers | before | after | alone |
//! |----------------------|--------|-------|-------|
//! | 2 × 2                | 42.9   | 24.8  | 24.0  |
//! | 8 × 8                | 28.0   | 27.5  | 26.4  |
//! | 16 × 16              | 27.5   | 26.0  | 29.1  |
//! | 32 × 32              | 26.8   | 24.6  | 32.4  |
//! | 64 × 36              | 21.2   | 18.0  | 31.8  |
//! | 65 × 24              | 18.3   | 15.7  | 31.8  |
//! | 128 × 8              | 14.6   | 11.5  | 32.1  |
//! | 128 × 36             | 17.5   | 13.5  | 32.4  |
//! | 512 × 36             | 11.6   | 10.3  | 32.6  |
//!
//! Below [`crate::schnorr::LONE_BELOW`] = 8 items a batch is its items'
//! lone verifications (~24 µs among a few keys, ~32 among 36, whose tables
//! no longer share the first-level cache): the 2 × 2 row. On pairs alone
//! (`batch_verify/msm`; sweep in `docs/ARCHITECTURE.md`) Straus and the
//! buckets meet at ~40 pairs — 20.0 against 21.4 µs per signature at 33,
//! 10.7 against 10.7 at 41, 20.8 against 19.6 at 49 — hence
//! [`PIPPENGER_FROM`]. [`signed_window`]'s model picks the measured best
//! or a tied width at every swept size (c = 5 at 50–82 halves, 6 at
//! 138–202, 7 at 330–586, 8 at 1 098, 9 at 2 122).
//!
//! # One signature: the lone-verify cost models
//!
//! A single verification needs `s·G + k·P` (`k = −e`): split, four
//! 128-bit terms `s₁·G + s₂·λG + k₁·P + k₂·λP` on one doubling chain —
//! [`double_mul_glv`], what a key met for the first time costs. A point
//! whose multiple `2^64·B` also has a table takes a 128-bit scalar as two
//! 64-bit terms, `a·B + b·(2^64·B)`; with static tables of `G, λG,
//! 2^64·G, 2^64·λG` and a signer's stored tables of `P, 2^64·P`
//! ([`SignerTables`]) the equation is **eight 64-bit terms** on a chain of
//! 64 steps, and no table is built per call.
//!
//! Counted over 2 000 hash-derived `(s, k)` and priced with the point
//! operations of the `field_ops` group (`crates/bench/benches/
//! crypto_ops.rs`, dependent chains of 1024: doubling 0.14 µs, mixed
//! addition 0.17 µs, general addition 0.22 µs, inversion 3.1 µs,
//! multiplication 16 ns):
//!
//! | step | first sighting ([`double_mul_glv`]) | µs | repeat signer ([`SignerTables::double_mul`]) | µs |
//! |------|------------|------|------------|------|
//! | two splits, the recodings | 4 widening + 8 wrapping multiplications, 4 recodings | 0.5 | the same, 8 recodings | 0.6 |
//! | `P`'s table | width 5: 1 doubling, 7 general additions, 1 inversion, 8 × 3 M to normalise | 5.3 (measured) | stored (width 6, 2 × 16 entries) | — |
//! | `λ` images | 8 multiplications | 0.1 | 32 multiplications | 0.5 |
//! | doubling chain | 126.0 doublings | 17.6 | 63.2 doublings | 8.8 |
//! | `G` terms (static width-8 tables: one digit in 9) | 29.2 mixed additions | 5.0 | 30.1 | 5.1 |
//! | `P` terms (one digit in 6, resp. 7) | 43.3 mixed additions | 7.4 | 38.2 | 6.5 |
//! | **total** | | **35.9** | | **21.5** |
//!
//! Measured in one process, alternating chunks of 100 calls: the repeat
//! signer's walk costs 0.62 of the first sighting's (the model's 0.60), and
//! [`SignerTables::build`] — 66 doublings, 30 general additions, one
//! inversion and 32 × 3 M — about 1.2 of the 18.9 µs the tables then save
//! per call, which is why a key gets them on its *second* lone
//! verification ([`crate::schnorr::SignerMemo`]): a one-off signer never
//! pays, a repeat signer is ahead from its third. The static tables are
//! 4 × 64 affine points (18 KiB, built on first use). Tried and left out:
//! `P`'s per-call table on a shared denominator (kernel −10 %, end to end
//! inside the run-to-run spread, for table entries that are not points).
//!
//! # The signing comb
//!
//! `k·G` alone ([`crate::ec::mul_generator`]: a signature's nonce
//! commitment, a key's derivation) has no second term to share doublings
//! with, so it has none: a table holds every `j·128^w·G` a signed 7-bit
//! digit can ask for. Split over the endomorphism, a scalar is two halves
//! of 19 such digits — the buckets' signed recoding at `c = 7` — and the
//! `λ` half reads the same table through one `β` multiplication per
//! addition: 37.2 mixed additions on average, at most 38. The table is
//! 19 × 64 points (85.5 KiB), built on first use (~0.3 ms).
//!
//! Nothing here is constant-time: digits, bucket indexes, the recodings
//! and the sign of each split half all branch and index on the scalars.

use std::sync::OnceLock;

use crate::ec::{Affine, Jacobian, GENERATOR};
use crate::field::{GLV_A1, GLV_A2, GLV_G1, GLV_G2, GLV_MINUS_B1};
use crate::u256::U256;

/// Batches of this many pairs and more go to [`pippenger`], smaller ones
/// to [`straus`] (measured crossover in the module docs).
pub const PIPPENGER_FROM: usize = 40;

/// Bits `[lo, lo + c)` of `k` as a bucket index. `c ≤ 16`; bits past 255
/// read as zero.
pub(crate) fn digit(k: &U256, lo: u32, c: u32) -> usize {
    debug_assert!(c <= 16 && lo < 256);
    let limbs = k.limbs();
    let li = (lo / 64) as usize;
    let off = lo % 64;
    let mut v = limbs[li] >> off;
    if off + c > 64 && li + 1 < 4 {
        v |= limbs[li + 1] << (64 - off);
    }
    (v & ((1u64 << c) - 1)) as usize
}

/// `k` in signed `c`-bit digits, low window first — the recoding of
/// [`pippenger`]'s buckets and of the signing comb: every digit `dⱼ` lies
/// in `[−2^(c−1), 2^(c−1)]` and `k = Σ dⱼ·2^(c·j)`. A window above
/// `2^(c−1)` is written `window − 2^c` and carries one into the next, so a
/// scalar of `b` bits takes `b / c + 1` digits — the last places the
/// final carry — and every digit after those is zero. `1 ≤ c ≤ 16`.
pub fn signed_digits(k: &U256, c: u32) -> impl Iterator<Item = i32> + '_ {
    debug_assert!((1..=16).contains(&c));
    let half = 1i32 << (c - 1);
    let mut carry = 0;
    (0u32..).map(move |w| {
        let lo = w.saturating_mul(c);
        let window = if lo < 256 { digit(k, lo, c) as i32 } else { 0 } + carry;
        carry = i32::from(window > half);
        window - (carry << c)
    })
}

/// Signed-window width over a point met for the first time ([`straus`]
/// and the public-key half of [`double_mul_glv`]): digits are odd and at
/// most 15 in magnitude, so a point needs its [`ODD_MULTIPLES`]
/// `P, 3P, …, 15P` only.
const WNAF_WIDTH: u32 = 5;

/// Table entries per point at [`WNAF_WIDTH`].
const ODD_MULTIPLES: usize = 1 << (WNAF_WIDTH - 2);

/// Signed-window width over the generator, whose tables are built once
/// per process: digits up to 127, one nonzero digit in nine.
const GEN_WNAF_WIDTH: u32 = 8;

/// Table entries for the generator at [`GEN_WNAF_WIDTH`].
const GEN_ODD_MULTIPLES: usize = 1 << (GEN_WNAF_WIDTH - 2);

/// Signed-window width over a repeat signer's stored tables
/// ([`SignerTables`]): digits up to 31, one nonzero digit in seven.
const SIGNER_WNAF_WIDTH: u32 = 6;

/// Table entries per stored signer table at [`SIGNER_WNAF_WIDTH`].
const SIGNER_ODD_MULTIPLES: usize = 1 << (SIGNER_WNAF_WIDTH - 2);

/// Points whose tables [`straus`] normalises with one shared inversion.
const NORMALIZE_BLOCK: usize = 16;

/// Digits in the non-adjacent form of a scalar of at most 129 bits — a
/// [`glv_split`] half, the widest scalar a walk takes — with room above
/// it for the final carry.
const WNAF_DIGITS: usize = 129 + GEN_WNAF_WIDTH as usize;

/// The width-`width` non-adjacent form of `k` (at most 129 bits): digits
/// `dᵢ` with `k = Σ dᵢ·2^i`, every nonzero digit odd with
/// `|dᵢ| < 2^(width−1)`, and at least `width − 1` zeros after each nonzero
/// one — on average one nonzero digit in `width + 1`. Returns the digits
/// and how many of them are in use (the highest nonzero digit's index + 1).
fn wnaf(k: &U256, width: u32) -> ([i8; WNAF_DIGITS], usize) {
    debug_assert!((2..=8).contains(&width), "digits must fit an i8");
    debug_assert!(k.bits() <= 129, "walks take split halves");
    let mut digits = [0i8; WNAF_DIGITS];
    let mut used = 0;
    // `carry` is what a negative digit further down borrowed from here.
    let mut carry = 0u32;
    let mut bit = 0u32;
    let top = k.bits();
    // Past the scalar's top bit only a pending carry is left to place.
    while bit < top || carry == 1 {
        if k.bit(bit) as u32 == carry {
            // The bit and the carry cancel (0+0, or 1+1 carrying on).
            bit += 1;
            continue;
        }
        let window = digit(k, bit, width) as u32 + carry; // odd, < 2^width
        carry = window >> (width - 1);
        digits[bit as usize] = (window as i32 - ((carry as i32) << width)) as i8;
        used = bit as usize + 1;
        bit += width;
    }
    (digits, used)
}

/// Appends `P, 3P, …, (2·count − 1)·P` to `out`.
fn push_odd_multiples(p: Jacobian, count: usize, out: &mut Vec<Jacobian>) {
    let mut multiple = p;
    let twice = multiple.double();
    for i in 0..count {
        if i > 0 {
            multiple = multiple.add(&twice);
        }
        out.push(multiple);
    }
}

/// The odd multiples `P, 3P, …, (2·count − 1)·P` in affine form — the
/// table a signed-window walk over `P` adds from: one doubling,
/// `count − 1` general additions and one field inversion.
pub fn odd_multiples(p: &Affine, count: usize) -> Vec<Affine> {
    let mut multiples = Vec::with_capacity(count);
    push_odd_multiples(Jacobian::from_affine(p), count, &mut multiples);
    Jacobian::batch_to_affine(&multiples)
}

/// `N` odd multiples of `P` and `N` of `2^64·P`, affine on one shared
/// inversion: the two tables a scalar cut at bit 64 walks as two terms of
/// half the length. 66 doublings and `2·N − 2` general additions.
fn odd_multiples_split<const N: usize>(p: &Affine) -> [[Affine; N]; 2] {
    let mut multiples = Vec::with_capacity(2 * N);
    let low = Jacobian::from_affine(p);
    push_odd_multiples(low, N, &mut multiples);
    push_odd_multiples((0..64).fold(low, |q, _| q.double()), N, &mut multiples);
    let multiples = Jacobian::batch_to_affine(&multiples);
    [0, N].map(|at| std::array::from_fn(|i| multiples[at + i]))
}

/// One term of a shared doubling chain: a scalar in signed-window form
/// and the affine odd multiples of its point.
struct Stream<'a> {
    table: &'a [Affine],
    digits: [i8; WNAF_DIGITS],
    used: usize,
}

impl<'a> Stream<'a> {
    /// `±magnitude` over `table`, which holds `2^(width−2)` odd multiples:
    /// a negative scalar is its magnitude with every digit's sign flipped.
    fn signed(table: &'a [Affine], (magnitude, negative): (U256, bool), width: u32) -> Self {
        debug_assert_eq!(table.len(), 1 << (width - 2));
        let (mut digits, used) = wnaf(&magnitude, width);
        if negative {
            digits[..used].iter_mut().for_each(|d| *d = -*d);
        }
        Stream {
            table,
            digits,
            used,
        }
    }
}

/// `Σ kᵢ·Pᵢ` over `streams`: one doubling per digit position of the
/// widest scalar, and under each a mixed addition per nonzero digit.
fn interleave(streams: &[Stream<'_>]) -> Jacobian {
    let top = streams.iter().map(|s| s.used).max().unwrap_or(0);
    let mut acc = Jacobian::infinity();
    for bit in (0..top).rev() {
        acc = acc.double();
        for stream in streams {
            let d = stream.digits[bit];
            if d != 0 {
                let entry = &stream.table[d.unsigned_abs() as usize / 2];
                acc = if d > 0 {
                    acc.add_affine(entry)
                } else {
                    acc.add_affine(&entry.negate())
                };
            }
        }
    }
    acc
}

/// `Σ kᵢ·Pᵢ` by the Straus (shared-doubling) method on signed windows:
/// every point's eight odd multiples `P, 3P, …, 15P`, affine on a shared
/// inversion, walked in width-5 non-adjacent form down one doubling chain.
/// A scalar wider than 128 bits is split ([`glv_split`]), its second half
/// walking `λP`'s table — `P`'s with every x multiplied by `β`.
pub fn straus(pairs: &[(Affine, U256)]) -> Jacobian {
    // Tables are normalised a block of points at a time, so the Jacobian
    // multiples are a fixed-size scratch buffer; one inversion per block
    // is ~2 % of the block's additions.
    let mut tables = Vec::with_capacity(pairs.len() * ODD_MULTIPLES);
    let mut multiples = Vec::with_capacity(pairs.len().min(NORMALIZE_BLOCK) * ODD_MULTIPLES);
    for block in pairs.chunks(NORMALIZE_BLOCK) {
        multiples.clear();
        for (p, _) in block {
            push_odd_multiples(Jacobian::from_affine(p), ODD_MULTIPLES, &mut multiples);
        }
        tables.extend(Jacobian::batch_to_affine(&multiples));
    }
    let wide = |k: &U256| k.bits() > 128;
    let images: Vec<Affine> = (tables.chunks_exact(ODD_MULTIPLES).zip(pairs))
        .filter(|(_, (_, k))| wide(k))
        .flat_map(|(table, _)| table.iter().map(Affine::mul_lambda))
        .collect();
    let mut images = images.chunks_exact(ODD_MULTIPLES);
    let mut streams = Vec::with_capacity(pairs.len() + images.len());
    for ((_, k), table) in pairs.iter().zip(tables.chunks_exact(ODD_MULTIPLES)) {
        match wide(k).then(|| images.next()).flatten() {
            Some(image) => {
                let [k1, k2] = glv_split(k);
                streams.push(Stream::signed(table, k1, WNAF_WIDTH));
                streams.push(Stream::signed(image, k2, WNAF_WIDTH));
            }
            None => streams.push(Stream::signed(table, (*k, false), WNAF_WIDTH)),
        }
    }
    interleave(&streams)
}

/// `k` as `k₁ + k₂·λ (mod n)` with both halves short: returns
/// `[k₁, k₂]`, each as `(magnitude, negative)`. For `k < n` both
/// magnitudes are below 2^128, which is what lets [`double_mul_glv`] stop
/// its doubling chain at half the scalar's width.
///
/// With the lattice basis of [`crate::field`] (rows `(a₁, b₁)`,
/// `(a₂, b₂)`), `c₁ = ⌊b₂·k/n⌉` and `c₂ = ⌊−b₁·k/n⌉` come from one
/// widening multiplication each by a precomputed `2^384/n` multiple; then
/// `k₁ = k − c₁·a₁ − c₂·a₂` and `k₂ = −c₁·b₁ − c₂·b₂` are exact integers
/// far inside ±2^255, so wrapping 256-bit arithmetic computes them in
/// two's complement and the top bit is the sign.
pub fn glv_split(k: &U256) -> [(U256, bool); 2] {
    let rounded = |g: &U256| {
        // ⌊k·g / 2^384⌉: the product's top 128 bits, plus bit 383.
        let (_, hi) = k.widening_mul(g);
        let h = hi.limbs();
        U256::from_limbs([h[2], h[3], 0, 0]).wrapping_add(&U256::from_u64(h[1] >> 63))
    };
    let (c1, c2) = (rounded(&GLV_G1), rounded(&GLV_G2));
    let k1 = k
        .wrapping_sub(&c1.wrapping_mul(&GLV_A1))
        .wrapping_sub(&c2.wrapping_mul(&GLV_A2));
    // b₂ = a₁.
    let k2 = c1
        .wrapping_mul(&GLV_MINUS_B1)
        .wrapping_sub(&c2.wrapping_mul(&GLV_A1));
    [k1, k2].map(|v| {
        if v.bit(255) {
            (U256::ZERO.wrapping_sub(&v), true)
        } else {
            (v, false)
        }
    })
}

/// The static width-8 tables: the odd multiples `B, 3B, …, 127B` of
/// `B = G, λG, 2^64·G, 2^64·λG`, in that order, affine, built on first
/// use (66 doublings, 126 additions and one inversion; 256 points,
/// 18 KiB). [`double_mul_glv`] walks the first two; a repeat signer's
/// equation ([`SignerTables::double_mul`]) walks all four.
fn generator_odd_multiples() -> &'static [[Affine; GEN_ODD_MULTIPLES]; 4] {
    static TABLES: OnceLock<[[Affine; GEN_ODD_MULTIPLES]; 4]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let [low, high] = odd_multiples_split(&GENERATOR);
        let lambda = |table: [Affine; GEN_ODD_MULTIPLES]| table.map(|e| e.mul_lambda());
        [low, lambda(low), high, lambda(high)]
    })
}

/// `s·G + k·P` for the generator `G` and a point `P` of the curve, in one
/// doubling chain of half the scalars' width — the whole group equation of
/// a single Schnorr verification by a key met for the first time.
///
/// Both scalars are split over the curve endomorphism ([`glv_split`]:
/// `s = s₁ + s₂·λ`, `k = k₁ + k₂·λ`, halves below 2^128), so the sum is
/// `s₁·G + s₂·(λG) + k₁·P + k₂·(λP)`: four short scalars walked together
/// (Straus–Shamir). `G` and `λG` add from static width-8 tables; `P` gets
/// the per-call width-5 table of [`odd_multiples`], and `λP`'s is that
/// table with every x coordinate multiplied by `β`
/// (`Affine::mul_lambda`). Scalars are taken modulo `n`; `P` must be on
/// the curve (the endomorphism means nothing elsewhere).
pub fn double_mul_glv(s: &U256, point: &Affine, k: &U256) -> Jacobian {
    let [g, g_lambda, ..] = generator_odd_multiples();
    let p = odd_multiples(point, ODD_MULTIPLES);
    let p_lambda: [Affine; ODD_MULTIPLES] = std::array::from_fn(|i| p[i].mul_lambda());
    let [s1, s2] = glv_split(s);
    let [k1, k2] = glv_split(k);
    interleave(&[
        Stream::signed(g, s1, GEN_WNAF_WIDTH),
        Stream::signed(g_lambda, s2, GEN_WNAF_WIDTH),
        Stream::signed(&p, k1, WNAF_WIDTH),
        Stream::signed(&p_lambda, k2, WNAF_WIDTH),
    ])
}

/// What a process keeps of a public key `P` it verifies again and again:
/// the width-6 odd multiples `P, 3P, …, 31P` and the same of `2^64·P`
/// (2 × 16 affine points, 2 304 bytes).
#[derive(Debug)]
pub struct SignerTables {
    /// `P`'s table, then `2^64·P`'s.
    multiples: [[Affine; SIGNER_ODD_MULTIPLES]; 2],
}

impl SignerTables {
    /// The tables of `point`, which must be on the curve: 66 doublings,
    /// 30 general additions and one inversion.
    pub fn build(point: &Affine) -> SignerTables {
        SignerTables {
            multiples: odd_multiples_split(point),
        }
    }

    /// `s·G + k·P` for the `P` these tables were built from — the point
    /// [`double_mul_glv`] returns (in another Jacobian form), on a chain of
    /// 64 doublings: the four GLV halves are each cut at bit 64 into terms
    /// of at most 64 bits (65 for a scalar `≥ n`), `s₁ = a + 2^64·b`
    /// adding `a·G + b·(2^64·G)` and so on. The `λ` images of the
    /// signer's two tables are made per call.
    pub fn double_mul(&self, s: &U256, k: &U256) -> Jacobian {
        let [g, g_lambda, g_high, g_high_lambda] = generator_odd_multiples();
        let [p, p_high] = &self.multiples;
        let (p_lambda, p_high_lambda) = (p.map(|e| e.mul_lambda()), p_high.map(|e| e.mul_lambda()));
        let [[s1, s1_high], [s2, s2_high]] = glv_split(s).map(cut_at_64);
        let [[k1, k1_high], [k2, k2_high]] = glv_split(k).map(cut_at_64);
        interleave(&[
            Stream::signed(g, s1, GEN_WNAF_WIDTH),
            Stream::signed(g_high, s1_high, GEN_WNAF_WIDTH),
            Stream::signed(g_lambda, s2, GEN_WNAF_WIDTH),
            Stream::signed(g_high_lambda, s2_high, GEN_WNAF_WIDTH),
            Stream::signed(p, k1, SIGNER_WNAF_WIDTH),
            Stream::signed(p_high, k1_high, SIGNER_WNAF_WIDTH),
            Stream::signed(&p_lambda, k2, SIGNER_WNAF_WIDTH),
            Stream::signed(&p_high_lambda, k2_high, SIGNER_WNAF_WIDTH),
        ])
    }
}

/// `±m` as `±(m mod 2^64)` and `±(m >> 64)`: the two terms a split half
/// becomes over a point's table and its `2^64` multiple's.
fn cut_at_64((magnitude, negative): (U256, bool)) -> [(U256, bool); 2] {
    let low = U256::from_u64(magnitude.as_u64());
    [(low, negative), (magnitude.shr(64), negative)]
}

/// `Σ kᵢ·Pᵢ` by the Pippenger bucket method on [`signed_digits`].
/// Per window, from the top: `c` doublings, each point into the bucket of
/// its digit's magnitude (negated for a negative digit), and the
/// `2^(c−1)` buckets collapsed by a running sum. Scalars of at most `b`
/// bits take `b / c + 1` windows.
pub fn pippenger(pairs: &[(Affine, U256)], c: u32) -> Jacobian {
    assert!((1..=16).contains(&c), "window width must be in 1..=16");
    let n = pairs.len();
    if n == 0 {
        return Jacobian::infinity();
    }
    let bits = pairs.iter().map(|(_, k)| k.bits()).max().unwrap_or(0);
    let windows = (bits / c + 1) as usize;
    // digits[w · n + i]: pair i's digit in window w.
    let mut digits = vec![0i32; windows * n];
    for (i, (_, k)) in pairs.iter().enumerate() {
        for (w, d) in signed_digits(k, c).take(windows).enumerate() {
            digits[w * n + i] = d;
        }
    }
    let mut acc = Jacobian::infinity();
    let mut buckets = vec![Jacobian::infinity(); 1 << (c - 1)];
    for window in digits.chunks_exact(n).rev() {
        for _ in 0..c {
            acc = acc.double();
        }
        let mut top = 0;
        for ((p, _), &d) in pairs.iter().zip(window) {
            if d != 0 {
                let magnitude = d.unsigned_abs() as usize;
                let bucket = &mut buckets[magnitude - 1];
                *bucket = bucket.add_affine(&if d > 0 { *p } else { p.negate() });
                top = top.max(magnitude);
            }
        }
        // Running sum: Σ_j j·B_j = Σ over suffix sums of the buckets.
        let mut running = Jacobian::infinity();
        let mut sum = Jacobian::infinity();
        for bucket in buckets[..top].iter_mut().rev() {
            running = running.add(bucket);
            sum = sum.add(&running);
            *bucket = Jacobian::infinity();
        }
        acc = acc.add(&sum);
    }
    acc
}

/// The [`pippenger`] window width minimizing the modeled cost of `n`
/// pairs whose scalars are at most 128 bits wide (`glv_split` halves).
///
/// Model: `(128 / c + 1) · (6·n + 5·2^c)` — per window, `n` bucket
/// additions and the `2^c` of the running sum, weighted 6 : 5 as fitted to
/// the measured sweep, not the 0.7 : 1 the operation counts suggest.
pub fn signed_window(n: usize) -> u32 {
    (2..=16u32)
        .min_by_key(|&c| u64::from(128 / c + 1) * (6 * n as u64 + (5 << c)))
        .unwrap_or(2)
}

/// `pairs` with every scalar wider than 128 bits split over the
/// endomorphism ([`glv_split`]): `k·P` becomes `k₁·(±P) + k₂·(±λP)`, the
/// sign of each half folded into its point and `λP = (β·x, y)`. Scalars
/// are taken modulo `n` in the split.
pub fn glv_halves(pairs: &[(Affine, U256)]) -> Vec<(Affine, U256)> {
    let signed = |p: Affine, negative: bool| if negative { p.negate() } else { p };
    let mut halves = Vec::with_capacity(2 * pairs.len());
    for &(p, k) in pairs {
        if k.bits() <= 128 {
            halves.push((p, k));
        } else {
            let [(k1, negative1), (k2, negative2)] = glv_split(&k);
            halves.push((signed(p, negative1), k1));
            halves.push((signed(p.mul_lambda(), negative2), k2));
        }
    }
    halves
}

/// `Σ kᵢ·Pᵢ` for points of the curve and scalars taken modulo `n`:
/// [`straus`] below [`PIPPENGER_FROM`] pairs, else [`pippenger`] over the
/// half-width pairs of [`glv_halves`] with [`signed_window`]'s width.
pub fn msm(pairs: &[(Affine, U256)]) -> Jacobian {
    if pairs.len() < PIPPENGER_FROM {
        return straus(pairs);
    }
    let halves = glv_halves(pairs);
    pippenger(&halves, signed_window(halves.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec::tests::ladder_scalars;
    use crate::ec::{mul_generator, DEGENERATE_ADDS};
    use crate::field::{add_mod, mul_mod, neg_mod, reduce, LAMBDA, N};

    /// Deterministic pseudo-random scalar stream for tests.
    fn scalars(count: usize, seed: u64) -> Vec<U256> {
        let mut x = U256::from_u64(seed | 1);
        (0..count)
            .map(|_| {
                x = x
                    .wrapping_mul(&x)
                    .wrapping_add(&U256::from_u64(0x9e3779b97f4a7c15));
                x
            })
            .collect()
    }

    fn pairs(count: usize, seed: u64) -> Vec<(Affine, U256)> {
        scalars(count, seed)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (mul_generator(&U256::from_u64(i as u64 * 7 + 3)), k))
            .collect()
    }

    fn naive(pairs: &[(Affine, U256)]) -> Affine {
        let mut acc = Jacobian::infinity();
        for (p, k) in pairs {
            acc = acc.add(&Jacobian::from_affine(p).mul_scalar(k));
        }
        acc.to_affine()
    }

    #[test]
    fn straus_matches_naive() {
        for count in [0usize, 1, 2, 3, 7, 20] {
            let ps = pairs(count, 0xabc);
            assert_eq!(straus(&ps).to_affine(), naive(&ps), "count={count}");
        }
    }

    #[test]
    fn pippenger_matches_naive_across_windows() {
        for count in [1usize, 5, 40] {
            let ps = pairs(count, 0x123);
            let expect = naive(&ps);
            for c in [1u32, 4, 5, 8, 11, 16] {
                assert_eq!(pippenger(&ps, c).to_affine(), expect, "count={count} c={c}");
            }
        }
    }

    #[test]
    fn msm_matches_naive_across_cutoff() {
        for count in [PIPPENGER_FROM - 1, PIPPENGER_FROM, PIPPENGER_FROM + 5] {
            let ps = pairs(count, 0x77);
            assert_eq!(msm(&ps).to_affine(), naive(&ps), "count={count}");
        }
    }

    #[test]
    fn edge_scalars() {
        let g = GENERATOR;
        // Zero scalars contribute nothing; n wraps to infinity; n−1 = −P;
        // duplicate points accumulate.
        let cases: Vec<(Vec<(Affine, U256)>, Affine)> = vec![
            (vec![(g, U256::ZERO)], Affine::Infinity),
            (vec![(g, N)], Affine::Infinity),
            (vec![(g, N.wrapping_sub(&U256::ONE))], g.negate()),
            (
                vec![(g, U256::ONE), (g, U256::ONE), (g, U256::ONE)],
                mul_generator(&U256::from_u64(3)),
            ),
            (
                vec![(g, U256::from_u64(5)), (g.negate(), U256::from_u64(5))],
                Affine::Infinity,
            ),
            (
                vec![(Affine::Infinity, U256::from_u64(9)), (g, U256::ONE)],
                g,
            ),
        ];
        for (ps, expect) in cases {
            assert_eq!(straus(&ps).to_affine(), expect);
            assert_eq!(pippenger(&ps, 4).to_affine(), expect);
            assert_eq!(pippenger(&ps, 8).to_affine(), expect);
            assert_eq!(pippenger(&glv_halves(&ps), 3).to_affine(), expect);
        }
    }

    #[test]
    fn short_scalars_skip_high_windows() {
        // Mixed 64-bit and full-width scalars must still agree with naive.
        let mut ps = pairs(6, 0x55);
        for (i, (_, k)) in ps.iter_mut().enumerate() {
            if i % 2 == 0 {
                *k = U256::from_u64(0x1234_5678 + i as u64);
            }
        }
        assert_eq!(straus(&ps).to_affine(), naive(&ps));
        assert_eq!(pippenger(&ps, 7).to_affine(), naive(&ps));
    }

    /// `magnitude` or `n − magnitude`: a split half as a scalar modulo n.
    fn half_mod_n((magnitude, negative): (U256, bool)) -> U256 {
        if negative {
            neg_mod(&magnitude, &N)
        } else {
            magnitude
        }
    }

    #[test]
    fn glv_split_recombines_with_short_halves() {
        let two128 = U256::ONE.shl(128);
        let mut ks = ladder_scalars();
        ks.extend([
            LAMBDA,
            N.wrapping_sub(&LAMBDA),
            two128.wrapping_sub(&U256::ONE),
            two128.wrapping_add(&U256::ONE),
        ]);
        ks.extend(scalars(10_000, 0x61c));
        for k in ks {
            let [k1, k2] = glv_split(&k);
            let sum = add_mod(&half_mod_n(k1), &mul_mod(&half_mod_n(k2), &LAMBDA, &N), &N);
            assert_eq!(sum, reduce(&k, &N), "k={}", k.to_hex());
            // Below n the halves fit 128 bits; the few values a U256 holds
            // above n overshoot by less than a bit.
            let limit = if k < N { 128 } else { 129 };
            assert!(
                k1.0.bits() <= limit && k2.0.bits() <= limit,
                "k={}",
                k.to_hex()
            );
        }
        assert_eq!(glv_split(&U256::ZERO), [(U256::ZERO, false); 2]);
        assert_eq!(
            glv_split(&LAMBDA),
            [(U256::ZERO, false), (U256::ONE, false)]
        );
        let minus_one = N.wrapping_sub(&U256::ONE);
        assert_eq!(
            glv_split(&minus_one),
            [(U256::ONE, true), (U256::ZERO, false)]
        );
    }

    /// `s·G + k·P` by two plain ladders.
    fn double_mul_ladder(s: &U256, p: &Affine, k: &U256) -> Affine {
        naive(&[(GENERATOR, *s), (*p, *k)])
    }

    /// Both lone-verification kernels — a first sighting's four-term walk
    /// and a repeat signer's eight-term walk over `tables` — against the
    /// ladders.
    fn assert_kernels_match_ladder(tables: &SignerTables, s: &U256, p: &Affine, k: &U256) {
        let expect = double_mul_ladder(s, p, k);
        let context = || format!("s={} k={}", s.to_hex(), k.to_hex());
        assert_eq!(double_mul_glv(s, p, k).to_affine(), expect, "{}", context());
        assert_eq!(tables.double_mul(s, k).to_affine(), expect, "{}", context());
    }

    #[test]
    fn double_mul_glv_matches_ladder() {
        let p = mul_generator(&U256::from_u64(42));
        let tables = SignerTables::build(&p);
        // The edge scalars, and those whose halves sit on the cut at bit
        // 64 (every low or high term zero, all-ones, or a lone carry).
        let mut edge = ladder_scalars();
        let (two64, two128) = (U256::ONE.shl(64), U256::ONE.shl(128));
        for v in [two64, two128, mul_mod(&two64, &LAMBDA, &N), LAMBDA] {
            edge.extend([v.wrapping_sub(&U256::ONE), v, v.wrapping_add(&U256::ONE)]);
            edge.push(neg_mod(&reduce(&v, &N), &N));
        }
        for (i, s) in edge.iter().enumerate() {
            // Every edge scalar on both sides, against a rotating partner.
            let k = edge[(i * 7 + 3) % edge.len()];
            assert_kernels_match_ladder(&tables, s, &p, &k);
            assert_kernels_match_ladder(&tables, &k, &p, s);
        }
        let random = scalars(24, 0x9);
        for pair in random.chunks_exact(2) {
            let q = mul_generator(&pair[0]);
            assert_kernels_match_ladder(&SignerTables::build(&q), &pair[0], &q, &pair[1]);
        }
        // No point: the generator's half alone.
        let none = SignerTables::build(&Affine::Infinity);
        for s in [U256::ZERO, U256::from_u64(9), U256::MAX] {
            for got in [
                double_mul_glv(&s, &Affine::Infinity, &U256::MAX),
                none.double_mul(&s, &U256::MAX),
            ] {
                assert_eq!(got.to_affine(), mul_generator(&s));
            }
        }
    }

    #[test]
    fn table_collisions_reach_the_degenerate_additions() {
        // Public keys that are themselves entries of the static tables (or
        // their negations): with the scalars below the accumulator holds
        // exactly the entry the next digit adds, or its inverse, so the
        // generic addition formula would divide by zero. Each case must
        // take the equal/opposite branch of the addition and still agree
        // with the ladder. `P = d·G`, equation `s·G + k·P`.
        let lambda_sq = mul_mod(&LAMBDA, &LAMBDA, &N);
        let one = U256::ONE;
        let minus = |v: &U256| neg_mod(v, &N);
        let first_sighting = [
            (one, one, one),         // G + 1·G
            (minus(&one), one, one), // G + 1·(−G) = ∞
            (LAMBDA, LAMBDA, one),   // λG + 1·(λG)
            (minus(&LAMBDA), LAMBDA, one),
            (lambda_sq, lambda_sq, one), // λ²G = −G − λG
            (U256::from_u64(2), U256::from_u64(2), one),
            (U256::from_u64(15), U256::from_u64(15), one),
        ];
        // The bases only the eight-term walk has tables of.
        let two64 = one.shl(64);
        let two64_lambda = mul_mod(&two64, &LAMBDA, &N);
        let repeat_signer = [
            (two64, two64, one), // 2^64·G + 1·(2^64·G)
            (minus(&two64), two64, one),
            (two64_lambda, two64_lambda, one),
            (minus(&two64_lambda), two64_lambda, one),
            (one, two64, two64), // the signer's own 2^64·P table meets 2^64·G
            (U256::from_u64(31), U256::from_u64(31), one),
        ];
        let degenerate_adds = |walk: &dyn Fn() -> Jacobian| {
            let before = DEGENERATE_ADDS.with(|count| count.get());
            let got = walk().to_affine();
            (got, DEGENERATE_ADDS.with(|count| count.get()) - before)
        };
        for (i, (d, s, k)) in first_sighting.iter().chain(&repeat_signer).enumerate() {
            let p = mul_generator(d);
            let expect = double_mul_ladder(s, &p, k);
            let (got, hits) = degenerate_adds(&|| double_mul_glv(s, &p, k));
            assert_eq!(got, expect, "d={}", d.to_hex());
            assert!(hits > 0 || i >= first_sighting.len(), "d={}", d.to_hex());
            let tables = SignerTables::build(&p);
            let (got, hits) = degenerate_adds(&|| tables.double_mul(s, k));
            assert_eq!(got, expect, "d={}", d.to_hex());
            assert!(hits > 0, "d={} never met a table entry", d.to_hex());
        }
    }

    #[test]
    fn odd_multiples_are_the_odd_multiples() {
        let p = mul_generator(&U256::from_u64(77));
        for count in [1usize, ODD_MULTIPLES, GEN_ODD_MULTIPLES] {
            let table = odd_multiples(&p, count);
            assert_eq!(table.len(), count);
            for (i, entry) in table.iter().enumerate() {
                let k = U256::from_u64(2 * i as u64 + 1);
                assert_eq!(*entry, Jacobian::from_affine(&p).mul_scalar(&k).to_affine());
            }
        }
        assert!(odd_multiples(&Affine::Infinity, 8)
            .iter()
            .all(|e| *e == Affine::Infinity));
        // The static tables and a signer's, each against its base's own
        // odd multiples: B = G, λG, 2^64·G, 2^64·λG, then P and 2^64·P.
        let two64 = U256::ONE.shl(64);
        let bases = [U256::ONE, LAMBDA, two64, mul_mod(&two64, &LAMBDA, &N)];
        for (table, base) in generator_odd_multiples().iter().zip(bases) {
            let base = mul_generator(&base);
            assert_eq!(table[..], odd_multiples(&base, GEN_ODD_MULTIPLES)[..]);
        }
        let [low, high] = SignerTables::build(&p).multiples;
        assert_eq!(low[..], odd_multiples(&p, SIGNER_ODD_MULTIPLES)[..]);
        let shifted = Jacobian::from_affine(&p).mul_scalar(&two64).to_affine();
        assert_eq!(high[..], odd_multiples(&shifted, SIGNER_ODD_MULTIPLES)[..]);
    }

    #[test]
    fn kernels_match_ladder_on_edge_scalars_and_degenerate_batches() {
        // Every edge scalar on its own point, plus an infinity, a repeated
        // point and a negated point in the same batch.
        let edge = ladder_scalars();
        let mut ps: Vec<(Affine, U256)> = edge
            .iter()
            .enumerate()
            .map(|(i, k)| (mul_generator(&U256::from_u64(i as u64 * 5 + 2)), *k))
            .collect();
        let (first, last) = (ps[3].0, ps[ps.len() - 1].0);
        ps.push((Affine::Infinity, U256::MAX));
        ps.push((first, edge[edge.len() - 1]));
        ps.push((first.negate(), edge[edge.len() - 2]));
        ps.push((last.negate(), edge[edge.len() - 1]));
        let expect = naive(&ps);
        assert_eq!(straus(&ps).to_affine(), expect);
        assert_eq!(msm(&ps).to_affine(), expect);
        for c in [4u32, 5, 9] {
            assert_eq!(pippenger(&ps, c).to_affine(), expect, "c={c}");
            assert_eq!(pippenger(&glv_halves(&ps), c).to_affine(), expect, "c={c}");
        }
        // The whole batch cancelling: k·P + k·(−P).
        for k in edge {
            let cancel = [(first, k), (first.negate(), k)];
            assert!(straus(&cancel).is_infinity(), "k={}", k.to_hex());
            assert!(pippenger(&cancel, 5).is_infinity(), "k={}", k.to_hex());
        }
    }

    #[test]
    fn wnaf_digits_are_sparse_odd_and_sum_to_the_scalar() {
        for width in [2, WNAF_WIDTH, GEN_WNAF_WIDTH] {
            let limit = (1u8 << (width - 1)) - 1;
            // The split halves walks take, and the widest: 129 bits.
            let widest = [U256::MAX.shr(127), U256::ONE.shl(128)];
            let full = ladder_scalars().into_iter().chain(scalars(8, 0x31));
            let halves = full.flat_map(|k| glv_split(&k).map(|(magnitude, _)| magnitude));
            for k in halves.chain(widest) {
                let (digits, used) = wnaf(&k, width);
                assert!(digits[used..].iter().all(|&d| d == 0));
                assert!(used == 0 || digits[used - 1] != 0);
                let mut sum = U256::ZERO;
                for (i, &d) in digits.iter().enumerate().rev() {
                    sum = sum.shl(1);
                    let magnitude = U256::from_u64(d.unsigned_abs() as u64);
                    sum = if d >= 0 {
                        sum.wrapping_add(&magnitude)
                    } else {
                        sum.wrapping_sub(&magnitude)
                    };
                    if d != 0 {
                        assert!(d % 2 != 0 && d.unsigned_abs() <= limit, "digit {d}");
                        let next = (i + 1)..(i + width as usize).min(WNAF_DIGITS);
                        assert!(digits[next].iter().all(|&z| z == 0), "k={}", k.to_hex());
                    }
                }
                assert_eq!(sum, k, "width={width} k={}", k.to_hex());
            }
        }
    }

    #[test]
    fn digit_extraction() {
        let k = U256::from_hex("00000000000000000000000000000000000000000000000f0000000000000abc")
            .unwrap();
        assert_eq!(digit(&k, 0, 4), 0xc);
        assert_eq!(digit(&k, 4, 4), 0xb);
        assert_eq!(digit(&k, 8, 4), 0xa);
        assert_eq!(digit(&k, 2, 8), 0xaf); // 0xabc >> 2 = 0x2af
        assert_eq!(digit(&k, 64, 4), 0xf);
        assert_eq!(digit(&k, 62, 6), 0x3c); // straddles the limb boundary
        assert_eq!(digit(&k, 252, 4), 0);
    }

    #[test]
    fn window_model_is_sane() {
        // Larger batches never prefer smaller windows, and the model stays
        // inside the swept range.
        let mut last = 0;
        for n in [16usize, 64, 256, 1024, 4096, 65536] {
            let c = signed_window(n);
            assert!((3..=14).contains(&c));
            assert!(c >= last, "window must grow with n");
            last = c;
        }
    }
}
