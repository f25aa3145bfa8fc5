//! Multi-scalar multiplication: `Σ kᵢ·Pᵢ` in one shared pass.
//!
//! Batch Schnorr verification (see [`crate::schnorr::verify_batch`])
//! reduces a block's worth of signatures to a single multi-scalar
//! multiplication (MSM). Computing each `kᵢ·Pᵢ` independently costs
//! ~256 doublings plus ~128 additions *per point*; the kernels here share
//! that work across the whole batch:
//!
//! - **Straus** ([`straus`]): every point gets a table of its eight odd
//!   multiples, the tables are normalised to affine sixteen points to an
//!   inversion, and one doubling chain serves all points — per point, 8
//!   table additions plus ~43 mixed additions for a 256-bit scalar in
//!   width-5 non-adjacent form. Wins for small batches where Pippenger's
//!   bucket overhead dominates.
//! - **Pippenger** ([`pippenger`]): for each `c`-bit window, points are
//!   accumulated into `2^c − 1` buckets by scalar digit and the buckets
//!   collapse with a running sum, so the per-window cost is `n` mixed
//!   additions plus `2^(c+1)` bucket additions — sublinear per-point cost
//!   once `n` is large against `2^c`. Window size comes from
//!   [`pippenger_window`].
//! - [`msm`] picks between them by batch size ([`STRAUS_CUTOFF`]).
//! - [`double_mul_glv`] and [`SignerTables::double_mul`] are the other end
//!   of the range: the two-term `s·G + k·P` of **one** verification, where
//!   there is no batch to share work with — so they share the doubling
//!   chain between the equation's own terms, halve its length over the
//!   curve endomorphism, and, for a key the process has verified before,
//!   halve it again over stored tables (cost models below).
//!
//! Scalars are plain 256-bit integers: `k·P` is integer scalar
//! multiplication, so callers may pass values `≥ n` (they wrap by the
//! point's group order as usual). Short scalars are cheap — both kernels
//! skip the positions above the widest scalar in the batch, which is what
//! makes 128-bit Fiat–Shamir coefficients half-price.
//!
//! # Measured window parameters
//!
//! The `batch_verify` criterion group (`crates/bench/benches/
//! batch_verify.rs`) sweeps MSM sizes n = 16…4096 across window widths on
//! the full 256-bit scalar range. Measured on the dedicated field element
//! of [`crate::field`] (linux/x86_64, 2 vCPUs giving about one CPU of
//! time, per-point µs, 10-iteration runs; a second sweep moved single
//! cells by up to 2 µs, so the last digit is noise):
//!
//! | n    | Straus | c=4  | c=6  | c=8  | c=10 | c=12 | [`msm`] picks |
//! |------|--------|------|------|------|------|------|---------------|
//! | 16   | 15.1   | 32.8 | 54.8 | 138  | —    | —    | Straus (14.1) |
//! | 64   | 13.6   | 17.9 | 21.8 | 41.7 | —    | —    | Straus (13.0) |
//! | 128  | 13.2   | 13.4 | 14.9 | 24.2 | 57.5 | —    | Straus (13.1) |
//! | 192  | 12.4   | 13.0 | 11.7 | 18.7 | 41.3 | —    | c=5 (12.4)    |
//! | 256  | 12.8   | 12.4 | 11.7 | 16.7 | 34.3 | —    | c=5 (11.7)    |
//! | 1024 | —      | 11.7 | 9.2  | 8.8  | 12.7 | 27.7 | c=7 (8.6)     |
//! | 4096 | —      | 11.7 | 8.4  | 6.9  | 7.3  | 11.1 | c=8 (7.0)     |
//!
//! The point operations underneath (`field_ops` group of `crates/bench/
//! benches/crypto_ops.rs`, dependent chains of 1024): doubling 0.14 µs,
//! mixed addition 0.18 µs, general addition 0.24–0.25 µs — a mixed addition
//! costs 0.68–0.74 of a general one across runs, which is the weight 7/10
//! in [`pippenger_window`]'s model `windows · (0.7·n + 2^(c+1))`. The model
//! picks windows within a few percent of the measured optima at every
//! swept size. Straus is flat at 12–15 µs per point while Pippenger's cost
//! falls with `n`; on full-width scalars the two meet between n = 128 and
//! n = 192, and on the shape `verify_batch` produces (half the points carry
//! 128-bit coefficients) already near n = 150, so [`STRAUS_CUTOFF`] = 160.
//!
//! # One signature: the lone-verify cost models
//!
//! A single verification needs `s·G + k·P` (`k = −e`). secp256k1 has the
//! endomorphism `λ·(x, y) = (β·x, y)`, and every scalar splits as
//! `k₁ + k₂·λ (mod n)` with `|kᵢ| < 2^128` ([`glv_split`]), so the
//! equation is four 128-bit terms `s₁·G + s₂·λG + k₁·P + k₂·λP` on one
//! doubling chain — [`double_mul_glv`], what a key met for the first time
//! costs. A point whose multiple `2^64·B` also has a table takes a
//! 128-bit scalar as two 64-bit terms, `a·B + b·(2^64·B)`; with static
//! tables of `G, λG, 2^64·G, 2^64·λG` and a signer's stored tables of
//! `P, 2^64·P` ([`SignerTables`]) the equation is **eight 64-bit terms**
//! on a chain of 64 steps, and no table is built per call.
//!
//! Counted over 2 000 hash-derived `(s, k)` and priced with the point
//! operations above (`field_ops`: doubling 0.14 µs, mixed addition
//! 0.17 µs, general addition 0.22 µs, inversion 3.1 µs, multiplication
//! 16 ns):
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
//! Measured in one process, alternating chunks of 100 calls, in a stretch
//! where this host ran everything 1.6× slower than the prices above (so
//! read the ratios): first sighting 49.5 µs, repeat signer 30.6 (0.62; the
//! model's 0.60), [`SignerTables::build`] 23.0 — 66 doublings, 30 general
//! additions, one inversion and 32 × 3 M, model 20.5 at those prices,
//! 33 at that hour's: a run of doublings of one point overlaps better
//! than the chains that priced it. A whole `PublicKey::verify` (plus
//! lifting `R`, 3.0 µs, and the challenge hash, 0.6 µs) went 54.0 → 35.5
//! (0.66), at the host's usual speed ≈ 34 → 22; in the benchmark's traced
//! ledger `crypto.verify_us` 51.9 → 33.3. The build is 1.2 of the 18.9 µs
//! the tables then save per call, which is why a key gets them on its
//! *second* lone verification ([`crate::schnorr::SignerMemo`]): a one-off
//! signer never pays, a repeat signer is ahead from its third. The static
//! tables are 4 × 64 affine points (18 KiB, built on first use: 66
//! doublings, 126 general additions and one inversion). The two-product
//! form PR 14 had — 60 additions from the signing table for `s·G`, then a
//! 256-step width-5 walk for `k·P` — is 59 µs at the model's prices.
//!
//! Tried and left out: building `P`'s per-call table on a shared
//! denominator ("effective affine", no inversion; `G`'s entries then pay
//! two multiplications per addition to follow it onto the isomorphic
//! curve) measured 31.4 → 28.2 µs for the first-sighting kernel but +2 %
//! `commit_tps` on the replicated benchmark workload, inside its
//! run-to-run spread, for a second table builder and table entries that
//! are not curve points. Storing the signer's `λ` images (4.5 KiB per key
//! instead of 2.3) would save the 0.5 µs row.
//!
//! # The signing comb
//!
//! `k·G` alone ([`crate::ec::mul_generator`]: a signature's nonce
//! commitment, a key's derivation) has no second term to share doublings
//! with, so it has none: a table holds every `j·128^w·G` a signed 7-bit
//! digit can ask for. Split over the endomorphism, a scalar is two halves
//! of 19 such digits, and the `λ` half reads the same table through one
//! `β` multiplication per addition: 37.2 mixed additions (at most 38) and
//! 18.6 multiplications, model 6.6 µs, against up to 64 additions (60.0
//! for a random scalar, 10.2 µs) from the 64 × 15 four-bit table it
//! replaced. Measured in the same stretch: 12.5 → 8.2 µs (0.66), a whole
//! `Keypair::sign` 17.7 → 13.6 (≈ 13 → 10 at the usual speed), signatures
//! byte for byte the same. The table is 19 × 64 points, 85.5 KiB
//! (the four-bit one was 67.5), built on first use from 19 doublings,
//! 1 197 general additions and one inversion (~0.3 ms).
//!
//! Nothing here is constant-time: digits, bucket indexes, the recodings
//! and the sign of each split half all branch and index on the scalars.

use std::sync::OnceLock;

use crate::ec::{Affine, Jacobian, GENERATOR};
use crate::field::{GLV_A1, GLV_A2, GLV_G1, GLV_G2, GLV_MINUS_B1};
use crate::u256::U256;

/// Batch sizes below this use [`straus`]; at or above it, [`pippenger`].
///
/// Chosen from the criterion sweep in the module docs: per-point cost of
/// Straus is flat (odd-multiples table + ~43 mixed additions) while
/// Pippenger's falls with `n`; the curves cross between n = 128 and
/// n = 192.
pub const STRAUS_CUTOFF: usize = 160;

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

/// Number of `c`-bit windows needed to cover the widest scalar in
/// `pairs` (at least one, so zero-scalar batches stay well-formed).
fn window_count(pairs: &[(Affine, U256)], c: u32) -> u32 {
    let max_bits = pairs.iter().map(|(_, k)| k.bits()).max().unwrap_or(0);
    max_bits.div_ceil(c).max(1)
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

/// Digits in the non-adjacent form of a 256-bit scalar.
const WNAF_DIGITS: usize = 257;

/// The width-`width` non-adjacent form of `k`: digits `dᵢ` with
/// `k = Σ dᵢ·2^i`, every nonzero digit odd with `|dᵢ| < 2^(width−1)`, and
/// at least `width − 1` zeros after each nonzero one — on average one
/// nonzero digit in `width + 1`. Returns the digits and how many of them
/// are in use (the index of the highest nonzero digit plus one).
fn wnaf(k: &U256, width: u32) -> ([i8; WNAF_DIGITS], usize) {
    debug_assert!((2..=8).contains(&width), "digits must fit an i8");
    let mut digits = [0i8; WNAF_DIGITS];
    let mut used = 0;
    // `carry` is what a negative digit further down borrowed from here.
    let mut carry = 0u32;
    let mut bit = 0u32;
    let top = k.bits();
    // Past the scalar's top bit only a pending carry is left to place.
    while bit < 256 && (bit < top || carry == 1) {
        if k.bit(bit) as u32 == carry {
            // The bit and the carry cancel (0+0, or 1+1 carrying on).
            bit += 1;
            continue;
        }
        let take = width.min(256 - bit);
        let window = digit(k, bit, take) as u32 + carry; // odd, < 2^width
        carry = window >> (width - 1);
        digits[bit as usize] = (window as i32 - ((carry as i32) << width)) as i8;
        used = bit as usize + 1;
        bit += take;
    }
    if carry == 1 {
        digits[256] = 1;
        used = WNAF_DIGITS;
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
    /// `k` over `table`, which holds `2^(width−2)` odd multiples.
    fn new(table: &'a [Affine], k: &U256, width: u32) -> Stream<'a> {
        debug_assert_eq!(table.len(), 1 << (width - 2));
        let (digits, used) = wnaf(k, width);
        Stream {
            table,
            digits,
            used,
        }
    }

    /// `±magnitude` over `table`: a negative scalar is its magnitude with
    /// every digit's sign flipped.
    fn signed(table: &'a [Affine], (magnitude, negative): (U256, bool), width: u32) -> Self {
        let mut stream = Stream::new(table, &magnitude, width);
        if negative {
            for d in &mut stream.digits[..stream.used] {
                *d = -*d;
            }
        }
        stream
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

/// `Σ kᵢ·Pᵢ` by the Straus (shared-doubling) method on signed windows.
///
/// Each point gets a table of its eight odd multiples `P, 3P, …, 15P`;
/// the tables are brought to affine form by a shared inversion, so the
/// single doubling chain that serves every point adds mixed. Each scalar
/// is recoded to width-5 non-adjacent form (`wnaf`) — about 43 additions
/// for a 256-bit scalar, negative digits adding the negated entry.
/// Preferred below [`STRAUS_CUTOFF`] points.
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
    let streams: Vec<Stream<'_>> = pairs
        .iter()
        .zip(tables.chunks_exact(ODD_MULTIPLES))
        .map(|((_, k), table)| Stream::new(table, k, WNAF_WIDTH))
        .collect();
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
/// ([`Affine::mul_lambda`]). Scalars are taken modulo `n`; `P` must be on
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

/// `Σ kᵢ·Pᵢ` by the Pippenger bucket method with `c`-bit windows.
///
/// Per window: each point lands in the bucket of its scalar digit (one
/// mixed addition), then the buckets collapse with the running-sum trick
/// (`Σ j·Bⱼ` in `2·(2^c − 1)` additions). Use [`pippenger_window`] to pick
/// `c`, or [`msm`] to have both picked automatically.
pub fn pippenger(pairs: &[(Affine, U256)], c: u32) -> Jacobian {
    assert!((1..=16).contains(&c), "window width must be in 1..=16");
    if pairs.is_empty() {
        return Jacobian::infinity();
    }
    let windows = window_count(pairs, c);
    let n_buckets = (1usize << c) - 1;
    let mut acc = Jacobian::infinity();
    let mut buckets = vec![Jacobian::infinity(); n_buckets];
    for w in (0..windows).rev() {
        if !acc.is_infinity() {
            for _ in 0..c {
                acc = acc.double();
            }
        }
        for b in buckets.iter_mut() {
            *b = Jacobian::infinity();
        }
        let mut touched = false;
        for (p, k) in pairs {
            let d = digit(k, w * c, c);
            if d != 0 {
                buckets[d - 1] = buckets[d - 1].add_affine(p);
                touched = true;
            }
        }
        if !touched {
            continue;
        }
        // Running sum: Σ_j j·B_j = Σ over suffix sums of the buckets.
        let mut running = Jacobian::infinity();
        let mut sum = Jacobian::infinity();
        for b in buckets.iter().rev() {
            running = running.add(b);
            sum = sum.add(&running);
        }
        acc = acc.add(&sum);
    }
    acc
}

/// The Pippenger window width minimizing the modeled cost for an
/// `n`-point MSM over full-width scalars.
///
/// Model: `windows(c) · (0.7·n + 2^(c+1))` — `n` mixed bucket additions
/// (8M + 3S, measured at 0.70 of a general 12M + 4S addition) plus the
/// running-sum collapse per window. Validated against the criterion sweep
/// recorded in the module docs.
pub fn pippenger_window(n: usize) -> u32 {
    let mut best = 4u32;
    let mut best_cost = u64::MAX;
    for c in 4..=14u32 {
        let windows = 256u64.div_ceil(c as u64);
        let cost = windows * ((7 * n as u64) / 10 + (1u64 << (c + 1)));
        if cost < best_cost {
            best_cost = cost;
            best = c;
        }
    }
    best
}

/// `Σ kᵢ·Pᵢ`, selecting [`straus`] or [`pippenger`] (with
/// [`pippenger_window`]) by batch size.
pub fn msm(pairs: &[(Affine, U256)]) -> Jacobian {
    if pairs.len() < STRAUS_CUTOFF {
        straus(pairs)
    } else {
        pippenger(pairs, pippenger_window(pairs.len()))
    }
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
        for count in [STRAUS_CUTOFF - 1, STRAUS_CUTOFF, STRAUS_CUTOFF + 5] {
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
        for c in [4u32, 5, 9] {
            assert_eq!(pippenger(&ps, c).to_affine(), expect, "c={c}");
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
            for k in ladder_scalars().into_iter().chain(scalars(8, 0x31)) {
                let (digits, used) = wnaf(&k, width);
                assert!(digits[used..].iter().all(|&d| d == 0));
                assert!(used == 0 || digits[used - 1] != 0);
                // Horner from the top, modulo 2^256 (a digit at position
                // 256 contributes 2^256 ≡ 0 and is checked by the ladder
                // tests).
                let mut sum = U256::ZERO;
                for (i, &d) in digits.iter().enumerate().take(256).rev() {
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
            let c = pippenger_window(n);
            assert!((4..=14).contains(&c));
            assert!(c >= last, "window must grow with n");
            last = c;
        }
    }
}
