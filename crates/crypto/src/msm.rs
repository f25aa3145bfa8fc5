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
//! Nothing here is constant-time: digits, bucket indexes and the recoding
//! all branch and index on the scalars.

use crate::ec::{Affine, Jacobian};
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
fn digit(k: &U256, lo: u32, c: u32) -> usize {
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

/// Signed-window width of [`straus`]: digits are odd and at most 15 in
/// magnitude, so a point needs its [`ODD_MULTIPLES`] `P, 3P, …, 15P` only.
const WNAF_WIDTH: u32 = 5;

/// Table entries per point in [`straus`].
const ODD_MULTIPLES: usize = 1 << (WNAF_WIDTH - 2);

/// Points whose tables [`straus`] normalises with one shared inversion.
const NORMALIZE_BLOCK: usize = 16;

/// Digits in the width-5 non-adjacent form of a 256-bit scalar.
const WNAF_DIGITS: usize = 257;

/// The width-5 non-adjacent form of `k`: digits `dᵢ` with
/// `k = Σ dᵢ·2^i`, every nonzero digit odd with `|dᵢ| ≤ 15`, and at least
/// four zeros after each nonzero one — on average one nonzero digit in
/// six. Returns the digits and how many of them are in use (the index of
/// the highest nonzero digit plus one).
fn wnaf(k: &U256) -> ([i8; WNAF_DIGITS], usize) {
    let mut digits = [0i8; WNAF_DIGITS];
    let mut used = 0;
    // `carry` is what a negative digit further down borrowed from here.
    let mut carry = 0u32;
    let mut bit = 0u32;
    while bit < 256 {
        if k.bit(bit) as u32 == carry {
            // The bit and the carry cancel (0+0, or 1+1 carrying on).
            bit += 1;
            continue;
        }
        let width = WNAF_WIDTH.min(256 - bit);
        let window = digit(k, bit, width) as u32 + carry; // odd, ≤ 31
        carry = window >> (WNAF_WIDTH - 1);
        digits[bit as usize] = (window as i32 - ((carry as i32) << WNAF_WIDTH)) as i8;
        used = bit as usize + 1;
        bit += width;
    }
    if carry == 1 {
        digits[256] = 1;
        used = WNAF_DIGITS;
    }
    (digits, used)
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
            let mut multiple = Jacobian::from_affine(p);
            let twice = multiple.double();
            for _ in 0..ODD_MULTIPLES {
                multiples.push(multiple);
                multiple = multiple.add(&twice);
            }
        }
        tables.extend(Jacobian::batch_to_affine(&multiples));
    }
    let recoded: Vec<_> = pairs.iter().map(|(_, k)| wnaf(k)).collect();
    let top = recoded.iter().map(|(_, used)| *used).max().unwrap_or(0);
    let mut acc = Jacobian::infinity();
    for bit in (0..top).rev() {
        acc = acc.double();
        for ((digits, _), table) in recoded.iter().zip(tables.chunks_exact(ODD_MULTIPLES)) {
            let d = digits[bit];
            if d != 0 {
                let entry = &table[d.unsigned_abs() as usize / 2];
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

/// `k·P` for a variable base point — the single-point special case of
/// [`straus`]: 256 doublings and ~43 mixed additions against the generic
/// ladder's ~128 general ones. Used for the `e·P` half of every
/// per-signature Schnorr verification.
pub fn mul_window(point: &Affine, k: &U256) -> Jacobian {
    straus(&[(*point, *k)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ec::tests::ladder_scalars;
    use crate::ec::{mul_generator, GENERATOR};
    use crate::field::N;

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

    #[test]
    fn mul_window_matches_ladder() {
        let p = mul_generator(&U256::from_u64(42));
        for k in ladder_scalars().into_iter().chain(scalars(6, 0x9)) {
            assert_eq!(
                mul_window(&p, &k).to_affine(),
                Jacobian::from_affine(&p).mul_scalar(&k).to_affine(),
                "k={}",
                k.to_hex()
            );
        }
        for k in [U256::ZERO, U256::from_u64(9), U256::MAX] {
            assert!(mul_window(&Affine::Infinity, &k).is_infinity());
        }
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
        for k in ladder_scalars().into_iter().chain(scalars(8, 0x31)) {
            let (digits, used) = wnaf(&k);
            assert!(digits[used..].iter().all(|&d| d == 0));
            assert!(used == 0 || digits[used - 1] != 0);
            // Horner from the top, modulo 2^256 (a digit at position 256
            // contributes 2^256 ≡ 0 and is checked by the ladder tests).
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
                    assert!(d % 2 != 0 && d.unsigned_abs() <= 15, "digit {d}");
                    let next = (i + 1)..(i + WNAF_WIDTH as usize).min(WNAF_DIGITS);
                    assert!(digits[next].iter().all(|&z| z == 0), "k={}", k.to_hex());
                }
            }
            assert_eq!(sum, k, "k={}", k.to_hex());
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
