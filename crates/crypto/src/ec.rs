//! secp256k1 elliptic-curve group operations.
//!
//! The curve is `y² = x³ + 7` over the prime field `F_p`, with coordinates
//! held as [`Fe`] elements. Points are kept in Jacobian projective
//! coordinates internally so that point addition and doubling avoid the
//! (expensive) field inversion; only conversion back to affine coordinates
//! pays one, and `Jacobian::batch_to_affine` shares that one across a
//! whole table. Operation costs in field multiplications (M) and
//! squarings (S): doubling 3M + 4S, mixed addition of an affine point
//! 8M + 3S, general addition 12M + 4S.

use std::fmt;
use std::sync::OnceLock;

use crate::field::{Fe, BETA};
use crate::msm::{glv_split, signed_digits};
use crate::u256::U256;

/// The curve constant `b` of `y² = x³ + b`.
const B: Fe = Fe::from_u64(7);

/// An affine curve point, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    /// The identity element of the group.
    Infinity,
    /// A finite point `(x, y)` with coordinates in `F_p`.
    Point {
        /// x coordinate.
        x: Fe,
        /// y coordinate.
        y: Fe,
    },
}

impl Affine {
    /// True if the y coordinate is even (used for compressed encoding).
    /// Infinity reports `true`.
    pub fn y_is_even(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { y, .. } => !y.is_odd(),
        }
    }

    /// SEC1-style compressed encoding: `02/03 || x` (33 bytes). Infinity
    /// encodes as 33 zero bytes.
    pub fn to_compressed(&self) -> [u8; 33] {
        let mut out = [0u8; 33];
        if let Affine::Point { x, y } = self {
            out[0] = if y.is_odd() { 0x03 } else { 0x02 };
            out[1..].copy_from_slice(&x.to_be_bytes());
        }
        out
    }

    /// The finite point with x coordinate `x` whose y has the requested
    /// parity. `None` if `x ≥ p` (non-canonical) or no point has that x.
    pub(crate) fn lift_x(x: &U256, parity_odd: bool) -> Option<Affine> {
        let x = Fe::from_u256(x)?;
        let y = (x.sqr() * x + B).sqrt()?;
        let y = if y.is_odd() == parity_odd { y } else { -y };
        Some(Affine::Point { x, y })
    }

    /// Decodes a compressed point, recovering y from x.
    ///
    /// Returns `None` if the prefix is invalid, x is not on the curve, or
    /// the encoding is not canonical.
    pub fn from_compressed(bytes: &[u8; 33]) -> Option<Affine> {
        if bytes == &[0u8; 33] {
            return Some(Affine::Infinity);
        }
        let parity_odd = match bytes[0] {
            0x02 => false,
            0x03 => true,
            _ => return None,
        };
        let mut xb = [0u8; 32];
        xb.copy_from_slice(&bytes[1..]);
        Affine::lift_x(&U256::from_be_bytes(&xb), parity_odd)
    }

    /// The additive inverse (reflection over the x axis).
    pub fn negate(&self) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point { x: *x, y: -*y },
        }
    }

    /// `λ·self` for one field multiplication: the curve endomorphism
    /// `(x, y) ↦ (β·x, y)` with [`BETA`] and [`crate::field::LAMBDA`]. Only
    /// meaningful for points of the curve.
    pub(crate) fn mul_lambda(&self) -> Affine {
        match self {
            Affine::Infinity => Affine::Infinity,
            Affine::Point { x, y } => Affine::Point {
                x: *x * BETA,
                y: *y,
            },
        }
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Affine::Infinity => f.write_str("∞"),
            Affine::Point { x, .. } => write!(f, "({}…, …)", &x.to_u256().to_hex()[..8]),
        }
    }
}

/// A point in Jacobian coordinates `(X, Y, Z)` representing the affine
/// point `(X/Z², Y/Z³)`; `Z = 0` is infinity.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Jacobian {
    /// The point at infinity.
    pub fn infinity() -> Jacobian {
        Jacobian {
            x: Fe::ONE,
            y: Fe::ONE,
            z: Fe::ZERO,
        }
    }

    /// True if this is the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Lifts an affine point into Jacobian coordinates.
    pub fn from_affine(a: &Affine) -> Jacobian {
        match a {
            Affine::Infinity => Jacobian::infinity(),
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// The affine form of a finite point, given `zinv = 1/Z`.
    fn scaled_by(&self, zinv: Fe) -> Affine {
        let zinv2 = zinv.sqr();
        Affine::Point {
            x: self.x * zinv2,
            y: self.y * zinv2 * zinv,
        }
    }

    /// Converts back to affine coordinates (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        self.scaled_by(self.z.inv())
    }

    /// Converts many points to affine coordinates with one field inversion
    /// between them and three multiplications per point (Montgomery's
    /// trick); infinities pass through.
    pub(crate) fn batch_to_affine(points: &[Jacobian]) -> Vec<Affine> {
        // before[i] = product of the finite points' Z before index i.
        let mut acc = Fe::ONE;
        let before: Vec<Fe> = points
            .iter()
            .map(|p| {
                let product = acc;
                if !p.is_infinity() {
                    acc = acc * p.z;
                }
                product
            })
            .collect();
        // `inv` is the inverse of the product of Z up to and including i.
        let mut inv = acc.inv();
        let mut out = vec![Affine::Infinity; points.len()];
        for ((p, before), slot) in points.iter().zip(before).zip(out.iter_mut()).rev() {
            if !p.is_infinity() {
                *slot = p.scaled_by(inv * before);
                inv = inv * p.z;
            }
        }
        out
    }

    /// Point doubling (formulas specialised for curve parameter `a = 0`;
    /// the constant factors are additions).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::infinity();
        }
        let y2 = self.y.sqr();
        let s = (self.x * y2).double().double(); // 4·X·Y²
        let m = self.x.sqr().triple(); // 3·X²
        let x3 = m.sqr() - s.double();
        let y4_8 = y2.sqr().double().double().double(); // 8·Y⁴
        Jacobian {
            x: x3,
            y: m * (s - x3) - y4_8,
            z: (self.y * self.z).double(),
        }
    }

    /// Mixed addition of an affine point (`Z₂ = 1`): the same result as
    /// [`Jacobian::add`] on the lifted point, but with the `Z₂`-dependent
    /// field multiplications eliminated (8M + 3S instead of 12M + 4S).
    /// This is the inner-loop operation of the fixed-base table and of the
    /// multi-scalar kernels in [`crate::msm`], where the table or input
    /// points are affine by construction.
    pub fn add_affine(&self, other: &Affine) -> Jacobian {
        let Affine::Point { x: x2, y: y2 } = other else {
            return *self;
        };
        if self.is_infinity() {
            return Jacobian::from_affine(other);
        }
        let z1z1 = self.z.sqr();
        let u2 = *x2 * z1z1;
        let s2 = *y2 * z1z1 * self.z;
        self.add_reduced(self.x, self.y, u2, s2, self.z)
    }

    /// General Jacobian point addition.
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.sqr();
        let z2z2 = other.z.sqr();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        self.add_reduced(u1, s1, u2, s2, self.z * other.z)
    }

    /// The tail both additions share, once the operands are on a common
    /// denominator: `(u1, s1)` and `(u2, s2)` are the two points' x and y
    /// scaled to `Z = z1·z2`, passed as `z`. `self` is the first operand,
    /// doubled when the two turn out equal.
    fn add_reduced(&self, u1: Fe, s1: Fe, u2: Fe, s2: Fe, z: Fe) -> Jacobian {
        if u1 == u2 {
            #[cfg(test)]
            DEGENERATE_ADDS.with(|count| count.set(count.get() + 1));
            return if s1 == s2 {
                self.double()
            } else {
                Jacobian::infinity()
            };
        }
        let h = u2 - u1;
        let r = s2 - s1;
        let h2 = h.sqr();
        let h3 = h2 * h;
        let u1h2 = u1 * h2;
        let x3 = r.sqr() - h3 - u1h2.double();
        Jacobian {
            x: x3,
            y: r * (u1h2 - x3) - s1 * h3,
            z: h * z,
        }
    }

    /// Scalar multiplication by double-and-add (MSB first): the plain
    /// ladder the windowed kernels are tested against.
    pub fn mul_scalar(&self, k: &U256) -> Jacobian {
        let mut acc = Jacobian::infinity();
        let bits = k.bits();
        for i in (0..bits).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }
}

/// The standard secp256k1 generator point `G`.
pub const GENERATOR: Affine = Affine::Point {
    x: Fe::from_canonical_limbs([
        0x59f2_815b_16f8_1798,
        0x029b_fcdb_2dce_28d9,
        0x55a0_6295_ce87_0b07,
        0x79be_667e_f9dc_bbac,
    ]),
    y: Fe::from_canonical_limbs([
        0x9c47_d08f_fb10_d4b8,
        0xfd17_b448_a685_5419,
        0x5da4_fbfc_0e11_08a8,
        0x483a_da77_26a3_c465,
    ]),
};

/// Bits per window of the generator comb.
const COMB_BITS: u32 = 7;

/// Windows covering one GLV half: 19 × 7 = 133 bits, room for a half of
/// 129 bits (a scalar `≥ n`) and the carry of the window below.
const COMB_WINDOWS: usize = 19;

/// Entries per window: the magnitudes `1..=64` of a signed 7-bit digit.
const COMB_ENTRIES: usize = 1 << (COMB_BITS - 1);

/// Precomputed fixed-base comb for the generator: `comb[w][j]` holds
/// `(j + 1) · 128^w · G`, affine. Built once on first use, shared by every
/// signing and key-derivation call in the process; sizes and the cost
/// model are in [`crate::msm`]'s module docs. Verification does not come
/// here: its `s·G` rides the doubling chain it needs for the public key
/// anyway ([`crate::msm::double_mul_glv`]).
fn generator_comb() -> &'static [[Affine; COMB_ENTRIES]] {
    static COMB: OnceLock<Vec<[Affine; COMB_ENTRIES]>> = OnceLock::new();
    COMB.get_or_init(|| {
        let mut entries = Vec::with_capacity(COMB_WINDOWS * COMB_ENTRIES);
        // `base` is 128^w · G for the current window.
        let mut base = Jacobian::from_affine(&GENERATOR);
        for _ in 0..COMB_WINDOWS {
            let mut multiple = base;
            for _ in 1..COMB_ENTRIES {
                entries.push(multiple);
                multiple = multiple.add(&base);
            }
            entries.push(multiple);
            base = multiple.double(); // 2 · 64 · base
        }
        Jacobian::batch_to_affine(&entries)
            .chunks_exact(COMB_ENTRIES)
            .map(|row| std::array::from_fn(|j| row[j]))
            .collect()
    })
}

/// `k·G` in Jacobian form — key derivation and signing's nonce
/// commitment — via the fixed-base comb: `k` split over the endomorphism
/// ([`glv_split`]), each half recoded into 19 signed 7-bit digits, one
/// entry added per nonzero digit (the `λ` half's with its x multiplied by
/// `β`). At most 38 mixed additions and no doublings.
pub fn mul_generator_jacobian(k: &U256) -> Jacobian {
    let comb = generator_comb();
    let mut acc = Jacobian::infinity();
    for ((magnitude, negative), lambda) in glv_split(k).into_iter().zip([false, true]) {
        for (row, d) in comb.iter().zip(signed_digits(&magnitude, COMB_BITS)) {
            if d != 0 {
                let entry = row[d.unsigned_abs() as usize - 1];
                let entry = if lambda { entry.mul_lambda() } else { entry };
                let flip = negative != (d < 0);
                acc = acc.add_affine(&if flip { entry.negate() } else { entry });
            }
        }
    }
    acc
}

/// `k·G` — scalar multiplication of the generator, returned in affine form.
pub fn mul_generator(k: &U256) -> Affine {
    mul_generator_jacobian(k).to_affine()
}

#[cfg(test)]
thread_local! {
    /// Additions on this thread whose operands had the same x coordinate
    /// (equal or opposite points), which the generic formula cannot add.
    /// Tests read it to show that an input really reaches those branches.
    pub(crate) static DEGENERATE_ADDS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::field::N;

    impl Affine {
        /// True if the point satisfies the curve equation (or is infinity).
        fn is_on_curve(&self) -> bool {
            match self {
                Affine::Infinity => true,
                Affine::Point { x, y } => y.sqr() == x.sqr() * *x + B,
            }
        }

        /// The x coordinate, or `None` for infinity.
        fn x(&self) -> Option<U256> {
            match self {
                Affine::Infinity => None,
                Affine::Point { x, .. } => Some(x.to_u256()),
            }
        }
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(GENERATOR.is_on_curve());
    }

    #[test]
    fn known_double_of_generator() {
        // 2G is a published test vector.
        let two_g = Jacobian::from_affine(&GENERATOR).double().to_affine();
        assert!(two_g.is_on_curve());
        assert_eq!(
            two_g.x().unwrap().to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
        );
    }

    #[test]
    fn order_times_generator_is_infinity() {
        let ng = mul_generator(&N);
        assert_eq!(ng, Affine::Infinity);
    }

    #[test]
    fn n_minus_one_g_is_negation_of_g() {
        let k = N.wrapping_sub(&U256::ONE);
        assert_eq!(mul_generator(&k), GENERATOR.negate());
    }

    #[test]
    fn addition_matches_doubling() {
        let g = Jacobian::from_affine(&GENERATOR);
        assert_eq!(g.add(&g).to_affine(), g.double().to_affine());
    }

    #[test]
    fn scalar_mul_is_additive() {
        // (a+b)G == aG + bG for a few scalars.
        let cases = [(1u64, 1), (2, 3), (12345, 67890), (u64::MAX, 1)];
        for (a, b) in cases {
            let a = U256::from_u64(a);
            let b = U256::from_u64(b);
            let lhs = mul_generator(&a.wrapping_add(&b));
            let rhs = Jacobian::from_affine(&mul_generator(&a))
                .add(&Jacobian::from_affine(&mul_generator(&b)))
                .to_affine();
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn mixed_addition_matches_general_addition() {
        // add_affine must agree with add on distinct points, equal points
        // (doubling), negations (infinity) and identity operands.
        let a = mul_generator(&U256::from_u64(5));
        let b = mul_generator(&U256::from_u64(9));
        let aj = Jacobian::from_affine(&a);
        assert_eq!(
            aj.add_affine(&b).to_affine(),
            aj.add(&Jacobian::from_affine(&b)).to_affine()
        );
        assert_eq!(aj.add_affine(&a).to_affine(), aj.double().to_affine());
        assert!(aj.add_affine(&a.negate()).is_infinity());
        assert_eq!(aj.add_affine(&Affine::Infinity).to_affine(), a);
        assert_eq!(Jacobian::infinity().add_affine(&b).to_affine(), b);
        // A non-one Z1 (from a prior addition) still reduces correctly.
        let c = aj.add(&Jacobian::from_affine(&b)); // Z != 1
        assert_eq!(
            c.add_affine(&a).to_affine(),
            c.add(&Jacobian::from_affine(&a)).to_affine()
        );
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let g = GENERATOR;
        let sum = Jacobian::from_affine(&g).add(&Jacobian::from_affine(&g.negate()));
        assert!(sum.is_infinity());
    }

    #[test]
    fn compressed_round_trip() {
        for k in [1u64, 2, 3, 999, 123456789] {
            let pt = mul_generator(&U256::from_u64(k));
            let enc = pt.to_compressed();
            let dec = Affine::from_compressed(&enc).expect("decodes");
            assert_eq!(dec, pt, "k={k}");
        }
        // Infinity round trip.
        let inf = Affine::Infinity.to_compressed();
        assert_eq!(Affine::from_compressed(&inf), Some(Affine::Infinity));
    }

    #[test]
    fn compressed_rejects_garbage() {
        let mut b = [0u8; 33];
        b[0] = 0x05;
        b[1] = 1;
        assert_eq!(Affine::from_compressed(&b), None);
    }

    #[test]
    fn small_multiples_are_distinct_and_on_curve() {
        let mut seen = std::collections::HashSet::new();
        for k in 1u64..=20 {
            let pt = mul_generator(&U256::from_u64(k));
            assert!(pt.is_on_curve(), "k={k}");
            assert!(
                seen.insert(format!("{:?}", pt)),
                "duplicate point for k={k}"
            );
        }
    }

    #[test]
    fn zero_scalar_gives_infinity() {
        assert_eq!(mul_generator(&U256::ZERO), Affine::Infinity);
    }

    #[test]
    fn window_table_matches_ladder() {
        let g = Jacobian::from_affine(&GENERATOR);
        for k in ladder_scalars() {
            assert_eq!(
                mul_generator(&k),
                g.mul_scalar(&k).to_affine(),
                "k={}",
                k.to_hex()
            );
        }
    }

    #[test]
    fn comb_matches_ladder_on_every_window_and_carry_chain() {
        use crate::field::{add_mod, mul_mod, LAMBDA};
        let g = Jacobian::from_affine(&GENERATOR);
        let check = |k: U256| {
            let expect = g.mul_scalar(&k).to_affine();
            assert_eq!(mul_generator(&k), expect, "k={}", k.to_hex());
        };
        let two128 = U256::ONE.shl(128);
        check(two128.wrapping_sub(&U256::ONE));
        check(two128.wrapping_add(&U256::ONE));
        // A half whose 7-bit windows `lo..=hi` are all ones: every digit of
        // the run is written negative and carries into the next, the last
        // carry landing in window `hi + 1` (`lo == hi`: one window all
        // ones). Short enough for the split to hand the half back, so the
        // comb recodes exactly this pattern — on `G`, on `λG`, negated, and
        // beside another run on the other half.
        let run = |lo: u32, hi: u32| U256::MAX.shr(256 - 7 * (hi - lo + 1)).shl(7 * lo);
        for hi in 0..18u32 {
            for lo in 0..=hi {
                let half = run(lo, hi);
                let on_lambda = mul_mod(&half, &LAMBDA, &N);
                assert_eq!(glv_split(&half), [(half, false), (U256::ZERO, false)]);
                assert_eq!(glv_split(&on_lambda)[1], (half, false), "{lo}..={hi}");
                check(half);
                check(on_lambda);
                check(N.wrapping_sub(&half));
                check(add_mod(&run(hi - lo, hi), &on_lambda, &N));
            }
        }
    }

    #[test]
    fn endomorphism_multiplies_by_lambda() {
        use crate::field::{mul_mod, LAMBDA};
        let Affine::Point { x, y } = GENERATOR else {
            unreachable!("G is finite")
        };
        let g = Jacobian::from_affine(&GENERATOR);
        let lambda_g = g.mul_scalar(&LAMBDA).to_affine();
        assert_eq!(lambda_g, Affine::Point { x: x * BETA, y });
        assert_eq!(GENERATOR.mul_lambda(), lambda_g);
        // On any point, and twice over: λ²·P by the ladder.
        let lambda_sq = mul_mod(&LAMBDA, &LAMBDA, &N);
        for k in [2u64, 77, 0xdead_beef] {
            let p = mul_generator(&U256::from_u64(k));
            let pj = Jacobian::from_affine(&p);
            assert_eq!(p.mul_lambda(), pj.mul_scalar(&LAMBDA).to_affine());
            assert_eq!(
                p.mul_lambda().mul_lambda(),
                pj.mul_scalar(&lambda_sq).to_affine()
            );
        }
        assert_eq!(Affine::Infinity.mul_lambda(), Affine::Infinity);
    }

    #[test]
    fn lift_x_agrees_with_the_curve_equation() {
        let Affine::Point { x, y } = GENERATOR else {
            unreachable!("G is finite")
        };
        assert_eq!(Affine::lift_x(&x.to_u256(), y.is_odd()), Some(GENERATOR));
        assert_eq!(
            Affine::lift_x(&x.to_u256(), !y.is_odd()),
            Some(GENERATOR.negate())
        );
        // x = 5 is on no point (5³ + 7 is a non-residue); x ≥ p is not an
        // encoding of anything.
        assert_eq!(Affine::lift_x(&U256::from_u64(5), false), None);
        assert_eq!(Affine::lift_x(&crate::field::P, false), None);
        assert_eq!(Affine::lift_x(&U256::MAX, true), None);
    }

    #[test]
    fn batch_to_affine_matches_single_conversions() {
        let g = Jacobian::from_affine(&GENERATOR);
        let mut points = vec![Jacobian::infinity(), g];
        for k in [2u64, 3, 77, 1 << 40] {
            points.push(g.mul_scalar(&U256::from_u64(k)));
            points.push(Jacobian::infinity());
        }
        let expect: Vec<Affine> = points.iter().map(Jacobian::to_affine).collect();
        assert_eq!(Jacobian::batch_to_affine(&points), expect);
        assert!(Jacobian::batch_to_affine(&[]).is_empty());
    }

    /// Scalars the windowed kernels are compared with the plain ladder on:
    /// zero, the window-digit boundaries of both recodings, the group order's
    /// neighbourhood, the widest scalar, and a few full-width pseudo-random
    /// ones.
    pub(crate) fn ladder_scalars() -> Vec<U256> {
        let mut scalars: Vec<U256> = [0u64, 1, 2, 15, 16, 17, 31, 32, 33, u64::MAX]
            .iter()
            .map(|&k| U256::from_u64(k))
            .collect();
        scalars.extend([
            N.wrapping_sub(&U256::ONE),
            N,
            N.wrapping_add(&U256::ONE),
            U256::MAX,
            U256::MAX.shr(1),
            U256::ONE.shl(255),
        ]);
        let mut x = U256::from_u64(0x9e3779b97f4a7c15);
        for _ in 0..4 {
            x = x
                .wrapping_mul(&x)
                .wrapping_add(&U256::from_u64(0xda3e39cb94b95bdb));
            scalars.push(x);
        }
        scalars
    }
}
