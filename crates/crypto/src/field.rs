//! Arithmetic modulo the two secp256k1 primes.
//!
//! - [`Fe`] is the dedicated base-field element for
//!   `p = 2^256 − 0x1000003D1`. Every curve operation runs on it. A
//!   product is a schoolbook 4×4 limb multiplication (a squaring computes
//!   each cross product once) whose high half is folded down twice, each
//!   time as *one limb times* `0x1000003D1`, because
//!   `2^256 ≡ 0x1000003D1 (mod p)`; one conditional subtraction then
//!   yields the canonical value. Small multiples are additions, and
//!   [`Fe::inv`] / [`Fe::sqrt`] are the fixed addition chains for `p − 2`
//!   and `(p + 1)/4` (255 squarings plus 15, respectively 13,
//!   multiplications). Elements are always fully reduced, so `==` is value
//!   equality. Nothing here is constant-time.
//! - The generic `*_mod(a, b, m)` family works for any modulus with the top
//!   bit set. It serves the scalar field [`N`] (a handful of calls per
//!   signature) and is the reference [`Fe`] is tested against. Its
//!   reduction folds `hi·2^256 + lo ≡ hi·d + lo (mod m)` for
//!   `m = 2^256 − d` until the high half is empty (two or three folds for
//!   our moduli, where `d < 2^130`).

use std::ops::{Add, Mul, Neg, Sub};

use crate::u256::U256;

/// The secp256k1 base-field prime `p = 2^256 − 2^32 − 977`.
pub const P: U256 = U256::from_limbs([
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
]);

/// The secp256k1 group order `n`.
pub const N: U256 = U256::from_limbs([
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
]);

/// `λ`, a primitive cube root of unity modulo [`N`]: the scalar the curve
/// endomorphism `(x, y) ↦ (β·x, y)` multiplies by (see `BETA` and
/// `crate::ec::Affine::mul_lambda`).
pub const LAMBDA: U256 = U256::from_limbs([
    0xdf02_967c_1b23_bd72,
    0x122e_22ea_2081_6678,
    0xa526_1c02_8812_645a,
    0x5363_ad4c_c05c_30e0,
]);

/// `β`, the primitive cube root of unity modulo [`P`] that goes with
/// [`LAMBDA`]: `λ·(x, y) = (β·x, y)` for every point of the curve.
pub(crate) const BETA: Fe = Fe([
    0xc139_6c28_7195_01ee,
    0x9cf0_4975_12f5_8995,
    0x6e64_479e_ac34_34e9,
    0x7ae9_6a2b_657c_0710,
]);

/// The short lattice basis `(a₁, b₁)`, `(a₂, b₂)` of
/// `{(a, b) : a + b·λ ≡ 0 (mod n)}` that [`crate::msm::glv_split`] rounds
/// against: `a₁ = b₂` = [`GLV_A1`], `−b₁` = [`GLV_MINUS_B1`], `a₂` =
/// [`GLV_A2`]. All are around `√n`, which is what keeps both halves of a
/// split to 128 bits.
pub(crate) const GLV_A1: U256 =
    U256::from_limbs([0xe86c_90e4_9284_eb15, 0x3086_d221_a7d4_6bcd, 0, 0]);
/// See [`GLV_A1`].
pub(crate) const GLV_MINUS_B1: U256 =
    U256::from_limbs([0x6f54_7fa9_0abf_e4c3, 0xe443_7ed6_010e_8828, 0, 0]);
/// See [`GLV_A1`].
pub(crate) const GLV_A2: U256 =
    U256::from_limbs([0x57c1_108d_9d44_cfd8, 0x14ca_50f7_a8e2_f3f6, 1, 0]);

/// `round(2^384·b₂/n)` and `round(2^384·(−b₁)/n)`: multiplying a scalar by
/// one of these and keeping the bits above 2^384 is the rounded division
/// by `n` the split needs, without a division.
pub(crate) const GLV_G1: U256 = U256::from_limbs([
    0xe893_209a_45db_b031,
    0x3daa_8a14_71e8_ca7f,
    0xe86c_90e4_9284_eb15,
    0x3086_d221_a7d4_6bcd,
]);
/// See [`GLV_G1`].
pub(crate) const GLV_G2: U256 = U256::from_limbs([
    0x1571_b4ae_8ac4_7f71,
    0x2212_08ac_9df5_06c6,
    0x6f54_7fa9_0abf_e4c4,
    0xe443_7ed6_010e_8828,
]);

/// `2^256 − p`: what one unit of the 2^256 column is worth modulo `p`.
const FOLD: u64 = 0x1_0000_03d1;

/// `acc + a·b + carry` as `(low, high)` limbs; cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = acc as u128 + (a as u128) * (b as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a + b + carry` as `(sum, carry_out)`.
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// `a − b − borrow` as `(difference, borrow_out)`.
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, (t >> 127) as u64)
}

/// An element of the secp256k1 base field, kept canonical (`< p`) in four
/// little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fe([u64; 4]);

impl Fe {
    /// Zero.
    pub(crate) const ZERO: Fe = Fe([0, 0, 0, 0]);
    /// One.
    pub(crate) const ONE: Fe = Fe([1, 0, 0, 0]);

    /// Builds an element from little-endian limbs the caller knows to be
    /// below `p` (curve constants).
    pub(crate) const fn from_canonical_limbs(limbs: [u64; 4]) -> Fe {
        Fe(limbs)
    }

    /// Builds from a `u64`.
    pub(crate) const fn from_u64(v: u64) -> Fe {
        Fe([v, 0, 0, 0])
    }

    /// The element with integer value `v`, or `None` when `v ≥ p` (a
    /// non-canonical encoding).
    pub(crate) fn from_u256(v: &U256) -> Option<Fe> {
        (*v < P).then_some(Fe(*v.limbs()))
    }

    /// `v mod p` for any 256-bit `v`.
    pub fn reduce(v: &U256) -> Fe {
        Fe(*v.limbs()).normalized(0)
    }

    /// The canonical integer value.
    pub fn to_u256(self) -> U256 {
        U256::from_limbs(self.0)
    }

    /// The canonical value as 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        self.to_u256().to_be_bytes()
    }

    /// True for the zero element.
    pub(crate) fn is_zero(self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// True when the canonical value is odd.
    pub fn is_odd(self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Brings `carry·2^256 + limbs` (with `carry ≤ 1` and the whole below
    /// `2p`) into `[0, p)`. Subtracting `p` is adding [`FOLD`] modulo
    /// 2^256, which also absorbs the carry.
    #[inline(always)]
    fn normalized(self, carry: u64) -> Fe {
        let r = self.0;
        let above_p = (r[1] & r[2] & r[3]) == u64::MAX && r[0] >= P.limbs()[0];
        if carry != 0 || above_p {
            let (r0, c) = adc(r[0], FOLD, 0);
            let (r1, c) = adc(r[1], 0, c);
            let (r2, c) = adc(r[2], 0, c);
            let (r3, _) = adc(r[3], 0, c);
            Fe([r0, r1, r2, r3])
        } else {
            self
        }
    }

    /// Reduces a 512-bit product (eight little-endian limbs): two folds of
    /// the part above 2^256 times [`FOLD`], then one conditional
    /// subtraction.
    #[inline(always)]
    fn reduce_product(t: [u64; 8]) -> Fe {
        // First fold: the four high limbs, one limb at a time. The carry
        // out is at most FOLD (34 bits).
        let (r0, c) = mac(t[0], t[4], FOLD, 0);
        let (r1, c) = mac(t[1], t[5], FOLD, c);
        let (r2, c) = mac(t[2], t[6], FOLD, c);
        let (r3, c) = mac(t[3], t[7], FOLD, c);
        // Second fold: that carry limb. If this one carries out as well,
        // the wrapped value is below 2^67, so `normalized` adding FOLD once
        // more cannot overflow again.
        let (r0, c) = mac(r0, c, FOLD, 0);
        let (r1, c) = adc(r1, 0, c);
        let (r2, c) = adc(r2, 0, c);
        let (r3, c) = adc(r3, 0, c);
        Fe([r0, r1, r2, r3]).normalized(c)
    }

    /// `self²`, computing each cross product `aᵢ·aⱼ` (i < j) once.
    #[inline(always)]
    pub fn sqr(self) -> Fe {
        let a = self.0;
        // Cross products, t[1..7].
        let (t1, c) = mac(0, a[0], a[1], 0);
        let (t2, c) = mac(0, a[0], a[2], c);
        let (t3, t4) = mac(0, a[0], a[3], c);
        let (t3, c) = mac(t3, a[1], a[2], 0);
        let (t4, t5) = mac(t4, a[1], a[3], c);
        let (t5, t6) = mac(t5, a[2], a[3], 0);
        // Double them.
        let t7 = t6 >> 63;
        let t6 = (t6 << 1) | (t5 >> 63);
        let t5 = (t5 << 1) | (t4 >> 63);
        let t4 = (t4 << 1) | (t3 >> 63);
        let t3 = (t3 << 1) | (t2 >> 63);
        let t2 = (t2 << 1) | (t1 >> 63);
        let t1 = t1 << 1;
        // Add the diagonal squares.
        let (t0, c) = mac(0, a[0], a[0], 0);
        let (t1, c) = adc(t1, 0, c);
        let (t2, c) = mac(t2, a[1], a[1], c);
        let (t3, c) = adc(t3, 0, c);
        let (t4, c) = mac(t4, a[2], a[2], c);
        let (t5, c) = adc(t5, 0, c);
        let (t6, c) = mac(t6, a[3], a[3], c);
        let (t7, _) = adc(t7, 0, c);
        Fe::reduce_product([t0, t1, t2, t3, t4, t5, t6, t7])
    }

    /// `self` squared `n` times: `self^(2^n)`.
    fn sqr_n(self, n: u32) -> Fe {
        let mut x = self;
        for _ in 0..n {
            x = x.sqr();
        }
        x
    }

    /// `2·self`.
    #[inline(always)]
    pub(crate) fn double(self) -> Fe {
        self + self
    }

    /// `3·self`.
    #[inline(always)]
    pub(crate) fn triple(self) -> Fe {
        self + self + self
    }

    /// The part the two exponent chains share: `p − 2` and `(p + 1)/4`
    /// both start with 223 one bits, a zero and 22 one bits. Returns
    /// `(self^(2^246 − 2^23 + 2^22 − 1), self^3)`.
    fn chain_prefix(self) -> (Fe, Fe) {
        // xK = self^(2^K − 1), a run of K one bits.
        let x2 = self.sqr() * self;
        let x3 = x2.sqr() * self;
        let x6 = x3.sqr_n(3) * x3;
        let x9 = x6.sqr_n(3) * x3;
        let x11 = x9.sqr_n(2) * x2;
        let x22 = x11.sqr_n(11) * x11;
        let x44 = x22.sqr_n(22) * x22;
        let x88 = x44.sqr_n(44) * x44;
        let x176 = x88.sqr_n(88) * x88;
        let x220 = x176.sqr_n(44) * x44;
        let x223 = x220.sqr_n(3) * x3;
        (x223.sqr_n(23) * x22, x2)
    }

    /// The multiplicative inverse `self^(p−2)`; zero maps to zero.
    ///
    /// The tail of `p − 2` after the shared prefix is `0000101101`.
    pub fn inv(self) -> Fe {
        let (t, x2) = self.chain_prefix();
        let t = t.sqr_n(5) * self;
        let t = t.sqr_n(3) * x2;
        t.sqr_n(2) * self
    }

    /// A square root `self^((p+1)/4)` (valid because `p ≡ 3 mod 4`), or
    /// `None` when `self` is not a quadratic residue. Which of the two
    /// roots comes back is fixed by the exponent; callers pick by parity.
    ///
    /// The tail of `(p + 1)/4` after the shared prefix is `00001100`.
    pub fn sqrt(self) -> Option<Fe> {
        let (t, x2) = self.chain_prefix();
        let r = (t.sqr_n(6) * x2).sqr_n(2);
        (r.sqr() == self).then_some(r)
    }
}

impl Add for Fe {
    type Output = Fe;
    #[inline(always)]
    fn add(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, c) = adc(a[0], b[0], 0);
        let (r1, c) = adc(a[1], b[1], c);
        let (r2, c) = adc(a[2], b[2], c);
        let (r3, c) = adc(a[3], b[3], c);
        Fe([r0, r1, r2, r3]).normalized(c)
    }
}

impl Sub for Fe {
    type Output = Fe;
    #[inline(always)]
    fn sub(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let (r0, w) = sbb(a[0], b[0], 0);
        let (r1, w) = sbb(a[1], b[1], w);
        let (r2, w) = sbb(a[2], b[2], w);
        let (r3, w) = sbb(a[3], b[3], w);
        if w == 0 {
            return Fe([r0, r1, r2, r3]);
        }
        // Went below zero: adding p back is subtracting FOLD modulo 2^256.
        let (r0, w) = sbb(r0, FOLD, 0);
        let (r1, w) = sbb(r1, 0, w);
        let (r2, w) = sbb(r2, 0, w);
        let (r3, _) = sbb(r3, 0, w);
        Fe([r0, r1, r2, r3])
    }
}

impl Neg for Fe {
    type Output = Fe;
    #[inline(always)]
    fn neg(self) -> Fe {
        Fe::ZERO - self
    }
}

impl Mul for Fe {
    type Output = Fe;
    #[inline(always)]
    fn mul(self, rhs: Fe) -> Fe {
        let (a, b) = (self.0, rhs.0);
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
            }
            t[i + 4] = carry;
        }
        Fe::reduce_product(t)
    }
}

/// Reduces a 512-bit value `(hi·2^256 + lo)` modulo `m`.
///
/// # Panics
///
/// Debug-asserts that the modulus has its top bit set (required for the
/// folding bound).
pub(crate) fn reduce_wide(mut lo: U256, mut hi: U256, m: &U256) -> U256 {
    debug_assert!(m.bit(255), "modulus must be >= 2^255 for fold reduction");
    let d = U256::ZERO.wrapping_sub(m); // 2^256 − m
    while !hi.is_zero() {
        let (mlo, mhi) = hi.widening_mul(&d);
        let (sum, carry) = lo.overflowing_add(&mlo);
        lo = sum;
        hi = mhi;
        if carry {
            // A carry out of the low half is worth +2^256 ≡ +d; fold it on
            // the next iteration by bumping hi.
            hi = hi.wrapping_add(&U256::ONE);
        }
    }
    let mut v = lo;
    while v >= *m {
        v = v.wrapping_sub(m);
    }
    v
}

/// Reduces an arbitrary 256-bit value modulo `m` (for values that may be
/// `>= m` but fit in 256 bits).
pub fn reduce(v: &U256, m: &U256) -> U256 {
    reduce_wide(*v, U256::ZERO, m)
}

/// `(a + b) mod m` for `a, b < m`.
pub fn add_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    debug_assert!(a < m && b < m);
    let (sum, carry) = a.overflowing_add(b);
    if carry || sum >= *m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// `(−a) mod m` for `a < m`.
pub fn neg_mod(a: &U256, m: &U256) -> U256 {
    if a.is_zero() {
        U256::ZERO
    } else {
        m.wrapping_sub(a)
    }
}

/// `(a · b) mod m` for `a, b < m`.
pub fn mul_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    let (lo, hi) = a.widening_mul(b);
    reduce_wide(lo, hi, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `(a − b) mod m` for `a, b < m`.
    fn sub_mod(a: &U256, b: &U256, m: &U256) -> U256 {
        debug_assert!(a < m && b < m);
        let (diff, borrow) = a.overflowing_sub(b);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// `(a²) mod m`.
    fn sqr_mod(a: &U256, m: &U256) -> U256 {
        mul_mod(a, a, m)
    }

    /// `(a^e) mod m` by square-and-multiply.
    fn pow_mod(a: &U256, e: &U256, m: &U256) -> U256 {
        let mut result = U256::ONE;
        let mut base = reduce(a, m);
        let bits = e.bits();
        for i in 0..bits {
            if e.bit(i) {
                result = mul_mod(&result, &base, m);
            }
            base = sqr_mod(&base, m);
        }
        result
    }

    /// `p − 2` and `(p + 1)/4`, the exponents the two chains hard-code.
    fn inv_exponent() -> U256 {
        P.wrapping_sub(&U256::from_u64(2))
    }
    fn sqrt_exponent() -> U256 {
        P.wrapping_add(&U256::ONE).shr(2)
    }

    /// Checks every `Fe` operation on `(a, b)` against the generic family.
    fn assert_matches_generic(a: Fe, b: Fe) {
        let (au, bu) = (a.to_u256(), b.to_u256());
        assert!(au < P && bu < P);
        assert_eq!((a * b).to_u256(), mul_mod(&au, &bu, &P), "mul {a:?} {b:?}");
        assert_eq!(a.sqr().to_u256(), sqr_mod(&au, &P), "sqr {a:?}");
        assert_eq!((a + b).to_u256(), add_mod(&au, &bu, &P), "add {a:?} {b:?}");
        assert_eq!((a - b).to_u256(), sub_mod(&au, &bu, &P), "sub {a:?} {b:?}");
        assert_eq!((-a).to_u256(), neg_mod(&au, &P), "neg {a:?}");
        assert_eq!(a.double().to_u256(), add_mod(&au, &au, &P));
        assert_eq!(
            a.triple().to_u256(),
            mul_mod(&au, &U256::from_u64(3), &P),
            "triple {a:?}"
        );
        assert_eq!(
            a.inv().to_u256(),
            pow_mod(&au, &inv_exponent(), &P),
            "inv {a:?}"
        );
        let root = pow_mod(&au, &sqrt_exponent(), &P);
        let expect = (sqr_mod(&root, &P) == au).then_some(root);
        assert_eq!(a.sqrt().map(Fe::to_u256), expect, "sqrt {a:?}");
    }

    /// Values at the edges of the reduction: around zero, around `p`,
    /// around the fold constant, and all-ones limbs.
    fn edge_values() -> Vec<Fe> {
        let small = [0u64, 1, 2, 3, FOLD - 1, FOLD, FOLD + 1, u64::MAX];
        let mut out: Vec<Fe> = small.iter().map(|&v| Fe::from_u64(v)).collect();
        out.extend(small.iter().map(|&v| -Fe::from_u64(v))); // p − v
        out.push(Fe::reduce(&U256::MAX));
        out.push(Fe::reduce(&P));
        out.push(Fe::reduce(&P.wrapping_add(&U256::ONE)));
        for limbs in [
            [u64::MAX, 0, 0, 0],
            [0, u64::MAX, 0, 0],
            [0, 0, u64::MAX, 0],
            [0, 0, 0, u64::MAX],
            [u64::MAX, u64::MAX, u64::MAX, 0],
            [0, u64::MAX, u64::MAX, u64::MAX],
            [u64::MAX - FOLD, u64::MAX, u64::MAX, u64::MAX],
            [1 << 63, 1 << 63, 1 << 63, 1 << 63],
        ] {
            out.push(Fe::reduce(&U256::from_limbs(limbs)));
        }
        out
    }

    #[test]
    fn constants() {
        assert!(P.bit(255) && N.bit(255) && N < P);
        let expect = U256::ZERO
            .wrapping_sub(&U256::ONE.shl(32))
            .wrapping_sub(&U256::from_u64(977));
        assert_eq!(P, expect);
        assert_eq!(U256::ZERO.wrapping_sub(&P), U256::from_u64(FOLD));
        assert_eq!(
            N.to_hex(),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141"
        );
    }

    #[test]
    fn endomorphism_constants() {
        // Primitive cube roots of unity in their fields.
        let three = U256::from_u64(3);
        assert!(LAMBDA < N && LAMBDA != U256::ONE);
        assert_eq!(pow_mod(&LAMBDA, &three, &N), U256::ONE);
        assert!(BETA.to_u256() < P && BETA != Fe::ONE);
        assert_eq!(BETA.sqr() * BETA, Fe::ONE);
        // Both basis rows lie in the lattice a + b·λ ≡ 0 (mod n):
        // a₁ + b₁·λ with b₁ negative, a₂ + b₂·λ with b₂ = a₁.
        assert_eq!(mul_mod(&GLV_MINUS_B1, &LAMBDA, &N), GLV_A1);
        let a2 = reduce(&GLV_A2, &N);
        assert_eq!(add_mod(&a2, &mul_mod(&GLV_A1, &LAMBDA, &N), &N), U256::ZERO);
        // The rounding multipliers are the nearest integers to 2^384·b/n:
        // |g·n − b·2^384| ≤ n/2, compared as 512-bit (high, low) pairs.
        for (g, b) in [(GLV_G1, GLV_A1), (GLV_G2, GLV_MINUS_B1)] {
            let (lo, hi) = g.widening_mul(&N);
            let (product, target) = ((hi, lo), (b.shl(128), U256::ZERO));
            let (big, small) = if product >= target {
                (product, target)
            } else {
                (target, product)
            };
            let (diff_lo, borrow) = big.1.overflowing_sub(&small.1);
            let diff_hi = big.0.wrapping_sub(&small.0);
            let diff_hi = diff_hi.wrapping_sub(&U256::from_u64(borrow as u64));
            assert!(diff_hi.is_zero() && diff_lo <= N.shr(1), "g={}", g.to_hex());
        }
    }

    #[test]
    fn edge_values_match_generic() {
        let edges = edge_values();
        for &a in &edges {
            for &b in &edges {
                assert_matches_generic(a, b);
            }
        }
    }

    #[test]
    fn second_fold_carry_matches_generic() {
        // (p − 1)² has the largest high half; operands of the shape
        // 2^256 − small make the first fold's carry limb as large as it
        // gets, and a low half of all ones makes the second fold carry out.
        let near_p = [1u64, 2, FOLD - 1, FOLD + 1, 0xffff_ffff];
        for &i in &near_p {
            for &j in &near_p {
                assert_matches_generic(-Fe::from_u64(i), -Fe::from_u64(j));
            }
        }
        // Direct hits on the reducer. Every limb all ones:
        let got = Fe::reduce_product([u64::MAX; 8]).to_u256();
        assert_eq!(got, reduce_wide(U256::MAX, U256::MAX, &P));
        // A low half chosen so the first fold lands on 2^256 − 1 with a
        // nonzero carry limb: the second fold must then carry out too.
        for top in [1u64 << 40, 0xdead_beef_0000_0001, u64::MAX] {
            let hi = U256::from_limbs([top, !top, top, top]);
            let (s, k) = hi.widening_mul(&U256::from_u64(FOLD));
            assert!(!k.is_zero(), "the first fold must carry");
            let lo = U256::MAX.wrapping_sub(&s);
            let (l, h) = (lo.limbs(), hi.limbs());
            let t = [l[0], l[1], l[2], l[3], h[0], h[1], h[2], h[3]];
            assert_eq!(Fe::reduce_product(t).to_u256(), reduce_wide(lo, hi, &P));
        }
    }

    #[test]
    fn inverse_of_zero_is_zero() {
        assert_eq!(Fe::ZERO.inv(), Fe::ZERO);
        assert_eq!(Fe::ONE.inv(), Fe::ONE);
    }

    #[test]
    fn from_u256_rejects_non_canonical_values() {
        assert_eq!(Fe::from_u256(&P), None);
        assert_eq!(Fe::from_u256(&U256::MAX), None);
        let top = P.wrapping_sub(&U256::ONE);
        assert_eq!(Fe::from_u256(&top).map(Fe::to_u256), Some(top));
        assert_eq!(Fe::reduce(&P), Fe::ZERO);
        assert_eq!(Fe::reduce(&U256::MAX), Fe::from_u64(FOLD - 1));
    }

    #[test]
    fn sqrt_of_non_residue_is_none() {
        assert!((2u64..50).any(|v| Fe::from_u64(v).sqrt().is_none()));
    }

    #[test]
    fn generic_small_arithmetic() {
        let a = U256::from_u64(10);
        let b = U256::from_u64(3);
        for m in [P, N] {
            assert_eq!(add_mod(&a, &b, &m), U256::from_u64(13));
            assert_eq!(sub_mod(&b, &a, &m), m.wrapping_sub(&U256::from_u64(7)));
            assert_eq!(mul_mod(&a, &b, &m), U256::from_u64(30));
            assert_eq!(pow_mod(&a, &U256::from_u64(3), &m), U256::from_u64(1000));
        }
    }

    #[test]
    fn reduce_wide_handles_max() {
        for m in [P, N] {
            // 2^512 − 1 = (2^256 − 1)(2^256 + 1).
            let v = reduce_wide(U256::MAX, U256::MAX, &m);
            assert!(v < m);
            let max_mod = reduce(&U256::MAX, &m);
            let two256_plus1 = add_mod(&reduce_wide(U256::ZERO, U256::ONE, &m), &U256::ONE, &m);
            assert_eq!(v, mul_mod(&max_mod, &two256_plus1, &m));
        }
    }

    fn arb_fe() -> impl Strategy<Value = Fe> {
        any::<[u64; 4]>().prop_map(|l| Fe::reduce(&U256::from_limbs(l)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_fe_matches_generic(a in arb_fe(), b in arb_fe()) {
            assert_matches_generic(a, b);
        }

        #[test]
        fn prop_fe_near_p_matches_generic(i in any::<u64>(), j in any::<u64>()) {
            assert_matches_generic(-Fe::from_u64(i), -Fe::from_u64(j));
            assert_matches_generic(-Fe::from_u64(i), Fe::from_u64(j));
        }

        #[test]
        fn prop_reduce_product_matches_generic(t in any::<[u64; 8]>()) {
            let lo = U256::from_limbs([t[0], t[1], t[2], t[3]]);
            let hi = U256::from_limbs([t[4], t[5], t[6], t[7]]);
            prop_assert_eq!(Fe::reduce_product(t).to_u256(), reduce_wide(lo, hi, &P));
        }

        #[test]
        fn prop_inverse_and_root(a in arb_fe()) {
            prop_assume!(!a.is_zero());
            prop_assert_eq!(a * a.inv(), Fe::ONE);
            let root = a.sqr().sqrt().expect("a square has a root");
            prop_assert!(root == a || root == -a);
        }

        #[test]
        fn prop_generic_ring_laws(
            a in any::<[u64; 4]>(),
            b in any::<[u64; 4]>(),
            c in any::<[u64; 4]>(),
        ) {
            for m in [P, N] {
                let [a, b, c] = [a, b, c].map(|l| reduce(&U256::from_limbs(l), &m));
                prop_assert_eq!(sub_mod(&add_mod(&a, &b, &m), &b, &m), a);
                prop_assert_eq!(add_mod(&a, &neg_mod(&a, &m), &m), U256::ZERO);
                prop_assert_eq!(mul_mod(&a, &b, &m), mul_mod(&b, &a, &m));
                prop_assert_eq!(
                    mul_mod(&mul_mod(&a, &b, &m), &c, &m),
                    mul_mod(&a, &mul_mod(&b, &c, &m), &m)
                );
                prop_assert_eq!(
                    mul_mod(&a, &add_mod(&b, &c, &m), &m),
                    add_mod(&mul_mod(&a, &b, &m), &mul_mod(&a, &c, &m), &m)
                );
                if !a.is_zero() {
                    // Fermat: a^(m−1) = 1.
                    let e = m.wrapping_sub(&U256::ONE);
                    prop_assert_eq!(pow_mod(&a, &e, &m), U256::ONE);
                }
            }
        }
    }
}
