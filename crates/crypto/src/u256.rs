//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] stores four little-endian `u64` limbs. All arithmetic needed by
//! the field and curve layers is provided: wrapping add/sub with carry
//! reporting, full 256×256→512 multiplication, comparison, shifting, bit
//! access and byte/hex conversion.

use std::cmp::Ordering;
use std::fmt;

use crate::hex;

/// A 256-bit unsigned integer (four little-endian `u64` limbs).
///
/// # Example
///
/// ```
/// use tn_crypto::u256::U256;
/// let a = U256::from_u64(7);
/// let b = U256::from_u64(6);
/// assert_eq!(a.wrapping_add(&b), U256::from_u64(13));
/// assert_eq!(U256::ZERO.wrapping_sub(&U256::from_u64(1)).bits(), 256);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub(crate) [u64; 4]);

impl U256 {
    /// Zero.
    pub const ZERO: U256 = U256([0, 0, 0, 0]);
    /// One.
    pub const ONE: U256 = U256([1, 0, 0, 0]);
    /// The maximum representable value, 2^256 − 1.
    pub const MAX: U256 = U256([u64::MAX; 4]);

    /// Builds from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256(limbs)
    }

    /// Borrows the little-endian limbs.
    pub const fn limbs(&self) -> &[u64; 4] {
        &self.0
    }

    /// Builds from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Truncates to the low 64 bits.
    pub(crate) const fn as_u64(&self) -> u64 {
        self.0[0]
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Parses big-endian bytes (must be exactly 32).
    #[allow(clippy::needless_range_loop)] // fixed-width limb indexing is clearest
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let start = 32 - (i + 1) * 8;
            limbs[i] = u64::from_be_bytes(bytes[start..start + 8].try_into().expect("8 bytes"));
        }
        U256(limbs)
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            let start = 32 - (i + 1) * 8;
            out[start..start + 8].copy_from_slice(&self.0[i].to_be_bytes());
        }
        out
    }

    /// Parses a big-endian hex string of up to 64 characters (shorter
    /// strings are left-padded with zeros).
    ///
    /// # Errors
    ///
    /// Returns [`hex::ParseHexError`] on non-hex characters or length > 64.
    pub fn from_hex(s: &str) -> Result<Self, hex::ParseHexError> {
        if s.len() > 64 {
            return Err(hex::ParseHexError::BadLength {
                expected: 64,
                actual: s.len(),
            });
        }
        let padded = format!("{:0>64}", s);
        let v = hex::decode(&padded)?;
        let mut b = [0u8; 32];
        b.copy_from_slice(&v);
        Ok(U256::from_be_bytes(&b))
    }

    /// Lowercase full-width (64-char) big-endian hex.
    pub fn to_hex(&self) -> String {
        hex::encode(&self.to_be_bytes())
    }

    /// Addition with carry-out.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn overflowing_add(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(other.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Subtraction with borrow-out (`true` when `other > self`).
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn overflowing_sub(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Wrapping (mod 2^256) addition.
    pub fn wrapping_add(&self, other: &U256) -> U256 {
        self.overflowing_add(other).0
    }

    /// Wrapping (mod 2^256) subtraction.
    pub fn wrapping_sub(&self, other: &U256) -> U256 {
        self.overflowing_sub(other).0
    }

    /// Full 256×256→512-bit schoolbook multiplication. Returns little-endian
    /// `(low, high)` 256-bit halves.
    pub(crate) fn widening_mul(&self, other: &U256) -> (U256, U256) {
        let mut acc = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = acc[i + j] as u128 + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                acc[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Propagate the remaining carry into higher limbs.
            let mut k = i + 4;
            while carry > 0 {
                let cur = acc[k] as u128 + carry;
                acc[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        (
            U256([acc[0], acc[1], acc[2], acc[3]]),
            U256([acc[4], acc[5], acc[6], acc[7]]),
        )
    }

    /// Wrapping (mod 2^256) multiplication.
    pub(crate) fn wrapping_mul(&self, other: &U256) -> U256 {
        self.widening_mul(other).0
    }

    /// Logical left shift by `n` bits (zero when `n >= 256`).
    pub fn shl(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256(out)
    }

    /// Logical right shift by `n` bits (zero when `n >= 256`).
    #[allow(clippy::needless_range_loop)]
    pub fn shr(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in 0..(4 - limb_shift) {
            let mut v = self.0[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.0[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        U256(out)
    }

    /// Value of bit `i` (bit 0 is the least-significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub(crate) fn bit(&self, i: u32) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.0[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return (i as u32) * 64 + (64 - self.0[i].leading_zeros());
            }
        }
        0
    }

    /// Euclidean division by a `u64` divisor, returning `(quotient,
    /// remainder)`. Used by decimal formatting and small-modulus reductions.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    pub(crate) fn div_rem_u64(&self, divisor: u64) -> (U256, u64) {
        assert!(divisor != 0, "division by zero");
        let mut q = [0u64; 4];
        let mut rem: u128 = 0;
        for i in (0..4).rev() {
            let cur = (rem << 64) | self.0[i] as u128;
            q[i] = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        (U256(q), rem as u64)
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u32> for U256 {
    fn from(v: u32) -> Self {
        U256::from_u64(v as u64)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{})", self.to_hex().trim_start_matches('0'))?;
        if self.is_zero() {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Decimal rendering via repeated division by 10^19.
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut chunks = Vec::new();
        let mut cur = *self;
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10_000_000_000_000_000_000);
            chunks.push(r);
            cur = q;
        }
        let mut s = chunks
            .pop()
            .expect("nonzero has at least one chunk")
            .to_string();
        while let Some(c) = chunks.pop() {
            s.push_str(&format!("{c:019}"));
        }
        f.write_str(&s)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_u256() -> impl Strategy<Value = U256> {
        any::<[u64; 4]>().prop_map(U256::from_limbs)
    }

    #[test]
    fn be_bytes_round_trip() {
        let v = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
            .unwrap();
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
        assert_eq!(
            v.to_hex(),
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
        );
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = U256::from_limbs([u64::MAX, u64::MAX, 0, 0]);
        let (s, c) = a.overflowing_add(&U256::ONE);
        assert!(!c);
        assert_eq!(s, U256::from_limbs([0, 0, 1, 0]));
    }

    #[test]
    fn max_plus_one_overflows() {
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(c);
        assert_eq!(s, U256::ZERO);
    }

    #[test]
    fn sub_borrows() {
        let (d, b) = U256::ZERO.overflowing_sub(&U256::ONE);
        assert!(b);
        assert_eq!(d, U256::MAX);
    }

    #[test]
    fn widening_mul_known() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = U256::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        assert_eq!(hi, U256::ZERO);
        assert_eq!(lo, U256::from_limbs([1, u64::MAX - 1, 0, 0]));
    }

    #[test]
    fn widening_mul_max() {
        // MAX * MAX = 2^512 - 2^257 + 1 -> lo = 1, hi = 2^256 - 2
        let (lo, hi) = U256::MAX.widening_mul(&U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(&U256::ONE));
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!(one.shl(0), one);
        assert_eq!(one.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(one.shl(255).shr(255), one);
        assert_eq!(one.shl(256), U256::ZERO);
        assert_eq!(one.shr(1), U256::ZERO);
        let v = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000000")
            .unwrap();
        assert_eq!(one.shl(255), v);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        let v = U256::from_limbs([0, 0, 1, 0]);
        assert_eq!(v.bits(), 129);
        assert!(v.bit(128));
        assert!(!v.bit(127));
    }

    #[test]
    fn div_rem_u64_known() {
        let v = U256::from_u64(1000);
        let (q, r) = v.div_rem_u64(7);
        assert_eq!(q, U256::from_u64(142));
        assert_eq!(r, 6);
    }

    #[test]
    fn display_decimal() {
        assert_eq!(U256::ZERO.to_string(), "0");
        assert_eq!(U256::from_u64(12345).to_string(), "12345");
        // 2^64 = 18446744073709551616
        assert_eq!(
            U256::from_limbs([0, 1, 0, 0]).to_string(),
            "18446744073709551616"
        );
        // 2^128 = 340282366920938463463374607431768211456
        assert_eq!(
            U256::from_limbs([0, 0, 1, 0]).to_string(),
            "340282366920938463463374607431768211456"
        );
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
        }

        #[test]
        fn prop_add_sub_round_trip(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
        }

        #[test]
        fn prop_mul_commutes(a in arb_u256(), b in arb_u256()) {
            prop_assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
        }

        #[test]
        fn prop_mul_one_identity(a in arb_u256()) {
            let (lo, hi) = a.widening_mul(&U256::ONE);
            prop_assert_eq!(lo, a);
            prop_assert_eq!(hi, U256::ZERO);
        }

        #[test]
        fn prop_mul_distributes_mod_2_256(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
            let left = a.wrapping_mul(&b.wrapping_add(&c));
            let right = a.wrapping_mul(&b).wrapping_add(&a.wrapping_mul(&c));
            prop_assert_eq!(left, right);
        }

        #[test]
        fn prop_shl_shr_inverse_on_small(a in arb_u256(), n in 0u32..64) {
            // Shifting left then right recovers the value when the top n bits were clear.
            let masked = a.shr(n).shl(n).shr(n);
            prop_assert_eq!(masked, a.shr(n));
        }

        #[test]
        fn prop_bytes_round_trip(a in arb_u256()) {
            prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
        }

        #[test]
        fn prop_cmp_matches_sub(a in arb_u256(), b in arb_u256()) {
            let (_, borrow) = a.overflowing_sub(&b);
            prop_assert_eq!(borrow, a < b);
        }

        #[test]
        fn prop_div_rem_u64(a in arb_u256(), d in 1u64..) {
            let (q, r) = a.div_rem_u64(d);
            prop_assert!(r < d);
            // q*d + r == a  (q*d cannot overflow since q <= a/d)
            let (lo, hi) = q.widening_mul(&U256::from_u64(d));
            prop_assert_eq!(hi, U256::ZERO);
            prop_assert_eq!(lo.wrapping_add(&U256::from_u64(r)), a);
        }
    }
}
