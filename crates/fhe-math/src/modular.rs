//! Arithmetic in 64-bit prime fields.
//!
//! A [`Modulus`] bundles a prime `q < 2^62` with precomputed Barrett
//! constants so that the hot kernels (NTT butterflies, pointwise products,
//! basis-conversion inner products) never perform a hardware division.
//!
//! The MAD paper counts compute in units of modular multiplications and
//! additions (Section 4.1); these are exactly the operations exposed here.

use std::fmt;

/// Maximum supported modulus: primes must fit in 62 bits so that lazy
/// sums of up to four residues never overflow `u64`.
pub const MAX_MODULUS_BITS: u32 = 62;

/// A word-sized prime modulus with precomputed Barrett reduction constants.
///
/// # Example
///
/// ```
/// use fhe_math::Modulus;
/// let q = Modulus::new(65537).unwrap();
/// assert_eq!(q.mul(65536, 65536), 1); // (-1)·(-1) = 1 mod 65537
/// assert_eq!(q.mul(3, q.inv(3).unwrap()), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// ⌊2^128 / q⌋ split into two 64-bit words (high, low).
    barrett_hi: u64,
    barrett_lo: u64,
}

/// How many products `a·b`, `a < 2^a_bits` and `b < 2^b_bits`, a kernel may
/// add onto one reduced residue (`< 2^b_bits`) before the 128-bit sum must
/// go through [`Modulus::reduce_u128`], which is exact below `2^127`.
///
/// At least 7 for any pair of supported moduli (62 + 62 bits); 60-bit
/// primes and narrower never need a second reduction at any basis size the
/// library supports.
pub const fn lazy_products(a_bits: u32, b_bits: u32) -> usize {
    assert!(a_bits <= MAX_MODULUS_BITS && b_bits <= MAX_MODULUS_BITS);
    // (c + 1)·2^(a+b) ≤ 2^127 bounds c products plus the carried residue;
    // the cap only keeps the shift in range (no basis has 2^16 limbs).
    let spare = 127 - a_bits - b_bits;
    (1usize << if spare < 16 { spare } else { 16 }) - 1
}

/// How many products of operands below `2^bits` the IFMA
/// multiply-accumulate (`crate::ifma`) may add onto one carried residue
/// below `2^bits` before it has to reduce — the lanes' counterpart of
/// [`lazy_products`]. Lanes take moduli below `2^50` only.
///
/// A lane keeps its sum `V` in two 64-bit accumulators: `madd52lo` adds the
/// low 52 bits of each product to `lo`, `madd52hi` the high bits to `hi`, so
/// `V = lo + hi·2^52` exactly. The reduction folds `lo >> 52` into `hi`,
/// which leaves `hi + (lo >> 52) = ⌊V/2^52⌋`, and multiplies that by
/// `2^52 mod p` with a 52-bit Shoup product, whose multiplicand must be
/// below `2^52`. So the bound is `V < 2^104`:
/// `c·(2^bits − 1)² + (2^bits − 1) < 2^104`. At 50 bits
/// `16·(2^50 − 1)² + 2^50 − 1 = 2^104 − 2^55 + 2^50 + 15`, so sixteen
/// products keep `hi + (lo >> 52) < 2^52`, and seventeen can reach past
/// it. Narrower moduli are capped like [`lazy_products`].
pub const fn lane_products(bits: u32) -> usize {
    assert!(bits >= 1 && bits <= 50);
    let max = (1u128 << bits) - 1;
    let c = ((1u128 << 104) - 1 - max) / (max * max);
    if c < 1 << 16 {
        c as usize
    } else {
        (1 << 16) - 1
    }
}

/// Error returned when constructing a [`Modulus`] from an unsupported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidModulusError(pub u64);

impl fmt::Display for InvalidModulusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "modulus {} is zero, one, or wider than 62 bits", self.0)
    }
}

impl std::error::Error for InvalidModulusError {}

impl fmt::Debug for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Modulus({})", self.value)
    }
}

impl fmt::Display for Modulus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

impl Modulus {
    /// Creates a modulus from `value`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidModulusError`] if `value < 2` or `value >= 2^62`.
    /// The value is *not* required to be prime; primality is only needed by
    /// the callers that use [`Modulus::inv`] on arbitrary elements.
    pub fn new(value: u64) -> Result<Self, InvalidModulusError> {
        if value < 2 || value >> MAX_MODULUS_BITS != 0 {
            return Err(InvalidModulusError(value));
        }
        // ⌊(2^128 - 1)/q⌋ == ⌊2^128/q⌋ unless q | 2^128, i.e. q = 2^k
        // (handled below).
        let q128 = u128::MAX / value as u128;
        let barrett = if value.is_power_of_two() {
            // 2^128 / 2^k = 2^(128-k); u128::MAX/q rounds down to 2^(128-k) - 1.
            q128 + 1
        } else {
            q128
        };
        Ok(Self {
            value,
            barrett_hi: (barrett >> 64) as u64,
            barrett_lo: barrett as u64,
        })
    }

    /// The modulus value `q`.
    #[inline(always)]
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in `q`.
    #[inline]
    pub const fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// Reduces an arbitrary 64-bit value modulo `q`.
    #[inline(always)]
    pub fn reduce(&self, x: u64) -> u64 {
        if x < self.value {
            x
        } else {
            x % self.value
        }
    }

    /// Reduces a 128-bit value modulo `q` using Barrett reduction.
    ///
    /// This is the workhorse of [`Modulus::mul`]; it is branch-light and
    /// division-free. Exact for every `x < 2^127` (the partial products of
    /// the quotient estimate are summed in 128 bits and could carry out
    /// above that); [`lazy_products`] says how many products a kernel may
    /// accumulate before it has to call this.
    #[inline(always)]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        // q̂ = ⌊x · ⌊2^128/q⌋ / 2^128⌋, then r = x - q̂·q, with at most two
        // conditional subtractions.
        let xlo = x as u64;
        let xhi = (x >> 64) as u64;
        // tmp = ⌊(x * barrett) / 2^128⌋ where barrett = barrett_hi·2^64 + barrett_lo.
        let lo_lo = (xlo as u128 * self.barrett_lo as u128) >> 64;
        let hi_lo = xhi as u128 * self.barrett_lo as u128;
        let lo_hi = xlo as u128 * self.barrett_hi as u128;
        let mid = hi_lo + lo_hi + lo_lo;
        let q_hat = (xhi as u128 * self.barrett_hi as u128) + (mid >> 64);
        let mut r = (x.wrapping_sub(q_hat.wrapping_mul(self.value as u128))) as u64;
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// Modular addition of two reduced residues.
    #[inline(always)]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction of two reduced residues.
    #[inline(always)]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation of a reduced residue.
    #[inline(always)]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular multiplication of two reduced residues.
    #[inline(always)]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `a·b + c mod q`.
    #[inline(always)]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Precomputes the Shoup representation `⌊b·2^64/q⌋` of a constant
    /// multiplicand `b`, for use with [`Modulus::mul_shoup`].
    #[inline]
    pub fn shoup(&self, b: u64) -> u64 {
        debug_assert!(b < self.value);
        (((b as u128) << 64) / self.value as u128) as u64
    }

    /// Multiplication by a constant with a precomputed Shoup factor.
    ///
    /// `b_shoup` must be `self.shoup(b)`. Roughly twice as fast as
    /// [`Modulus::mul`] in NTT butterflies because it avoids the 128-bit
    /// Barrett step.
    #[inline(always)]
    pub fn mul_shoup(&self, a: u64, b: u64, b_shoup: u64) -> u64 {
        debug_assert!(a < self.value);
        let q_hat = ((a as u128 * b_shoup as u128) >> 64) as u64;
        let r = (a.wrapping_mul(b)).wrapping_sub(q_hat.wrapping_mul(self.value));
        if r >= self.value {
            r - self.value
        } else {
            r
        }
    }

    /// Modular exponentiation `a^e mod q` by square-and-multiply.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Modular inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` when `gcd(a, q) != 1` (in particular for `a == 0`).
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        let (mut t, mut new_t) = (0i128, 1i128);
        let (mut r, mut new_r) = (self.value as i128, a as i128);
        while new_r != 0 {
            let quotient = r / new_r;
            (t, new_t) = (new_t, t - quotient * new_t);
            (r, new_r) = (new_r, r - quotient * new_r);
        }
        if r != 1 {
            return None;
        }
        if t < 0 {
            t += self.value as i128;
        }
        Some(t as u64)
    }

    /// Maps a signed integer into `[0, q)` (division-free: the encoder and
    /// `Rescale` call this once per coefficient per limb).
    ///
    /// The sign costs no branch — random-sign coefficients would mispredict
    /// one — only the magnitude does, and `|x| < q` for every coefficient
    /// of a typical encoding or error. With `r = |x| mod q` and `s` the
    /// sign mask, `(r ^ s) − s` is `−r` in two's complement for a negative
    /// `x`; where that wraps below zero, `q` is added back.
    #[inline]
    pub fn from_i64(&self, x: i64) -> u64 {
        let mag = x.unsigned_abs();
        let r = if mag < self.value {
            mag
        } else {
            self.reduce_u128(mag as u128)
        };
        let sign = (x >> 63) as u64;
        let signed = (r ^ sign).wrapping_sub(sign);
        signed.wrapping_add(self.value & ((signed as i64) >> 63) as u64)
    }

    /// Maps a reduced residue to its centered representative in
    /// `(-q/2, q/2]`.
    #[inline]
    pub fn to_centered(&self, x: u64) -> i64 {
        debug_assert!(x < self.value);
        if x > self.value / 2 {
            x as i64 - self.value as i64
        } else {
            x as i64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_degenerate_values() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new(u64::MAX).is_err());
        assert!(Modulus::new(2).is_ok());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
    }

    #[test]
    fn reduce_u128_matches_naive() {
        let q = Modulus::new(0x3fff_ffff_ffff_ffc5).unwrap(); // large 62-bit value
        let cases = [
            0u128,
            1,
            q.value() as u128,
            q.value() as u128 + 1,
            u128::MAX,
            u128::MAX / 2,
            0x1234_5678_9abc_def0_1122_3344_5566_7788,
        ];
        for &x in &cases {
            assert_eq!(q.reduce_u128(x) as u128, x % q.value() as u128, "x={x}");
        }
    }

    #[test]
    fn reduce_u128_power_of_two_modulus() {
        let q = Modulus::new(1 << 32).unwrap();
        assert_eq!(q.reduce_u128(u128::MAX), (u128::MAX % (1u128 << 32)) as u64);
        assert_eq!(q.reduce_u128((1u128 << 100) + 7), 7);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(97).unwrap();
        for a in 0..97u64 {
            for b in 0..97u64 {
                let s = q.add(a, b);
                assert_eq!(q.sub(s, b), a);
                assert_eq!(q.add(q.neg(a), a), 0);
            }
        }
    }

    #[test]
    fn shoup_matches_barrett() {
        let q = Modulus::new((1 << 50) - 27).unwrap();
        let b = 0x0003_dead_beef_1234 % q.value();
        let bs = q.shoup(b);
        for a in [0u64, 1, 42, q.value() - 1, q.value() / 2] {
            assert_eq!(q.mul_shoup(a, b, bs), q.mul(a, b));
        }
    }

    #[test]
    fn pow_and_inv_agree_fermat() {
        let q = Modulus::new(65537).unwrap();
        for a in [1u64, 2, 3, 65535, 12345] {
            let inv = q.inv(a).unwrap();
            assert_eq!(q.mul(a, inv), 1);
            assert_eq!(inv, q.pow(a, q.value() - 2));
        }
        assert_eq!(q.inv(0), None);
    }

    #[test]
    fn inv_detects_non_coprime() {
        let q = Modulus::new(91).unwrap(); // 7 * 13, not prime
        assert_eq!(q.inv(7), None);
        assert_eq!(q.inv(13), None);
        let i = q.inv(2).unwrap();
        assert_eq!(q.mul(2, i), 1);
    }

    #[test]
    fn centered_representatives() {
        let q = Modulus::new(17).unwrap();
        assert_eq!(q.to_centered(0), 0);
        assert_eq!(q.to_centered(8), 8);
        assert_eq!(q.to_centered(9), -8);
        assert_eq!(q.to_centered(16), -1);
        assert_eq!(q.from_i64(-1), 16);
        assert_eq!(q.from_i64(-17), 0);
        assert_eq!(
            q.from_i64(i64::MIN + 1),
            q.from_i64((i64::MIN + 1) % 17 + 17)
        );
    }

    #[test]
    fn from_i64_is_rem_euclid_at_the_edges() {
        for q in [2u64, 17, 65537, (1 << 50) - 27, (1 << 62) - 57] {
            let m = Modulus::new(q).unwrap();
            let qi = q as i64;
            for x in [
                i64::MIN,
                i64::MIN + 1,
                i64::MAX,
                qi,
                -qi,
                qi - 1,
                1 - qi,
                0,
                1,
                -1,
            ] {
                assert_eq!(m.from_i64(x), x.rem_euclid(qi) as u64, "q={q} x={x}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn from_i64_is_rem_euclid(q in 2u64..(1 << 62), x in proptest::prelude::any::<i64>()) {
            let m = Modulus::new(q).unwrap();
            proptest::prop_assert_eq!(m.from_i64(x), x.rem_euclid(q as i64) as u64);
        }
    }

    #[test]
    fn lazy_products_keeps_the_sum_below_2_pow_127() {
        for (a, b) in [(62u32, 62u32), (61, 62), (60, 60), (20, 62), (4, 4)] {
            let c = lazy_products(a, b) as u128;
            assert!(c >= 7, "{a}+{b} bits: budget {c}");
            let worst = c * ((1u128 << a) - 1) * ((1u128 << b) - 1) + ((1u128 << b) - 1);
            assert!(worst < 1 << 127, "{a}+{b} bits: {c} products overflow");
        }
        // The widest primes are the only ones a 64-limb basis must chunk.
        assert_eq!(lazy_products(62, 62), 7);
        assert!(lazy_products(60, 60) >= 64);
    }

    #[test]
    fn lane_products_keeps_the_folded_high_word_below_2_pow_52() {
        // A modulus just under 2^50, every operand q − 1, a carried q − 1:
        // the widest sums the lanes take, checked in exact integers (the
        // kernels are checked at the same edge in `backend`).
        let q = (1u128 << 50) - 27;
        let c = lane_products(50);
        assert_eq!(c, 16);
        let folded = |terms: u128| (terms * (q - 1) * (q - 1) + (q - 1)) >> 52;
        assert!(folded(15) < 1 << 52);
        assert!(folded(16) < 1 << 52);
        // One more and it takes the widest operands past the bound.
        let max = (1u128 << 50) - 1;
        assert!((17 * max * max + max) >> 52 >= 1 << 52);
        assert_eq!(lane_products(1), (1 << 16) - 1);
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let q = Modulus::new((1 << 45) - 229).unwrap();
        let (a, b, c) = (123456789, 987654321, 555555555);
        assert_eq!(q.mul_add(a, b, c), q.add(q.mul(a, b), c));
    }
}
