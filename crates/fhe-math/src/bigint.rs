//! A minimal arbitrary-precision unsigned integer.
//!
//! CKKS moduli `Q = ∏ q_i` span hundreds to thousands of bits, far beyond
//! `u128`. Decoding (and the exact-CRT tests for the fast basis conversion)
//! needs just enough big-integer arithmetic to reconstruct a coefficient
//! from its RNS residues and center it modulo `Q`. We implement that subset
//! in-house rather than adding a dependency: little-endian `u64` limbs with
//! add, small-multiply, compare, subtract, shift and float conversion.

use std::cmp::Ordering;
use std::fmt;

/// Arbitrary-precision unsigned integer, little-endian 64-bit limbs.
///
/// The representation is normalized: no trailing zero limbs (the value 0 is
/// the empty limb vector).
#[derive(Clone, PartialEq, Eq, Default, Hash)]
pub struct UBig {
    limbs: Vec<u64>,
}

impl fmt::Debug for UBig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UBig(≈2^{:.1})", self.bits_f64())
    }
}

impl From<u64> for UBig {
    fn from(x: u64) -> Self {
        let mut v = UBig { limbs: vec![x] };
        v.normalize();
        v
    }
}

impl From<u128> for UBig {
    fn from(x: u128) -> Self {
        let mut v = UBig {
            limbs: vec![x as u64, (x >> 64) as u64],
        };
        v.normalize();
        v
    }
}

impl UBig {
    /// The value zero.
    pub fn zero() -> Self {
        UBig::default()
    }

    /// The value one.
    pub fn one() -> Self {
        UBig::from(1u64)
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Bit length as a float (sufficient for logging and noise estimates).
    pub fn bits_f64(&self) -> f64 {
        match self.limbs.last() {
            None => 0.0,
            Some(&top) => {
                (self.limbs.len() as f64 - 1.0) * 64.0 + (64 - top.leading_zeros()) as f64
                    - if top == 0 {
                        0.0
                    } else {
                        (top.leading_zeros() == 63) as i32 as f64 * 0.0
                    }
            }
        }
    }

    /// Exact bit length (position of the highest set bit plus one).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// In-place multiplication by a 64-bit value.
    pub fn mul_small(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry = 0u128;
        for limb in &mut self.limbs {
            let prod = *limb as u128 * m as u128 + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        while carry != 0 {
            self.limbs.push(carry as u64);
            carry >>= 64;
        }
    }

    /// In-place addition of a 64-bit value.
    pub fn add_small(&mut self, a: u64) {
        let mut carry = a;
        for limb in &mut self.limbs {
            let (s, o) = limb.overflowing_add(carry);
            *limb = s;
            carry = o as u64;
            if carry == 0 {
                return;
            }
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// In-place addition of another big integer.
    pub fn add_assign(&mut self, rhs: &UBig) {
        if self.limbs.len() < rhs.limbs.len() {
            self.limbs.resize(rhs.limbs.len(), 0);
        }
        let mut carry = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (s1, o1) = limb.overflowing_add(r);
            let (s2, o2) = s1.overflowing_add(carry);
            *limb = s2;
            carry = (o1 as u64) + (o2 as u64);
        }
        if carry != 0 {
            self.limbs.push(carry);
        }
    }

    /// In-place subtraction; `rhs` must not exceed `self`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs > self`.
    pub fn sub_assign(&mut self, rhs: &UBig) {
        assert!(*self >= *rhs, "UBig underflow");
        let mut borrow = 0u64;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let r = rhs.limbs.get(i).copied().unwrap_or(0);
            let (s1, o1) = limb.overflowing_sub(r);
            let (s2, o2) = s1.overflowing_sub(borrow);
            *limb = s2;
            borrow = (o1 as u64) + (o2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Remainder modulo a 64-bit value.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "division by zero");
        let mut rem = 0u128;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % m as u128;
        }
        rem as u64
    }

    /// Product of a slice of 64-bit factors.
    pub fn product(factors: &[u64]) -> UBig {
        let mut acc = UBig::one();
        for &f in factors {
            acc.mul_small(f);
        }
        acc
    }

    /// Approximate conversion to `f64` (loses precision beyond 53 bits, as
    /// expected; used for decoding where the plaintext magnitude is small).
    pub fn to_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            acc = acc * 1.8446744073709552e19 + limb as f64;
        }
        acc
    }

    /// Right shift by `sh` bits.
    pub fn shr(&self, sh: usize) -> UBig {
        let limb_shift = sh / 64;
        let bit_shift = sh % 64;
        if limb_shift >= self.limbs.len() {
            return UBig::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut v = self.limbs[i] >> bit_shift;
            if bit_shift > 0 {
                if let Some(&hi) = self.limbs.get(i + 1) {
                    v |= hi << (64 - bit_shift);
                }
            }
            out.push(v);
        }
        let mut r = UBig { limbs: out };
        r.normalize();
        r
    }
}

impl PartialOrd for UBig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for UBig {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
            match a.cmp(b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

/// Signed magnitude view of a CRT-reconstructed coefficient: value in
/// `(-Q/2, Q/2]` represented as a sign and a [`UBig`] magnitude.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IBig {
    /// True when the value is negative.
    pub negative: bool,
    /// Absolute value.
    pub magnitude: UBig,
}

impl IBig {
    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let m = self.magnitude.to_f64();
        if self.negative {
            -m
        } else {
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_value_roundtrips() {
        let mut x = UBig::from(41u64);
        x.add_small(1);
        assert_eq!(x, UBig::from(42u64));
        assert_eq!(x.rem_u64(5), 2);
        assert_eq!(x.to_f64(), 42.0);
        assert_eq!(x.bit_len(), 6);
    }

    #[test]
    fn mul_small_carries_across_limbs() {
        let mut x = UBig::from(u64::MAX);
        x.mul_small(u64::MAX);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let expect = UBig::from((u64::MAX as u128) * (u64::MAX as u128));
        assert_eq!(x, expect);
        assert_eq!(x.bit_len(), 128);
    }

    #[test]
    fn add_assign_with_carry_chain() {
        let mut x = UBig::from(u128::MAX);
        x.add_assign(&UBig::one());
        assert_eq!(x.bit_len(), 129);
        assert_eq!(x.rem_u64(1 << 32), 0);
    }

    #[test]
    fn sub_assign_and_ordering() {
        let a = UBig::product(&[0xffff_ffff_ffff_fffe, 12345, 678901]);
        let b = UBig::product(&[0xffff_ffff_ffff_fffe, 12345]);
        assert!(a > b);
        let mut c = a.clone();
        c.sub_assign(&b);
        assert!(c < a);
        let mut back = c;
        back.add_assign(&b);
        assert_eq!(back, a);
    }

    #[test]
    #[should_panic(expected = "UBig underflow")]
    fn sub_underflow_panics() {
        let mut a = UBig::from(1u64);
        a.sub_assign(&UBig::from(2u64));
    }

    #[test]
    fn rem_matches_u128_arithmetic() {
        let val = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        let x = UBig::from(val);
        for m in [3u64, 97, 65537, (1 << 61) - 1] {
            assert_eq!(x.rem_u64(m) as u128, val % m as u128);
        }
    }

    #[test]
    fn product_and_shift() {
        let p = UBig::product(&[1 << 20, 1 << 20, 1 << 20]);
        assert_eq!(p.bit_len(), 61);
        assert_eq!(p.shr(60), UBig::one());
        assert_eq!(p.shr(61), UBig::zero());
        assert_eq!(p.shr(0), p);
    }

    #[test]
    fn to_f64_large() {
        let p = UBig::product(&[1 << 30, 1 << 30]);
        assert_eq!(p.to_f64(), 2f64.powi(60));
    }
}
