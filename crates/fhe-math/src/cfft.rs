//! Complex "special" FFT over the CKKS canonical embedding.
//!
//! CKKS encodes a vector of `n = N/2` complex slots into a real polynomial
//! of degree `N − 1` by inverting the canonical embedding restricted to the
//! orbit of the rotation group `⟨5⟩ ⊂ Z_{2N}^*`. The forward transform
//! evaluates a polynomial at the primitive `2N`-th roots `ζ^{5^j}`; the
//! inverse interpolates. Ordering the evaluation points by powers of 5 makes
//! slot rotation a cyclic shift — which is exactly why `Rotate` in the
//! scheme is the automorphism `x ↦ x^{5^r}`.
//!
//! The butterflies are the standard Cooley–Tukey network; only the twiddle
//! indexing (through the rotation group) differs from a textbook FFT, and
//! it is resolved once, into a table per stage, when the tables are built.

use std::f64::consts::PI;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A complex number with `f64` components (self-contained; avoids an
/// external num dependency).
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl fmt::Debug for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:+}i", self.re, self.im)
    }
}

impl Complex {
    /// Constructs `re + im·i`.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex conjugate.
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Absolute value (modulus).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Self::new(theta.cos(), theta.sin())
    }

    /// Scales by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Self::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

/// Precomputed tables for the special FFT of slot count `n` (ring degree
/// `N = 2n`, cyclotomic index `M = 2N = 4n`).
#[derive(Clone)]
pub struct SpecialFft {
    slots: usize,
    /// 5^j mod M for j in [0, n).
    rot_group: Vec<usize>,
    /// The forward stage of width `len` reads its `len/2` twiddles from
    /// `forward_twiddles[len/2..len]`: entry `len/2 + j` is
    /// `ζ^{(5^j mod 4·len)·M/(4·len)}`, ζ = e^{2πi/M}. Built once, so no
    /// butterfly divides or gathers from a table of every power of ζ.
    forward_twiddles: Vec<Complex>,
    /// The inverse stages' twiddles, laid out as `forward_twiddles`:
    /// `ζ^{(4·len − 5^j mod 4·len)·M/(4·len)}`.
    inverse_twiddles: Vec<Complex>,
}

impl fmt::Debug for SpecialFft {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecialFft")
            .field("slots", &self.slots)
            .finish()
    }
}

/// ζ^k = e^{2πik/M}.
fn zeta(k: usize, m: usize) -> Complex {
    Complex::cis(2.0 * PI * k as f64 / m as f64)
}

fn bit_reverse_permute(vals: &mut [Complex]) {
    let n = vals.len();
    if n <= 1 {
        return;
    }
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if i < j {
            vals.swap(i, j);
        }
    }
}

impl SpecialFft {
    /// Builds tables for `slots` complex slots (`slots` a power of two ≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not a power of two.
    pub fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        let m = 4 * slots;
        let mut rot_group = Vec::with_capacity(slots);
        let mut five_pow = 1usize;
        for _ in 0..slots {
            rot_group.push(five_pow);
            five_pow = (five_pow * 5) % m;
        }
        let mut forward_twiddles = vec![Complex::default(); slots];
        let mut inverse_twiddles = vec![Complex::default(); slots];
        let mut len = 2;
        while len <= slots {
            let (len_h, len_q) = (len >> 1, len << 2);
            for (j, &r) in rot_group[..len_h].iter().enumerate() {
                let r = r % len_q;
                forward_twiddles[len_h + j] = zeta(r * (m / len_q), m);
                inverse_twiddles[len_h + j] = zeta((len_q - r) * (m / len_q), m);
            }
            len <<= 1;
        }
        Self {
            slots,
            rot_group,
            forward_twiddles,
            inverse_twiddles,
        }
    }

    /// Number of complex slots `n`.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Forward transform: from "coefficient" half-vectors to slot values
    /// (decode direction). In place.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()`.
    pub fn forward(&self, vals: &mut [Complex]) {
        assert_eq!(vals.len(), self.slots);
        let n = self.slots;
        bit_reverse_permute(vals);
        let mut len = 2;
        while len <= n {
            self.forward_stage(vals, len);
            len <<= 1;
        }
    }

    /// Inverse transform: from slot values to "coefficient" half-vectors
    /// (encode direction). In place. Includes the `1/n` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.slots()`.
    pub fn inverse(&self, vals: &mut [Complex]) {
        assert_eq!(vals.len(), self.slots);
        let n = self.slots;
        let mut len = n;
        while len >= 2 {
            self.inverse_stage(vals, len);
            len >>= 1;
        }
        bit_reverse_permute(vals);
        let scale = 1.0 / n as f64;
        for v in vals.iter_mut() {
            *v = v.scale(scale);
        }
    }

    /// Applies the bit-reversal permutation (the first step of
    /// [`SpecialFft::forward`] / last of [`SpecialFft::inverse`]), exposed
    /// so callers can decompose the transform into stages — CKKS
    /// bootstrapping groups butterfly stages into `fftIter` matrices.
    pub fn permute_bit_reverse(&self, vals: &mut [Complex]) {
        assert_eq!(vals.len(), self.slots);
        bit_reverse_permute(vals);
    }

    /// Applies one forward butterfly stage of width `len` (a power of two
    /// in `[2, n]`). The full forward transform is the bit-reversal
    /// permutation followed by stages `len = 2, 4, …, n`.
    pub fn forward_stage(&self, vals: &mut [Complex], len: usize) {
        assert_eq!(vals.len(), self.slots);
        assert!(len.is_power_of_two() && (2..=self.slots).contains(&len));
        let len_h = len >> 1;
        let twiddles = &self.forward_twiddles[len_h..len];
        for block in vals.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len_h);
            for ((x, y), &w) in lo.iter_mut().zip(hi).zip(twiddles) {
                let (u, v) = (*x, *y * w);
                *x = u + v;
                *y = u - v;
            }
        }
    }

    /// Applies one inverse butterfly stage of width `len`. The full inverse
    /// transform is stages `len = n, n/2, …, 2`, then the bit-reversal
    /// permutation, then scaling by `1/n` (not included here).
    pub fn inverse_stage(&self, vals: &mut [Complex], len: usize) {
        assert_eq!(vals.len(), self.slots);
        assert!(len.is_power_of_two() && (2..=self.slots).contains(&len));
        let len_h = len >> 1;
        let twiddles = &self.inverse_twiddles[len_h..len];
        for block in vals.chunks_exact_mut(len) {
            let (lo, hi) = block.split_at_mut(len_h);
            for ((x, y), &w) in lo.iter_mut().zip(hi).zip(twiddles) {
                let (u, v) = (*x + *y, (*x - *y) * w);
                *x = u;
                *y = v;
            }
        }
    }

    /// Evaluates the embedding directly (O(n²)); reference implementation
    /// for tests. Input: the `n` complex "coefficients" `c_j` representing
    /// the real polynomial `Σ_j (Re c_j) x^j + Σ_j (Im c_j) x^{j+n}`.
    /// Output slot `k` is the polynomial evaluated at `ζ^{5^k}`.
    pub fn forward_reference(&self, coeffs: &[Complex]) -> Vec<Complex> {
        assert_eq!(coeffs.len(), self.slots);
        let (n, m) = (self.slots, 4 * self.slots);
        (0..n)
            .map(|k| {
                let point_exp = self.rot_group[k];
                let mut acc = Complex::default();
                for (j, &c) in coeffs.iter().enumerate() {
                    // x^j term with coefficient c (complex shorthand for the
                    // pair of real coefficients at j and j+n, since
                    // ζ^{n·5^k} = i for all k in the rotation group).
                    let w = zeta((point_exp * j) % m, m);
                    acc = acc + c * w;
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn complex_field_axioms_spotcheck() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-0.5, 3.0);
        assert!(close(a + b - b, a, 1e-12));
        assert!(close(a * b, b * a, 1e-12));
        assert!(close(a.conj().conj(), a, 1e-12));
        assert!(close(Complex::cis(PI), Complex::new(-1.0, 0.0), 1e-12));
        assert!(close(-a + a, Complex::default(), 1e-12));
    }

    /// The stages as they read a table of every power of ζ before the
    /// per-stage tables: index `(5^j mod 4·len)·M/(4·len)` per butterfly.
    fn indexed_stage(fft: &SpecialFft, vals: &mut [Complex], len: usize, inverse: bool) {
        let m = 4 * fft.slots;
        let zeta_pows: Vec<Complex> = (0..m)
            .map(|k| Complex::cis(2.0 * PI * k as f64 / m as f64))
            .collect();
        let (len_h, len_q) = (len >> 1, len << 2);
        for base in (0..fft.slots).step_by(len) {
            for j in 0..len_h {
                let r = fft.rot_group[j] % len_q;
                let r = if inverse { len_q - r } else { r };
                let w = zeta_pows[r * (m / len_q)];
                let (a, b) = (vals[base + j], vals[base + j + len_h]);
                if inverse {
                    vals[base + j] = a + b;
                    vals[base + j + len_h] = (a - b) * w;
                } else {
                    vals[base + j] = a + b * w;
                    vals[base + j + len_h] = a - b * w;
                }
            }
        }
    }

    #[test]
    fn stages_are_bit_identical_to_the_indexed_twiddles() {
        let bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for n in [2usize, 4, 8, 64, 1024, 4096] {
            let fft = SpecialFft::new(n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 1.3).cos() - 0.2))
                .collect();
            let mut len = 2;
            while len <= n {
                for inverse in [false, true] {
                    let (mut got, mut want) = (input.clone(), input.clone());
                    if inverse {
                        fft.inverse_stage(&mut got, len);
                    } else {
                        fft.forward_stage(&mut got, len);
                    }
                    indexed_stage(&fft, &mut want, len, inverse);
                    assert_eq!(bits(&got), bits(&want), "n {n} len {len} inverse {inverse}");
                }
                len <<= 1;
            }
        }
    }

    #[test]
    fn roundtrip_identity() {
        for n in [1usize, 2, 8, 64, 512] {
            let fft = SpecialFft::new(n);
            let mut vals: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64 * 0.25 - 1.0, (i as f64).sin()))
                .collect();
            let orig = vals.clone();
            fft.inverse(&mut vals);
            fft.forward(&mut vals);
            for (a, b) in vals.iter().zip(&orig) {
                assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn forward_matches_reference_embedding() {
        let n = 16;
        let fft = SpecialFft::new(n);
        let coeffs: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.7).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let expect = fft.forward_reference(&coeffs);
        let mut got = coeffs.clone();
        fft.forward(&mut got);
        for (a, b) in got.iter().zip(&expect) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn transform_is_linear() {
        let n = 32;
        let fft = SpecialFft::new(n);
        let a: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let b: Vec<Complex> = (0..n)
            .map(|i| Complex::new(1.0 / (i + 1) as f64, 2.0))
            .collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum;
        fft.forward(&mut fa);
        fft.forward(&mut fb);
        fft.forward(&mut fsum);
        for i in 0..n {
            assert!(close(fsum[i], fa[i] + fb[i], 1e-8));
        }
    }

    #[test]
    fn slot_rotation_is_coefficient_automorphism() {
        // Rotating the slot vector left by 1 corresponds to re-indexing the
        // evaluation points by 5: slots ordered by 5^j make this a shift.
        let n = 8;
        let fft = SpecialFft::new(n);
        let coeffs: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64).cos(), (i as f64 * 2.0).sin()))
            .collect();
        let slots = fft.forward_reference(&coeffs);
        // σ_5 in the embedding: new slot k = old value at point 5^{k+1} =
        // old slot k+1.
        let rotated: Vec<Complex> = (0..n).map(|k| slots[(k + 1) % n]).collect();
        // Direct: evaluate p(x^5)'s embedding. p(x^5) at ζ^{5^k} = p(ζ^{5^{k+1}}).
        for k in 0..n - 1 {
            assert!(close(rotated[k], slots[k + 1], 1e-12));
        }
    }

    #[test]
    fn single_slot_transform_is_identity_up_to_point() {
        let fft = SpecialFft::new(1);
        let mut v = vec![Complex::new(2.5, -1.0)];
        let orig = v.clone();
        fft.inverse(&mut v);
        fft.forward(&mut v);
        assert!(close(v[0], orig[0], 1e-12));
    }
}
