//! Negacyclic number-theoretic transforms over `Z_q[x]/(x^N + 1)`.
//!
//! The NTT is the *limb-wise* kernel of the MAD paper (Table 3): it touches
//! all `N` slots of a single limb and is independent across limbs. Forward
//! transforms use a Cooley–Tukey decimation-in-time network producing
//! bit-reversed output; inverse transforms use Gentleman–Sande consuming
//! bit-reversed input, so a forward/inverse pair is an identity on
//! naturally-ordered coefficient vectors.
//!
//! Twiddle factors are powers of a primitive `2N`-th root of unity `ψ`
//! folded into the butterflies, which implements the negacyclic wraparound
//! (multiplication modulo `x^N + 1` rather than `x^N - 1`) without separate
//! pre/post scaling passes. All butterfly constants carry precomputed Shoup
//! companions.

use crate::backend::{ShoupPair, UnrolledBackend};
use crate::modular::Modulus;
use crate::prime::{is_prime, primitive_root_of_unity};
use std::fmt;

/// Global counters of limb transforms executed, for cross-validating the
/// `simfhe` cost model against the functional library (the paper's op
/// accounting is per limb-NTT). A view of the transform counters in
/// [`crate::telemetry`]: [`NttTable::forward`]/[`NttTable::inverse`] record
/// each transform once, and [`forward_count`](counters::forward_count)
/// always equals `telemetry::snapshot().ntt_fwd`.
pub mod counters {
    use crate::telemetry;

    /// Forward limb-NTTs executed since the last [`reset`].
    pub fn forward_count() -> u64 {
        telemetry::snapshot().ntt_fwd
    }

    /// Inverse limb-NTTs executed since the last [`reset`].
    pub fn inverse_count() -> u64 {
        telemetry::snapshot().ntt_inv
    }

    /// Resets both counters to zero (and nothing else `telemetry` counts).
    ///
    /// Note: the counters are process-global; tests that use them should
    /// not run concurrently with other NTT-heavy tests (use a dedicated
    /// integration-test binary, which Cargo runs in its own process).
    pub fn reset() {
        telemetry::reset_transforms();
    }
}

/// Precomputed tables for the negacyclic NTT of a fixed `(q, N)` pair.
///
/// # Example
///
/// ```
/// use fhe_math::{ntt::NttTable, prime::generate_ntt_primes};
/// let q = generate_ntt_primes(1, 30, 16)[0];
/// let t = NttTable::new(q, 16).unwrap();
/// let mut data: Vec<u64> = (0..16).collect();
/// let original = data.clone();
/// t.forward(&mut data);
/// assert_ne!(data, original);
/// t.inverse(&mut data);
/// assert_eq!(data, original);
/// ```
#[derive(Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    log_n: u32,
    /// ψ^br(i) for CT forward butterflies, bit-reverse ordered, with Shoup
    /// companions.
    fwd_roots: Vec<ShoupPair>,
    /// ψ^{-br(i)} for GS inverse butterflies.
    inv_roots: Vec<ShoupPair>,
    /// N^{-1} mod q for the final inverse scaling.
    n_inv: ShoupPair,
    /// `inv_roots[1]·N^{-1}`: the last inverse stage's only twiddle with the
    /// scaling folded in.
    n_inv_last_root: ShoupPair,
    /// ψ, kept for callers that need evaluation-point bookkeeping.
    psi: u64,
}

impl fmt::Debug for NttTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NttTable")
            .field("q", &self.modulus.value())
            .field("n", &self.n)
            .finish()
    }
}

/// Error constructing an [`NttTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NttError {
    /// `n` is not a power of two (or is < 2).
    InvalidDegree(usize),
    /// `q` is not prime or `q ≢ 1 (mod 2n)`.
    UnsupportedModulus(u64),
}

impl fmt::Display for NttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NttError::InvalidDegree(n) => write!(f, "degree {n} is not a power of two ≥ 2"),
            NttError::UnsupportedModulus(q) => {
                write!(f, "modulus {q} is not an NTT-friendly prime")
            }
        }
    }
}

impl std::error::Error for NttError {}

#[inline]
fn bit_reverse(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

impl NttTable {
    /// Builds NTT tables for `Z_q[x]/(x^n + 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`NttError`] if `n` is not a power of two or `q` is not a
    /// prime with `q ≡ 1 (mod 2n)`.
    pub fn new(q: u64, n: usize) -> Result<Self, NttError> {
        if !n.is_power_of_two() || n < 2 {
            return Err(NttError::InvalidDegree(n));
        }
        let modulus = Modulus::new(q).map_err(|_| NttError::UnsupportedModulus(q))?;
        if !is_prime(q) || !(q - 1).is_multiple_of(2 * n as u64) {
            return Err(NttError::UnsupportedModulus(q));
        }
        let log_n = n.trailing_zeros();
        let psi = primitive_root_of_unity(&modulus, 2 * n as u64);
        let psi_inv = modulus.inv(psi).expect("psi invertible");

        let mut fwd_roots = vec![0u64; n];
        let mut inv_roots = vec![0u64; n];
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        let mut fwd_natural = vec![0u64; n];
        let mut inv_natural = vec![0u64; n];
        for i in 0..n {
            fwd_natural[i] = pow_f;
            inv_natural[i] = pow_i;
            pow_f = modulus.mul(pow_f, psi);
            pow_i = modulus.mul(pow_i, psi_inv);
        }
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            fwd_roots[i] = fwd_natural[r];
            inv_roots[i] = inv_natural[r];
        }
        let fwd_roots = ShoupPair::table(&modulus, &fwd_roots);
        let inv_roots = ShoupPair::table(&modulus, &inv_roots);
        let n_inv = modulus.inv(n as u64).expect("n invertible mod prime q");
        let n_inv_last_root = ShoupPair::new(&modulus, modulus.mul(inv_roots[1].value, n_inv));
        let n_inv = ShoupPair::new(&modulus, n_inv);
        Ok(Self {
            modulus,
            n,
            log_n,
            fwd_roots,
            inv_roots,
            n_inv,
            n_inv_last_root,
            psi,
        })
    }

    /// The modulus this table transforms over.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Transform size `N`.
    #[inline]
    pub fn size(&self) -> usize {
        self.n
    }

    /// The primitive `2N`-th root of unity used as the negacyclic twist.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Forward twiddles `ψ^br(i)` in bit-reversed order, with Shoup
    /// companions (read by the transform kernels in [`crate::backend`]).
    #[inline]
    pub fn forward_roots(&self) -> &[ShoupPair] {
        &self.fwd_roots
    }

    /// Inverse twiddles `ψ^{-br(i)}` with Shoup companions.
    #[inline]
    pub fn inverse_roots(&self) -> &[ShoupPair] {
        &self.inv_roots
    }

    /// `N^{-1} mod q` with its Shoup companion, for the final inverse
    /// scaling pass.
    #[inline]
    pub fn n_inv(&self) -> ShoupPair {
        self.n_inv
    }

    /// `N^{-1}·ψ^{-br(1)} mod q` with its Shoup companion. The last inverse
    /// stage has this one twiddle, so a transform can scale there —
    /// `u' = (u+v)·N^{-1}`, `v' = (u−v)·(w·N^{-1})` — instead of in a pass
    /// of its own.
    #[inline]
    pub fn n_inv_last_root(&self) -> ShoupPair {
        self.n_inv_last_root
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation,
    /// bit-reversed output order), on [`UnrolledBackend::ntt_forward`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn forward(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n, "NTT size mismatch");
        // Recorded here, in logical units: the kernel records nothing.
        crate::telemetry::record_ntt(true, self.butterfly_count(), self.n as u64);
        UnrolledBackend.ntt_forward(self, data);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient, consumes
    /// bit-reversed input order, emits natural order), on
    /// [`UnrolledBackend::ntt_inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.size()`.
    pub fn inverse(&self, data: &mut [u64]) {
        assert_eq!(data.len(), self.n, "NTT size mismatch");
        // Logical units here too: the kernel folds `N⁻¹` into its last
        // stage and runs n/2 fewer multiplies than this records.
        crate::telemetry::record_ntt(false, self.butterfly_count(), self.n as u64);
        UnrolledBackend.ntt_inverse(self, data);
    }

    /// Number of butterfly operations in one transform: `(N/2)·log2 N`.
    ///
    /// This is the unit the `simfhe` cost model charges per NTT; each
    /// butterfly is one modular multiplication plus two additions.
    pub fn butterfly_count(&self) -> u64 {
        (self.n as u64 / 2) * self.log_n as u64
    }

    /// The exponent `e(pos)` such that the evaluation stored at `pos` after
    /// [`NttTable::forward`] is `p(ψ^{e})`, with `e` odd and taken mod `2N`.
    ///
    /// Used to build Galois-automorphism permutations in the evaluation
    /// representation.
    pub fn exponent_at(&self, pos: usize) -> u64 {
        debug_assert!(pos < self.n);
        // CT with our root ordering places p(ψ^{2·br(pos)+1}) at `pos`.
        (2 * bit_reverse(pos, self.log_n) as u64 + 1) % (2 * self.n as u64)
    }

    /// Inverse of [`NttTable::exponent_at`]: the storage position of the
    /// evaluation at `ψ^{e}` (requires `e` odd, `e < 2N`).
    pub fn position_of_exponent(&self, e: u64) -> usize {
        debug_assert!(e % 2 == 1 && e < 2 * self.n as u64);
        bit_reverse(((e - 1) / 2) as usize, self.log_n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn table(bits: u32, n: usize) -> NttTable {
        NttTable::new(generate_ntt_primes(1, bits, n)[0], n).unwrap()
    }

    #[test]
    fn constructor_rejects_bad_inputs() {
        assert!(matches!(
            NttTable::new(97, 3),
            Err(NttError::InvalidDegree(3))
        ));
        assert!(matches!(
            NttTable::new(91, 8),
            Err(NttError::UnsupportedModulus(91))
        ));
        // 97 is prime but 97 ≢ 1 mod 64.
        assert!(matches!(
            NttTable::new(97, 32),
            Err(NttError::UnsupportedModulus(97))
        ));
    }

    #[test]
    fn roundtrip_identity_various_sizes() {
        for n in [2usize, 8, 64, 1024] {
            let t = table(35, n);
            let mut data: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % t.modulus().value())
                .collect();
            let orig = data.clone();
            t.forward(&mut data);
            t.inverse(&mut data);
            assert_eq!(data, orig, "n={n}");
        }
    }

    #[test]
    fn convolution_is_negacyclic() {
        // (x^{n-1}) * (x) = x^n = -1 mod x^n + 1.
        let n = 16;
        let t = table(30, n);
        let q = *t.modulus();
        let mut a = vec![0u64; n];
        a[n - 1] = 1;
        let mut b = vec![0u64; n];
        b[1] = 1;
        t.forward(&mut a);
        t.forward(&mut b);
        let mut c: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.mul(x, y)).collect();
        t.inverse(&mut c);
        let mut expect = vec![0u64; n];
        expect[0] = q.value() - 1; // -1
        assert_eq!(c, expect);
    }

    #[test]
    fn matches_schoolbook_negacyclic_product() {
        let n = 32;
        let t = table(28, n);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * i + 3) % q.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (7 * i + 1) % q.value()).collect();
        // Schoolbook with sign wrap.
        let mut expect = vec![0u64; n];
        for i in 0..n {
            for j in 0..n {
                let prod = q.mul(a[i], b[j]);
                let k = i + j;
                if k < n {
                    expect[k] = q.add(expect[k], prod);
                } else {
                    expect[k - n] = q.sub(expect[k - n], prod);
                }
            }
        }
        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut c: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul(x, y)).collect();
        t.inverse(&mut c);
        assert_eq!(c, expect);
    }

    #[test]
    fn forward_is_linear() {
        let n = 64;
        let t = table(32, n);
        let q = *t.modulus();
        let a: Vec<u64> = (0..n as u64).map(|i| (i * 31 + 5) % q.value()).collect();
        let b: Vec<u64> = (0..n as u64).map(|i| (i * 17 + 9) % q.value()).collect();
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| q.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fsum);
        let combined: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.add(x, y)).collect();
        assert_eq!(fsum, combined);
    }

    #[test]
    fn exponent_bookkeeping_consistent() {
        let n = 64;
        let t = table(30, n);
        let mut seen = vec![false; 2 * n];
        for pos in 0..n {
            let e = t.exponent_at(pos);
            assert_eq!(e % 2, 1);
            assert!(!seen[e as usize], "duplicate exponent");
            seen[e as usize] = true;
            assert_eq!(t.position_of_exponent(e), pos);
        }
    }

    #[test]
    fn evaluation_points_match_exponents() {
        // forward(p) at position pos must equal p(ψ^{exponent_at(pos)}).
        let n = 16;
        let t = table(25, n);
        let q = *t.modulus();
        let coeffs: Vec<u64> = (0..n as u64).map(|i| (i * 3 + 1) % q.value()).collect();
        let mut evals = coeffs.clone();
        t.forward(&mut evals);
        for pos in 0..n {
            let point = q.pow(t.psi(), t.exponent_at(pos));
            let mut horner = 0u64;
            for &c in coeffs.iter().rev() {
                horner = q.add(q.mul(horner, point), c);
            }
            assert_eq!(evals[pos], horner, "pos={pos}");
        }
    }

    #[test]
    fn butterfly_count_formula() {
        let t = table(30, 1024);
        assert_eq!(t.butterfly_count(), 512 * 10);
    }
}
