//! CKKS bootstrapping (Algorithm 4 of the MAD paper).
//!
//! The pipeline refreshes an exhausted ciphertext's modulus:
//!
//! 1. **ModRaise** — reinterpret the (centered) coefficients over the full
//!    modulus chain. The plaintext becomes `Δ·m + q_0·k` for a small-
//!    coefficient polynomial `k`.
//! 2. **CoeffToSlot** — homomorphically apply the inverse canonical-
//!    embedding transform so the *coefficients* appear in the *slots*.
//!    Factored into `fftIter` grouped butterfly matrices, each applied with
//!    the hoisted `PtMatVecMult` of [`crate::hoisting`].
//! 3. **EvalMod** — approximate reduction mod `q_0` via a scaled sine,
//!    evaluated as a Chebyshev series on the real and imaginary parts.
//! 4. **SlotToCoeff** — the forward transform, returning the cleaned
//!    coefficients to coefficient position.
//!
//! The factorization degree (`fftIter`), sine degree and range are set by
//! [`BootstrapConfig`] — these are exactly the knobs the paper's parameter
//! search (Table 5) optimizes for memory traffic.

use crate::context::CkksContext;
use crate::encoding::Encoder;
use crate::hoisting::{apply_hoisted, LinearTransform};
use crate::keys::{GaloisKeys, RelinKey};
use crate::ops::Evaluator;
use crate::plaintext::Ciphertext;
use crate::polyeval::{evaluate_chebyshev, ChebyshevSeries};
use fhe_math::cfft::{Complex, SpecialFft};
use fhe_math::poly::RnsPoly;
use fhe_math::telemetry;
use std::fmt;
use std::sync::Arc;

/// Tunable bootstrapping parameters.
#[derive(Clone, Debug)]
pub struct BootstrapConfig {
    /// Number of grouped DFT matrices per linear phase (the paper's
    /// `fftIter`).
    pub fft_iters: usize,
    /// Degree of the Chebyshev approximation of the scaled sine.
    pub eval_mod_degree: usize,
    /// Bound `K` on the `q_0`-multiples introduced by ModRaise (requires a
    /// sparse secret; `‖k‖_∞ ≤ K` must hold with overwhelming probability).
    pub k_range: f64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        Self {
            fft_iters: 2,
            eval_mod_degree: 119,
            k_range: 12.0,
        }
    }
}

/// Precomputed bootstrapping machinery for one context.
pub struct Bootstrapper {
    ctx: Arc<CkksContext>,
    config: BootstrapConfig,
    coeff_to_slot: Vec<LinearTransform>,
    slot_to_coeff: Vec<LinearTransform>,
    sine: ChebyshevSeries,
}

impl fmt::Debug for Bootstrapper {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bootstrapper")
            .field("fft_iters", &self.config.fft_iters)
            .field("sine_degree", &self.config.eval_mod_degree)
            .field("k_range", &self.config.k_range)
            .finish()
    }
}

/// Builds the dense matrix of a pipeline of FFT-stage closures by pushing
/// basis vectors through it.
fn matrix_of(n: usize, apply: impl Fn(&mut [Complex])) -> Vec<Vec<Complex>> {
    let mut mat = vec![vec![Complex::default(); n]; n];
    for k in 0..n {
        let mut v = vec![Complex::default(); n];
        v[k] = Complex::new(1.0, 0.0);
        apply(&mut v);
        for (i, row) in mat.iter_mut().enumerate() {
            row[k] = v[i];
        }
    }
    mat
}

/// Splits `count` FFT stages into `groups` contiguous chunks, sized as
/// evenly as possible.
fn chunk_stages(count: usize, groups: usize) -> Vec<usize> {
    let groups = groups.min(count).max(1);
    let base = count / groups;
    let extra = count % groups;
    (0..groups).map(|g| base + usize::from(g < extra)).collect()
}

impl Bootstrapper {
    /// Precomputes the grouped DFT matrices and the sine approximation.
    ///
    /// # Panics
    ///
    /// Panics if `fft_iters` is zero or exceeds `log2(slots)`, or if the
    /// modulus chain is too short for the pipeline's depth.
    pub fn new(ctx: Arc<CkksContext>, config: BootstrapConfig) -> Self {
        let slots = ctx.params().slots();
        let log_slots = slots.trailing_zeros() as usize;
        assert!(
            config.fft_iters >= 1 && config.fft_iters <= log_slots.max(1),
            "fftIter must be in [1, log2(slots)]"
        );
        let fft = SpecialFft::new(slots);

        // Forward stages in application order: bit-reverse, then widths
        // 2, 4, …, n. SlotToCoeff groups them; CoeffToSlot groups the
        // inverse stages (widths n … 2, then bit-reverse, then 1/n).
        let chunks = chunk_stages(log_slots, config.fft_iters);
        let mut slot_to_coeff = Vec::with_capacity(chunks.len());
        let mut stage = 0usize;
        for (gi, &c) in chunks.iter().enumerate() {
            let first = gi == 0;
            let widths: Vec<usize> = (stage..stage + c).map(|s| 1usize << (s + 1)).collect();
            stage += c;
            let mat = matrix_of(slots, |v| {
                if first {
                    fft.permute_bit_reverse(v);
                }
                for &w in &widths {
                    fft.forward_stage(v, w);
                }
            });
            slot_to_coeff.push(LinearTransform::from_matrix(&mat));
        }

        let inv_chunks = chunk_stages(log_slots, config.fft_iters);
        let mut coeff_to_slot = Vec::with_capacity(inv_chunks.len());
        let mut done = 0usize;
        for (gi, &c) in inv_chunks.iter().enumerate() {
            let last = gi == inv_chunks.len() - 1;
            // Inverse stages run from width n downward.
            let widths: Vec<usize> = (done..done + c).map(|s| slots >> s).collect();
            done += c;
            let mat = matrix_of(slots, |v| {
                for &w in &widths {
                    fft.inverse_stage(v, w);
                }
                if last {
                    fft.permute_bit_reverse(v);
                    let sc = 1.0 / slots as f64;
                    for x in v.iter_mut() {
                        *x = x.scale(sc);
                    }
                }
            });
            coeff_to_slot.push(LinearTransform::from_matrix(&mat));
        }

        // Scaled sine: f(t) = (ratio/2π)·sin(2πt/ratio) on ±(K+1)·ratio,
        // where ratio = q_0/Δ. Its fixed points near t = q·k + Δm recover m.
        let ratio = ctx.q_basis().modulus(0).value() as f64 / ctx.params().scale();
        let bound = (config.k_range + 1.0) * ratio;
        let sine = ChebyshevSeries::interpolate(
            move |t| {
                ratio / (2.0 * std::f64::consts::PI)
                    * (2.0 * std::f64::consts::PI * t / ratio).sin()
            },
            config.eval_mod_degree,
            -bound,
            bound,
        );

        Self {
            ctx,
            config,
            coeff_to_slot,
            slot_to_coeff,
            sine,
        }
    }

    /// A conservative estimate of the limb count consumed by one
    /// bootstrap: the two linear phases, the real/imag split and
    /// recombination, and the sine evaluation (whose BSGS ladder plus
    /// recursive recombination costs roughly twice `log2(degree)`).
    pub fn depth_estimate(config: &BootstrapConfig) -> usize {
        let d = config.eval_mod_degree.max(1);
        let log_d = (usize::BITS - d.leading_zeros()) as usize;
        let sine_depth = 2 * log_d + 2;
        2 * config.fft_iters + 2 + sine_depth
    }

    /// The configuration in use.
    pub fn config(&self) -> &BootstrapConfig {
        &self.config
    }

    /// Rotation steps required by the hoisted matrix products; generate
    /// Galois keys for these (plus conjugation) before bootstrapping.
    pub fn required_rotations(&self) -> Vec<i64> {
        let mut steps: Vec<i64> = self
            .coeff_to_slot
            .iter()
            .chain(&self.slot_to_coeff)
            .flat_map(|lt| lt.offsets())
            .filter(|&d| d != 0)
            .map(|d| d as i64)
            .collect();
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// **ModRaise**: reinterprets a low-level ciphertext over the full
    /// modulus chain. The plaintext gains an additive `q_0·k` term that
    /// [`Bootstrapper::eval_mod`] later removes.
    ///
    /// # Panics
    ///
    /// Panics if the input is not at exactly one limb (callers should
    /// compute until the chain is exhausted first).
    pub fn mod_raise(&self, ct: &Ciphertext) -> Ciphertext {
        assert_eq!(
            ct.limb_count(),
            1,
            "ModRaise expects an exhausted (single-limb) ciphertext"
        );
        let _span = telemetry::span("Bootstrap.ModRaise");
        let full = self.ctx.level_basis(self.ctx.params().levels()).clone();
        let n = self.ctx.params().degree();
        let q0 = *self.ctx.q_basis().modulus(0);
        let raise = |p: &RnsPoly| {
            let mut coeff = p.clone();
            coeff.to_coeff();
            let signed: Vec<i64> = (0..n).map(|i| q0.to_centered(coeff.limb(0)[i])).collect();
            let mut out = RnsPoly::from_signed_coeffs(full.clone(), &signed);
            out.to_eval();
            out
        };
        Ciphertext::new(raise(&ct.c0), raise(ct.c1()), ct.scale)
    }

    /// **CoeffToSlot**: `fftIter` hoisted matrix products.
    pub fn coeff_to_slot(
        &self,
        evaluator: &Evaluator,
        encoder: &Encoder,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        let _span = telemetry::span("Bootstrap.CoeffToSlot");
        let mut acc = ct.clone();
        for lt in &self.coeff_to_slot {
            acc = apply_hoisted(evaluator, encoder, &acc, lt, gk);
        }
        acc
    }

    /// **SlotToCoeff**: `fftIter` hoisted matrix products.
    pub fn slot_to_coeff(
        &self,
        evaluator: &Evaluator,
        encoder: &Encoder,
        ct: &Ciphertext,
        gk: &GaloisKeys,
    ) -> Ciphertext {
        let _span = telemetry::span("Bootstrap.SlotToCoeff");
        let mut acc = ct.clone();
        for lt in &self.slot_to_coeff {
            acc = apply_hoisted(evaluator, encoder, &acc, lt, gk);
        }
        acc
    }

    /// **EvalMod**: the scaled-sine approximation of reduction mod `q_0`,
    /// applied to a ciphertext holding real values in `±(K+1)·q_0/Δ`.
    pub fn eval_mod(&self, evaluator: &Evaluator, ct: &Ciphertext, rlk: &RelinKey) -> Ciphertext {
        let _span = telemetry::span("Bootstrap.EvalMod");
        evaluate_chebyshev(evaluator, rlk, ct, &self.sine)
    }

    /// Full bootstrap: raises the modulus of an exhausted ciphertext and
    /// homomorphically removes the `q_0·k` residue, returning a ciphertext
    /// of the same message with fresh limbs to spend.
    ///
    /// # Panics
    ///
    /// Panics if the Galois keys are missing required rotations or the
    /// conjugation key.
    pub fn bootstrap(
        &self,
        evaluator: &Evaluator,
        encoder: &Encoder,
        ct: &Ciphertext,
        gk: &GaloisKeys,
        rlk: &RelinKey,
    ) -> Ciphertext {
        let _span = telemetry::span("Bootstrap");
        assert!(
            self.ctx.params().levels() > Self::depth_estimate(&self.config),
            "modulus chain too short: bootstrapping needs > {} limbs",
            Self::depth_estimate(&self.config)
        );
        let scale = self.ctx.params().scale();
        let raised = self.mod_raise(ct);
        let slotted = self.coeff_to_slot(evaluator, encoder, &raised, gk);

        // Split into real and imaginary parts: the slots now hold
        // c_j + i·c_{j+n} and EvalMod acts on real values.
        let conj = evaluator.conjugate(&slotted, gk);
        let sum = evaluator.add(&slotted, &conj);
        let real = evaluator.rescale(&evaluator.mul_scalar_no_rescale(&sum, 0.5, scale));
        let diff = evaluator.sub(&slotted, &conj);
        let imag = evaluator.rescale(&evaluator.mul_complex_scalar_no_rescale(
            &diff,
            Complex::new(0.0, -0.5),
            scale,
        ));

        let real_m = self.eval_mod(evaluator, &real, rlk);
        let imag_m = self.eval_mod(evaluator, &imag, rlk);

        // Recombine: z = real + i·imag, burning the same prime on both
        // paths so the scales match exactly.
        let real_c = evaluator.rescale(&evaluator.mul_scalar_no_rescale(&real_m, 1.0, scale));
        let imag_c = evaluator.rescale(&evaluator.mul_complex_scalar_no_rescale(
            &imag_m,
            Complex::new(0.0, 1.0),
            scale,
        ));
        let combined = evaluator.add(&real_c, &imag_c);

        self.slot_to_coeff(evaluator, encoder, &combined, gk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_chunking_is_balanced() {
        assert_eq!(chunk_stages(6, 2), vec![3, 3]);
        assert_eq!(chunk_stages(6, 3), vec![2, 2, 2]);
        assert_eq!(chunk_stages(5, 2), vec![3, 2]);
        assert_eq!(chunk_stages(4, 1), vec![4]);
        assert_eq!(chunk_stages(3, 6), vec![1, 1, 1]);
    }

    #[test]
    fn grouped_matrices_compose_to_the_full_transform() {
        let n = 16;
        let fft = SpecialFft::new(n);
        // Recreate the grouping logic at fft_iters = 2 and check that the
        // product of grouped maps equals the monolithic transform.
        let groups = chunk_stages(4, 2);
        let mut stage = 0usize;
        let mut v: Vec<Complex> = (0..n)
            .map(|i| Complex::new(i as f64 * 0.2 - 1.0, (i as f64).sin()))
            .collect();
        let mut expect = v.clone();
        fft.forward(&mut expect);
        for (gi, &c) in groups.iter().enumerate() {
            let widths: Vec<usize> = (stage..stage + c).map(|s| 1usize << (s + 1)).collect();
            stage += c;
            let first = gi == 0;
            let mat = matrix_of(n, |x| {
                if first {
                    fft.permute_bit_reverse(x);
                }
                for &w in &widths {
                    fft.forward_stage(x, w);
                }
            });
            let lt = LinearTransform::from_matrix(&mat);
            v = lt.apply_plain(&v);
        }
        for (a, b) in v.iter().zip(&expect) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_grouping_reverses_forward_grouping() {
        let n = 8;
        let fft = SpecialFft::new(n);
        let mut v: Vec<Complex> = (0..n)
            .map(|i| Complex::new(0.5 - 0.1 * i as f64, 0.3 * i as f64))
            .collect();
        let orig = v.clone();
        fft.forward(&mut v);
        // Inverse via grouped matrices at fft_iters = 3.
        let chunks = chunk_stages(3, 3);
        let mut done = 0usize;
        for (gi, &c) in chunks.iter().enumerate() {
            let last = gi == chunks.len() - 1;
            let widths: Vec<usize> = (done..done + c).map(|s| n >> s).collect();
            done += c;
            let mat = matrix_of(n, |x| {
                for &w in &widths {
                    fft.inverse_stage(x, w);
                }
                if last {
                    fft.permute_bit_reverse(x);
                    for y in x.iter_mut() {
                        *y = y.scale(1.0 / n as f64);
                    }
                }
            });
            let lt = LinearTransform::from_matrix(&mat);
            v = lt.apply_plain(&v);
        }
        for (a, b) in v.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn sine_series_fixes_lattice_points() {
        // f(Δ·m + q·k scaled by 1/Δ) ≈ m for |m| ≤ 1, |k| ≤ K.
        let ratio = 32.0; // q0/Δ
        let bound = 13.0 * ratio;
        let series = ChebyshevSeries::interpolate(
            move |t| {
                ratio / (2.0 * std::f64::consts::PI)
                    * (2.0 * std::f64::consts::PI * t / ratio).sin()
            },
            119,
            -bound,
            bound,
        );
        for k in -12i32..=12 {
            for &m in &[-0.9f64, -0.3, 0.0, 0.4, 0.8] {
                let t = m + k as f64 * ratio;
                let got = series.eval_plain(t);
                assert!((got - m).abs() < 0.02, "k={k} m={m}: got {got}");
            }
        }
    }
}
