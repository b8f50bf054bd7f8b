//! Encoding between complex slot vectors and ring elements via the
//! canonical embedding.

use crate::context::CkksContext;
use crate::plaintext::Plaintext;
use fhe_math::cfft::{Complex, SpecialFft};
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::rns::RnsBasis;
use std::fmt;
use std::sync::Arc;

/// Encoder/decoder for CKKS plaintexts.
pub struct Encoder {
    ctx: Arc<CkksContext>,
    fft: SpecialFft,
}

impl fmt::Debug for Encoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Encoder")
            .field("slots", &self.ctx.params().slots())
            .finish()
    }
}

/// Error from encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// More values than slots.
    TooManyValues {
        /// Values supplied.
        given: usize,
        /// Slots available.
        slots: usize,
    },
    /// A scaled coefficient exceeded the 62-bit integer range.
    CoefficientOverflow(f64),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::TooManyValues { given, slots } => {
                write!(f, "{given} values exceed the {slots} available slots")
            }
            EncodeError::CoefficientOverflow(c) => {
                write!(f, "scaled coefficient {c:e} exceeds the integer range")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

impl Encoder {
    /// Creates an encoder for the context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        let fft = SpecialFft::new(ctx.params().slots());
        Self { ctx, fft }
    }

    /// Encodes complex values into a plaintext over the `ℓ`-limb basis at
    /// the given scale. Values beyond `values.len()` are zero.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if too many values are given or the scaled
    /// coefficients overflow 62 bits.
    pub fn encode(
        &self,
        values: &[Complex],
        ell: usize,
        scale: f64,
    ) -> Result<Plaintext, EncodeError> {
        let basis = self.ctx.level_basis(ell).clone();
        self.encode_in_basis(values, basis, scale)
    }

    /// Encodes into the *raised* basis `Q_ℓ ∪ P` — used by the ModDown
    /// hoisting optimization, which applies plaintext constants while the
    /// ciphertext still lives in the raised basis.
    ///
    /// # Errors
    ///
    /// Same as [`Encoder::encode`].
    pub fn encode_raised(
        &self,
        values: &[Complex],
        ell: usize,
        scale: f64,
    ) -> Result<Plaintext, EncodeError> {
        let basis = self.ctx.raised_basis(ell).clone();
        self.encode_in_basis(values, basis, scale)
    }

    fn encode_in_basis(
        &self,
        values: &[Complex],
        basis: Arc<RnsBasis>,
        scale: f64,
    ) -> Result<Plaintext, EncodeError> {
        let slots = self.ctx.params().slots();
        if values.len() > slots {
            return Err(EncodeError::TooManyValues {
                given: values.len(),
                slots,
            });
        }
        let mut half = vec![Complex::default(); slots];
        half[..values.len()].copy_from_slice(values);
        self.fft.inverse(&mut half);
        let n = self.ctx.params().degree();
        let mut coeffs = vec![0i64; n];
        let limit = (1i64 << 62) as f64;
        for (j, c) in half.iter().enumerate() {
            let re = (c.re * scale).round();
            let im = (c.im * scale).round();
            if re.abs() >= limit || im.abs() >= limit {
                return Err(EncodeError::CoefficientOverflow(re.abs().max(im.abs())));
            }
            coeffs[j] = re as i64;
            coeffs[j + slots] = im as i64;
        }
        let mut poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        poly.to_eval();
        poly.set_operand_class(fhe_math::telemetry::OperandClass::Plaintext);
        Ok(Plaintext { poly, scale })
    }

    /// Decodes a plaintext back to its complex slot values.
    pub fn decode(&self, pt: &Plaintext) -> Vec<Complex> {
        let mut poly = pt.poly.clone();
        poly.to_coeff();
        self.decode_poly(&poly, pt.scale)
    }

    /// Decodes a raw polynomial (coefficient or evaluation representation)
    /// at an explicit scale — diagnostics and bootstrapping internals.
    pub fn decode_poly(&self, poly: &RnsPoly, scale: f64) -> Vec<Complex> {
        let mut p = poly.clone();
        if p.representation() == Representation::Evaluation {
            p.to_coeff();
        }
        let slots = self.ctx.params().slots();
        let mut half = vec![Complex::default(); slots];
        for j in 0..slots {
            let re = p.coeff_centered(j).to_f64() / scale;
            let im = p.coeff_centered(j + slots).to_f64() / scale;
            half[j] = Complex::new(re, im);
        }
        self.fft.forward(&mut half);
        half
    }

    /// Slot count.
    pub fn slots(&self) -> usize {
        self.ctx.params().slots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParams::builder()
                .log_degree(6)
                .levels(3)
                .scale_bits(36)
                .first_modulus_bits(42)
                .dnum(3)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn roundtrip_complex_values() {
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let values: Vec<Complex> = (0..enc.slots())
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let pt = enc.encode(&values, 3, ctx.params().scale()).unwrap();
        let back = enc.decode(&pt);
        for (a, b) in back.iter().zip(&values) {
            assert!((*a - *b).abs() < 1e-7, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn roundtrip_partial_vector_pads_with_zeros() {
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let values = [Complex::new(1.5, -2.5), Complex::new(0.25, 0.0)];
        let pt = enc.encode(&values, 1, ctx.params().scale()).unwrap();
        let back = enc.decode(&pt);
        assert!((back[0] - values[0]).abs() < 1e-7);
        assert!((back[1] - values[1]).abs() < 1e-7);
        for v in &back[2..] {
            assert!(v.abs() < 1e-7);
        }
    }

    #[test]
    fn encode_rejects_too_many_values() {
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let values = vec![Complex::new(1.0, 0.0); enc.slots() + 1];
        assert!(matches!(
            enc.encode(&values, 1, ctx.params().scale()),
            Err(EncodeError::TooManyValues { .. })
        ));
    }

    #[test]
    fn encode_rejects_overflowing_scale() {
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let values = [Complex::new(1e30, 0.0)];
        assert!(matches!(
            enc.encode(&values, 1, 2f64.powi(40)),
            Err(EncodeError::CoefficientOverflow(_))
        ));
    }

    #[test]
    fn encoding_respects_slotwise_multiplication() {
        // encode(a) * encode(b) (ring product) decodes to a ⊙ b at scale Δ².
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let slots = enc.slots();
        let a: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(1.0 + i as f64 / slots as f64, 0.3))
            .collect();
        let b: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(0.5, -(i as f64) / slots as f64))
            .collect();
        let scale = ctx.params().scale();
        let mut pa = enc.encode(&a, 2, scale).unwrap();
        let pb = enc.encode(&b, 2, scale).unwrap();
        pa.poly.mul_assign_pointwise(&pb.poly);
        pa.scale = scale * scale;
        let back = enc.decode(&pa);
        for i in 0..slots {
            let expect = a[i] * b[i];
            assert!((back[i] - expect).abs() < 1e-5, "slot {i}");
        }
    }

    #[test]
    fn raised_encoding_matches_standard_on_q_limbs() {
        let ctx = ctx();
        let enc = Encoder::new(ctx.clone());
        let values = [Complex::new(0.75, 0.1)];
        let scale = ctx.params().scale();
        let std = enc.encode(&values, 2, scale).unwrap();
        let raised = enc.encode_raised(&values, 2, scale).unwrap();
        assert_eq!(raised.limb_count(), 2 + ctx.params().special_limbs());
        for i in 0..2 {
            assert_eq!(std.poly().limb(i), raised.poly().limb(i));
        }
    }
}
