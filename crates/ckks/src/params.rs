//! CKKS scheme parameters (Table 1 of the MAD paper).
//!
//! A parameter set fixes the ring degree `N`, the ciphertext modulus chain
//! `Q = q_0·q_1⋯q_{L-1}`, the special (raised) modulus `P`, the scaling
//! factor `Δ`, and the key-switching digit count `dnum`. The derived values
//! `α = ⌈L/dnum⌉` (limbs per digit) and `β = ⌈ℓ/α⌉` (digits at the current
//! level) drive both the functional key switch and the `simfhe` cost model.

use fhe_math::rns::MAX_SOURCE_LIMBS;
use std::fmt;

/// Validated CKKS parameters.
///
/// Construct via [`CkksParams::builder`]:
///
/// ```
/// use ckks::params::CkksParams;
/// let params = CkksParams::builder()
///     .log_degree(6)
///     .levels(4)
///     .scale_bits(30)
///     .first_modulus_bits(36)
///     .dnum(2)
///     .build()
///     .unwrap();
/// assert_eq!(params.degree(), 64);
/// assert_eq!(params.alpha(), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CkksParams {
    log_degree: u32,
    levels: usize,
    scale_bits: u32,
    first_modulus_bits: u32,
    special_modulus_bits: u32,
    dnum: usize,
    error_tolerance: f64,
}

/// Error from [`CkksParamsBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// `log_degree` outside the supported range `[2, 17]`.
    BadDegree(u32),
    /// `levels` must be at least 1.
    NoLevels,
    /// A modulus bit size outside `[20, 60]`.
    BadModulusBits(u32),
    /// `dnum` must be in `[1, levels]`.
    BadDnum(usize),
    /// The digit width `α = ⌈levels/dnum⌉` exceeds
    /// [`MAX_SOURCE_LIMBS`], the widest basis a key switch extends from.
    DigitTooWide(usize),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::BadDegree(d) => write!(f, "log_degree {d} outside [2, 17]"),
            ParamsError::NoLevels => write!(f, "at least one level is required"),
            ParamsError::BadModulusBits(b) => write!(f, "modulus size {b} outside [20, 60]"),
            ParamsError::BadDnum(d) => write!(f, "dnum {d} outside [1, levels]"),
            ParamsError::DigitTooWide(a) => {
                write!(
                    f,
                    "digit of {a} limbs exceeds {MAX_SOURCE_LIMBS}; raise dnum"
                )
            }
        }
    }
}

impl std::error::Error for ParamsError {}

/// Builder for [`CkksParams`].
#[derive(Clone, Debug)]
pub struct CkksParamsBuilder {
    log_degree: u32,
    levels: usize,
    scale_bits: u32,
    first_modulus_bits: u32,
    special_modulus_bits: u32,
    dnum: usize,
    error_tolerance: f64,
}

impl Default for CkksParamsBuilder {
    fn default() -> Self {
        Self {
            log_degree: 12,
            levels: 6,
            scale_bits: 40,
            first_modulus_bits: 50,
            special_modulus_bits: 50,
            dnum: 3,
            error_tolerance: 1e-3,
        }
    }
}

impl CkksParamsBuilder {
    /// Sets `log2 N` (ring degree `N = 2^log_degree`; slots `= N/2`).
    pub fn log_degree(&mut self, v: u32) -> &mut Self {
        self.log_degree = v;
        self
    }

    /// Sets the number of ciphertext limbs `L` (the paper's maximum limb
    /// count; one multiplication consumes one level).
    pub fn levels(&mut self, v: usize) -> &mut Self {
        self.levels = v;
        self
    }

    /// Sets `log2 Δ`, the scaling-factor bit size (also the size of the
    /// rescaling primes `q_1 … q_{L-1}`).
    pub fn scale_bits(&mut self, v: u32) -> &mut Self {
        self.scale_bits = v;
        self
    }

    /// Sets the bit size of the first modulus `q_0` (larger than `Δ` to
    /// leave headroom for the final message magnitude).
    pub fn first_modulus_bits(&mut self, v: u32) -> &mut Self {
        self.first_modulus_bits = v;
        self
    }

    /// Sets the bit size of the special primes composing `P`.
    pub fn special_modulus_bits(&mut self, v: u32) -> &mut Self {
        self.special_modulus_bits = v;
        self
    }

    /// Sets the key-switching digit count `dnum`.
    pub fn dnum(&mut self, v: usize) -> &mut Self {
        self.dnum = v;
        self
    }

    /// Builds and validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] describing the first invalid field.
    pub fn build(&self) -> Result<CkksParams, ParamsError> {
        if !(2..=17).contains(&self.log_degree) {
            return Err(ParamsError::BadDegree(self.log_degree));
        }
        if self.levels == 0 {
            return Err(ParamsError::NoLevels);
        }
        for bits in [
            self.scale_bits,
            self.first_modulus_bits,
            self.special_modulus_bits,
        ] {
            if !(20..=60).contains(&bits) {
                return Err(ParamsError::BadModulusBits(bits));
            }
        }
        if self.dnum == 0 || self.dnum > self.levels {
            return Err(ParamsError::BadDnum(self.dnum));
        }
        let alpha = self.levels.div_ceil(self.dnum);
        if alpha > MAX_SOURCE_LIMBS {
            return Err(ParamsError::DigitTooWide(alpha));
        }
        Ok(CkksParams {
            log_degree: self.log_degree,
            levels: self.levels,
            scale_bits: self.scale_bits,
            first_modulus_bits: self.first_modulus_bits,
            special_modulus_bits: self.special_modulus_bits,
            dnum: self.dnum,
            error_tolerance: self.error_tolerance,
        })
    }
}

impl CkksParams {
    /// Starts a builder with library defaults (`N = 2^12`, 6 levels,
    /// `Δ = 2^40`, `dnum = 3`).
    pub fn builder() -> CkksParamsBuilder {
        CkksParamsBuilder::default()
    }

    /// `log2 N`.
    pub fn log_degree(&self) -> u32 {
        self.log_degree
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> usize {
        1 << self.log_degree
    }

    /// Plaintext slot count `n = N/2`.
    pub fn slots(&self) -> usize {
        self.degree() / 2
    }

    /// Maximum ciphertext limb count `L`.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The scaling factor `Δ = 2^scale_bits`.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// `log2 Δ`.
    pub fn scale_bits(&self) -> u32 {
        self.scale_bits
    }

    /// Bit size of `q_0`.
    pub fn first_modulus_bits(&self) -> u32 {
        self.first_modulus_bits
    }

    /// Bit size of each special prime.
    pub fn special_modulus_bits(&self) -> u32 {
        self.special_modulus_bits
    }

    /// Key-switching digit count `dnum`.
    pub fn dnum(&self) -> usize {
        self.dnum
    }

    /// Limbs per key-switching digit: `α = ⌈L / dnum⌉`.
    pub fn alpha(&self) -> usize {
        self.levels.div_ceil(self.dnum)
    }

    /// Digits needed at limb count `ell`: `β = ⌈ℓ / α⌉`.
    pub fn beta_at(&self, ell: usize) -> usize {
        ell.div_ceil(self.alpha())
    }

    /// Number of special limbs (`|P| = α`, the Han–Ki choice that bounds
    /// key-switch noise).
    pub fn special_limbs(&self) -> usize {
        self.alpha()
    }

    /// Relative error tolerance used by round-trip assertions in examples
    /// and tests.
    pub fn error_tolerance(&self) -> f64 {
        self.error_tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let p = CkksParams::builder().build().unwrap();
        assert_eq!(p.degree(), 4096);
        assert_eq!(p.slots(), 2048);
        assert_eq!(p.alpha(), 2);
        assert_eq!(p.special_limbs(), 2);
    }

    #[test]
    fn builder_rejects_bad_fields() {
        assert!(matches!(
            CkksParams::builder().log_degree(1).build(),
            Err(ParamsError::BadDegree(1))
        ));
        assert!(matches!(
            CkksParams::builder().levels(0).build(),
            Err(ParamsError::NoLevels)
        ));
        assert!(matches!(
            CkksParams::builder().scale_bits(10).build(),
            Err(ParamsError::BadModulusBits(10))
        ));
        assert!(matches!(
            CkksParams::builder().levels(3).dnum(4).build(),
            Err(ParamsError::BadDnum(4))
        ));
    }

    #[test]
    fn digits_wider_than_a_basis_extension_source_are_rejected() {
        assert_eq!(
            CkksParams::builder()
                .log_degree(4)
                .levels(70)
                .dnum(1)
                .build(),
            Err(ParamsError::DigitTooWide(70))
        );
        for (levels, dnum) in [(64, 1), (128, 2)] {
            let p = CkksParams::builder()
                .log_degree(4)
                .levels(levels)
                .dnum(dnum)
                .build()
                .unwrap();
            assert_eq!(p.alpha(), MAX_SOURCE_LIMBS);
        }
    }

    #[test]
    fn alpha_beta_match_paper_definitions() {
        // Paper example: L = 35 limbs + dnum = 3 → α = 12.
        let p = CkksParams::builder().levels(35).dnum(3).build().unwrap();
        assert_eq!(p.alpha(), 12);
        assert_eq!(p.beta_at(35), 3);
        assert_eq!(p.beta_at(12), 1);
        assert_eq!(p.beta_at(13), 2);
        assert_eq!(p.beta_at(1), 1);
    }

    #[test]
    fn scale_is_power_of_two() {
        let p = CkksParams::builder().scale_bits(30).build().unwrap();
        assert_eq!(p.scale(), (1u64 << 30) as f64);
    }
}
