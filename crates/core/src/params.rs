//! CKKS scheme parameters as the simulator sees them (Table 1 of the
//! paper), plus the security constraint that bounds the parameter search.

use std::fmt;

/// Bytes per machine word (all limb coefficients are ≤ 64-bit).
pub const WORD_BYTES: u64 = 8;

/// A CKKS parameter point for cost simulation.
///
/// Unlike the functional library's `CkksParams`, these are *shape*
/// parameters only — no primes are generated. `limbs` is the paper's `L`
/// (ciphertext limb count after the initial `ModUp` in `Bootstrap`; Table 5
/// calls it the "L parameter").
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeParams {
    /// `log2 N` — polynomial degree exponent (paper: 17).
    pub log_n: u32,
    /// Bit width of one limb prime `q` (paper baseline: 54).
    pub log_q: u32,
    /// Ciphertext limb count `L` at the top of the chain.
    pub limbs: usize,
    /// Key-switching digit count `dnum`.
    pub dnum: usize,
    /// Iterations of `PtMatVecMult` per DFT phase in bootstrapping
    /// (`fftIter`).
    pub fft_iter: usize,
}

impl fmt::Debug for SchemeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SchemeParams(N=2^{}, logq={}, L={}, dnum={}, fftIter={})",
            self.log_n, self.log_q, self.limbs, self.dnum, self.fft_iter
        )
    }
}

impl SchemeParams {
    /// The paper's baseline parameter set (Table 5, row 1 — Jung et al.).
    pub fn baseline() -> Self {
        Self {
            log_n: 17,
            log_q: 54,
            limbs: 35,
            dnum: 3,
            fft_iter: 3,
        }
    }

    /// The paper's MAD-optimal parameter set (Table 5, row 2).
    pub fn mad_optimal() -> Self {
        Self {
            log_n: 17,
            log_q: 50,
            limbs: 40,
            dnum: 2,
            fft_iter: 6,
        }
    }

    /// The Table-5 optimum adjusted to `dnum = 3`: the paper runs its
    /// `dnum = 2` set in 32 MB, but under this crate's stricter cache
    /// requirement (`2α + 3` limbs for the α-limb optimization, exactly
    /// the formula §3.1 quotes) `dnum = 2` needs 45 MB; `dnum = 3` keeps
    /// `α = 14` (31 MB) so the full caching ladder engages at 32 MB.
    pub fn mad_practical() -> Self {
        Self {
            log_n: 17,
            log_q: 50,
            limbs: 40,
            dnum: 3,
            fft_iter: 6,
        }
    }

    /// Ring degree `N`.
    pub fn degree(&self) -> u64 {
        1u64 << self.log_n
    }

    /// Plaintext slots `n = N/2`.
    pub fn slots(&self) -> u64 {
        self.degree() / 2
    }

    /// Limbs per key-switching digit: `α = ⌈(L+1)/dnum⌉` (paper Table 1).
    pub fn alpha(&self) -> usize {
        (self.limbs + 1).div_ceil(self.dnum)
    }

    /// Special-basis limb count `k = α` (Han–Ki hybrid key switching).
    pub fn special_limbs(&self) -> usize {
        self.alpha()
    }

    /// Digits at limb count `ell`: `β = ⌈(ℓ+1)/α⌉` capped at `dnum`.
    pub fn beta_at(&self, ell: usize) -> usize {
        (ell + 1).div_ceil(self.alpha()).min(self.dnum)
    }

    /// Bytes of one limb of one ring element: `N · 8`.
    pub fn limb_bytes(&self) -> u64 {
        self.degree() * WORD_BYTES
    }

    /// One limb in MiB (exactly 1.0 at `N = 2^17` — the paper's "~1 MB
    /// limb"). Cache sizes throughout are interpreted in MiB so the
    /// paper's `2α + 3 = 27 MB` working set fits its 32 MB budget.
    pub fn limb_mib(&self) -> f64 {
        self.limb_bytes() as f64 / (1u64 << 20) as f64
    }

    /// Bytes of a full ciphertext at limb count `ell`: `2·N·ℓ` words.
    pub fn ciphertext_bytes(&self, ell: usize) -> u64 {
        2 * self.limb_bytes() * ell as u64
    }

    /// Bytes of one switching key (uncompressed): `2 · dnum` polynomials
    /// over `Q ∪ P`.
    pub fn switching_key_bytes(&self) -> u64 {
        2 * self.dnum as u64 * self.limb_bytes() * (self.limbs + self.special_limbs()) as u64
    }

    /// Butterflies in one limb NTT: `(N/2)·log2 N`.
    pub fn ntt_butterflies(&self) -> u64 {
        (self.degree() / 2) * self.log_n as u64
    }

    /// Modular operations (1 mult + 2 adds per butterfly) in one limb NTT.
    pub fn ntt_ops(&self) -> u64 {
        3 * self.ntt_butterflies()
    }

    /// Total modulus bits `log2(QP)` including the special basis.
    pub fn log_qp(&self) -> u32 {
        self.log_q * (self.limbs + self.special_limbs()) as u32
    }

    /// True if `log2(QP)` respects the 128-bit-security bound for this
    /// ring degree.
    pub fn is_secure_128(&self) -> bool {
        self.log_qp() <= max_log_qp_128(self.log_n)
    }
}

/// Maximum `log2(QP)` for 128-bit security at ring degree `2^log_n`
/// (ternary secret, HE-standard table; the `2^17` entry follows the
/// accelerator papers' usage of ≈2240-bit moduli at `N = 2^17`).
pub fn max_log_qp_128(log_n: u32) -> u32 {
    match log_n {
        0..=11 => 54,
        12 => 109,
        13 => 218,
        14 => 438,
        15 => 881,
        16 => 1761,
        17 => 3524,
        _ => 3524 + (log_n - 17) * 1760,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_derived_values() {
        let p = SchemeParams::baseline();
        assert_eq!(p.degree(), 1 << 17);
        assert_eq!(p.slots(), 1 << 16);
        assert_eq!(p.alpha(), 12);
        assert_eq!(p.special_limbs(), 12);
        assert_eq!(p.beta_at(35), 3);
        assert_eq!(p.beta_at(12), 2); // ⌈13/12⌉
        assert_eq!(p.beta_at(11), 1);
        // One limb ≈ 1 MB (the paper's §3.1: "the size of a ciphertext
        // limb is ~1 MB").
        assert_eq!(p.limb_bytes(), 1 << 20);
        // Full ciphertext ≈ 73.4 MB (paper §2.2: ~73.4 MB at L = 35).
        let ct_mb = p.ciphertext_bytes(35) as f64 / 1e6;
        assert!((ct_mb - 73.4).abs() < 0.1, "{ct_mb}");
    }

    #[test]
    fn mad_optimal_derived_values() {
        let p = SchemeParams::mad_optimal();
        assert_eq!(p.alpha(), 21); // ⌈41/2⌉
        assert_eq!(p.beta_at(40), 2);
    }

    #[test]
    fn ntt_op_counts() {
        let p = SchemeParams::baseline();
        assert_eq!(p.ntt_butterflies(), (1 << 16) * 17);
        assert_eq!(p.ntt_ops(), 3 * (1 << 16) * 17);
    }

    #[test]
    fn security_bound_monotone_in_degree() {
        for log_n in 12..17 {
            assert!(max_log_qp_128(log_n) < max_log_qp_128(log_n + 1));
        }
        // The baseline is secure; an absurdly deep chain is not.
        assert!(SchemeParams::baseline().is_secure_128());
        let deep = SchemeParams {
            limbs: 80,
            ..SchemeParams::baseline()
        };
        assert!(!deep.is_secure_128());
    }

    #[test]
    fn key_sizes() {
        let p = SchemeParams::baseline();
        // 2 · 3 digits · 47 limbs · 1 MB ≈ 295 MB.
        let mb = p.switching_key_bytes() as f64 / 1e6;
        assert!((mb - 295.7).abs() < 1.0, "{mb}");
    }
}
