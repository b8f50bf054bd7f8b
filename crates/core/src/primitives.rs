//! The per-primitive cost model: modular-operation counts and DRAM
//! traffic for every CKKS primitive of Table 2 plus the key-switching
//! sub-operations (`Decomp`, `ModUp`, `KSKInnerProd`, `ModDown`).
//!
//! Compute counts follow the paper's convention (modular mults and adds;
//! an NTT butterfly is one mult and two adds). Where the functional
//! library executes something else — the inverse transform's `N⁻¹`
//! scaling, the exact conversion's overflow correction and the centring of
//! a `ModDown` on top; no `Decomp` constants and no single-source `NewLimb`
//! products — the difference is carried beside them as the signed
//! [`Cost::aux_mults`] / [`Cost::aux_adds`], outside [`Cost::ops`].
//!
//! DRAM traffic is counted at limb granularity and depends on the
//! [`CachingLevel`]:
//!
//! - `Baseline`: every sub-operation is a separate pass — each limb it
//!   touches is read from and written to DRAM (Figure 1a).
//! - `OneLimb`: consecutive *limb-wise* sub-operations are fused into one
//!   pass over each limb (Figure 1b); slot-wise conversions still
//!   round-trip.
//! - `AlphaLimbs`: the slot-wise `NewLimb` conversions happen on-chip —
//!   source limbs are read once, generated limbs are NTT'd in-cache and
//!   written once.
//! - `LimbReorder`: additionally, limbs destined to be dropped by a
//!   following `ModDown` are consumed on the fly and never written out.
//!
//! (`BetaLimbs` acts at the `PtMatVecMult` level — see [`crate::matvec`].)

use crate::cost::Cost;
use crate::opts::{CachingLevel, MadConfig};
use crate::params::SchemeParams;

/// Cost model bound to a parameter set and a MAD configuration.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Scheme shape parameters.
    pub params: SchemeParams,
    /// MAD optimization configuration.
    pub config: MadConfig,
}

impl CostModel {
    /// Creates a model.
    pub fn new(params: SchemeParams, config: MadConfig) -> Self {
        Self { params, config }
    }

    #[inline]
    fn n(&self) -> u64 {
        self.params.degree()
    }

    #[inline]
    fn limb(&self) -> u64 {
        self.params.limb_bytes()
    }

    #[inline]
    fn fused(&self) -> bool {
        self.config.caches_at_least(CachingLevel::OneLimb)
    }

    #[inline]
    fn on_chip_conversion(&self) -> bool {
        self.config.caches_at_least(CachingLevel::AlphaLimbs)
    }

    #[inline]
    fn reorder(&self) -> bool {
        self.config.caches_at_least(CachingLevel::LimbReorder)
    }

    /// One forward limb NTT: its butterflies, counted as one transform.
    pub fn ntt_limb_ops(&self) -> Cost {
        let b = self.params.ntt_butterflies();
        Cost {
            ntt_fwd: 1,
            ..Cost::compute(b, 2 * b)
        }
    }

    /// One inverse limb NTT: the butterflies, and executed on top of them
    /// the `N⁻¹` scaling of every coefficient.
    pub(crate) fn intt_limb_ops(&self) -> Cost {
        let b = self.params.ntt_butterflies();
        Cost {
            ntt_inv: 1,
            ..Cost::compute(b, 2 * b) + Cost::aux(self.n() as i64, 0)
        }
    }

    /// Ops of the slot-wise `NewLimb` conversion from `src` limbs into
    /// `dst` new limbs (Eq. 1): per coefficient, `src` mults to form the
    /// `y_i`, then `src` mults + `src` adds per target limb — and,
    /// executed on top, one multiply-subtract per target limb taking off
    /// the overflow multiple of the source modulus (the conversion is
    /// exact).
    pub fn newlimb_ops(&self, src: usize, dst: usize) -> Cost {
        let n = self.n();
        let (s, d) = (src as u64, dst as u64);
        let correction = (n * d) as i64;
        Cost::compute(n * (s + s * d), n * s * d) + Cost::aux(correction, correction)
    }

    /// `PtAdd` (Table 2): adds a plaintext to `c_0` only.
    pub fn pt_add(&self, ell: usize) -> Cost {
        let l = ell as u64;
        Cost {
            adds: self.n() * l,
            ct_read: 2 * l * self.limb(), // c_0 + plaintext
            ct_write: l * self.limb(),
            ..Cost::ZERO
        }
    }

    /// `Add` (Table 2).
    pub fn add(&self, ell: usize) -> Cost {
        let l = ell as u64;
        Cost {
            adds: 2 * self.n() * l,
            ct_read: 4 * l * self.limb(),
            ct_write: 2 * l * self.limb(),
            ..Cost::ZERO
        }
    }

    /// `Automorph`: a pure permutation — zero arithmetic, full ciphertext
    /// traffic (Table 4 charges it 0.1468 GB at ℓ = 35). When fused
    /// (O(1)-limb caching), the permutation rides along a neighbouring
    /// pass and costs nothing extra.
    pub fn automorph(&self, ell: usize, standalone: bool) -> Cost {
        if !standalone && self.fused() {
            return Cost::ZERO;
        }
        let l = ell as u64;
        Cost {
            ct_read: 2 * l * self.limb(),
            ct_write: 2 * l * self.limb(),
            ..Cost::ZERO
        }
    }

    /// `Decomp`: splits one polynomial into β digits, multiplying by the
    /// decomposition constants (2 mults per coefficient). Fusable. The
    /// library folds the constants into the switching key and executes
    /// none of them.
    pub fn decomp(&self, ell: usize) -> Cost {
        let l = ell as u64;
        let traffic = if self.fused() { 0 } else { 2 * l * self.limb() };
        Cost {
            mults: 2 * self.n() * l,
            aux_mults: -((2 * self.n() * l) as i64),
            ct_read: traffic / 2,
            ct_write: traffic / 2,
            ..Cost::ZERO
        }
    }

    /// `ModUp` of one key-switching digit of `digit_limbs` limbs to the
    /// raised basis of `ell + k` limbs (Algorithm 1).
    pub fn mod_up_digit(&self, ell: usize, digit_limbs: usize) -> Cost {
        let k = self.params.special_limbs();
        let total = ell + k;
        let new = total - digit_limbs;
        let mut c = self.intt_limb_ops() * digit_limbs as u64; // iNTT digit
        c += self.newlimb_ops(digit_limbs, new);
        c += self.ntt_limb_ops() * new as u64; // NTT generated limbs
        if digit_limbs == 0 {
            // `β = ⌈(ℓ+1)/α⌉` counts a digit of no limbs where
            // `ℓ ≤ (β−1)·α`: priced like any other, and raising nothing.
            c += Cost::aux(-(c.executed_mults() as i64), -(c.executed_adds() as i64));
            (c.ntt_fwd, c.ntt_inv) = (0, 0);
        }
        let limb = self.limb();
        let (d, nw) = (digit_limbs as u64, new as u64);
        if self.on_chip_conversion() {
            // Read the digit once; generate + NTT new limbs on-chip and
            // write them once.
            c.ct_read += d * limb;
            c.ct_write += nw * limb;
        } else {
            // iNTT pass (r+w digit), slot-wise NewLimb (read digit, write
            // new limbs in slot format), NTT pass (r+w new limbs).
            c.ct_read += (2 * d + nw) * limb;
            c.ct_write += (d + 2 * nw) * limb;
        }
        c
    }

    /// `KSKInnerProd`: multiply-accumulate `β` raised digits against the
    /// switching key (2 polynomials each), producing the raised pair
    /// `(û, v̂)`.
    ///
    /// `digit_reads_charged` lets callers that keep digits cached across
    /// rotations (β-limb caching in `PtMatVecMult`) charge the digit
    /// traffic once instead of per call. `write_output` is false when the
    /// raised pair is consumed immediately by a fused accumulator (ModDown
    /// hoisting) and never touches DRAM.
    pub fn ksk_inner_product(
        &self,
        ell: usize,
        beta: usize,
        digit_reads_charged: bool,
        write_output: bool,
    ) -> Cost {
        let k = self.params.special_limbs();
        let w = (ell + k) as u64;
        let b = beta as u64;
        let mut c = Cost::compute(2 * w * self.n() * b, 2 * w * self.n() * (b - 1));
        // A digit of no limbs (see `mod_up_digit`) meets no key.
        let empty = (0..beta).filter(|&j| self.digit_width(ell, j) == 0).count();
        let unmet = -((2 * w * self.n() * empty as u64) as i64);
        c += Cost::aux(unmet, unmet);
        let limb = self.limb();
        if digit_reads_charged {
            c.ct_read += b * w * limb;
        }
        let key_bytes = 2 * (b - empty as u64) * w * limb;
        c.key_read += if self.config.algo.key_compression {
            key_bytes / 2
        } else {
            key_bytes
        };
        if write_output {
            // Output (û, v̂): with limb re-ordering the special limbs are
            // consumed by the following ModDown without a DRAM round-trip.
            let out_limbs = if self.reorder() {
                2 * ell as u64
            } else {
                2 * w
            };
            c.ct_write += out_limbs * limb;
        }
        c
    }

    /// `ModDown` from `ell + drop` limbs to `ell` (Algorithm 2), where
    /// `drop` is the special-limb count `k` (or `k + 1` when merged with
    /// `Rescale` — the paper's ModDown merge).
    pub fn mod_down(&self, ell: usize, drop: usize) -> Cost {
        let mut c = self.intt_limb_ops() * drop as u64; // iNTT dropped limbs
        c += self.newlimb_ops(drop, ell);
        c += self.ntt_limb_ops() * ell as u64; // NTT converted limbs
        c += Cost::compute(self.n() * ell as u64, self.n() * ell as u64); // combine

        // Centring (the division rounds, it does not floor): `⌊P/2⌋` added
        // to each dropped limb before the conversion and taken off each
        // converted limb after it.
        c += Cost::aux(0, (self.n() * (drop + ell) as u64) as i64);
        let limb = self.limb();
        let (l, d) = (ell as u64, drop as u64);
        if self.on_chip_conversion() {
            // Dropped limbs read once (or not at all with re-ordering,
            // when the producer kept them on-chip), originals read once,
            // output written once.
            if !self.reorder() {
                c.ct_read += d * limb;
            }
            c.ct_read += l * limb;
            c.ct_write += l * limb;
        } else if self.fused() {
            // iNTT pass on dropped limbs (r+w), slot-wise conversion
            // (read dropped, write converted), fused NTT+combine pass
            // (read converted + originals, write output).
            c.ct_read += (2 * d + 2 * l) * limb;
            c.ct_write += (d + 2 * l) * limb;
        } else {
            // Separate NTT and combine passes.
            c.ct_read += (2 * d + 3 * l) * limb;
            c.ct_write += (d + 3 * l) * limb;
        }
        c
    }

    /// `Rescale`: drop the last limb, dividing by it (the `ModDown`
    /// specialization with a single dropped limb and no special basis).
    /// From one source limb the library's conversion is a centred
    /// reduction into each kept modulus: the adds of Eq. 1 and none of its
    /// products.
    pub fn rescale(&self, ell: usize) -> Cost {
        assert!(ell >= 2, "rescale needs a limb to drop");
        // Two polynomials.
        let per_poly = {
            let l1 = (ell - 1) as u64;
            let products = self.n() * (1 + l1);
            let mut c = self.intt_limb_ops(); // iNTT dropped limb
            c += Cost::compute(products, self.n() * l1) + Cost::aux(-(products as i64), 0);
            c += self.ntt_limb_ops() * l1;
            c += Cost::compute(self.n() * l1, self.n() * l1); // combine
            let limb = self.limb();
            if self.fused() {
                c.ct_read += (1 + l1) * limb;
                c.ct_write += l1 * limb;
            } else {
                c.ct_read += (2 + 2 * l1) * limb;
                c.ct_write += (1 + 2 * l1) * limb;
            }
            c
        };
        per_poly * 2
    }

    /// `PtMult` without the trailing rescale: 2·N·ℓ mults, reads both
    /// ciphertext polynomials and the plaintext, writes both.
    pub fn pt_mult_no_rescale(&self, ell: usize) -> Cost {
        let l = ell as u64;
        Cost {
            mults: 2 * self.n() * l,
            ct_read: 2 * l * self.limb(),
            pt_read: l * self.limb(),
            ct_write: 2 * l * self.limb(),
            ..Cost::ZERO
        }
    }

    /// `PtMult` (Table 2): plaintext multiplication + `Rescale`.
    pub fn pt_mult(&self, ell: usize) -> Cost {
        self.pt_mult_no_rescale(ell) + self.rescale(ell)
    }

    /// The full `KeySwitch` (Algorithm 3) on one polynomial at `ell`
    /// limbs: `Decomp`, β `ModUp`s, the inner product and two `ModDown`s.
    pub fn keyswitch(&self, ell: usize) -> Cost {
        let beta = self.params.beta_at(ell);
        let mut c = self.decomp(ell);
        for j in 0..beta {
            c += self.mod_up_digit(ell, self.digit_width(ell, j));
        }
        c += self.ksk_inner_product(ell, beta, true, true);
        c += self.mod_down(ell, self.params.special_limbs()) * 2;
        c
    }

    /// Limbs in digit `j` at limb count `ell`.
    pub fn digit_width(&self, ell: usize, j: usize) -> usize {
        let alpha = self.params.alpha();
        ((j + 1) * alpha).min(ell) - (j * alpha).min(ell)
    }

    /// `Mult` (Table 2): tensor, relinearize, rescale — by the standard
    /// sequence ([`CostModel::mult_standard`], Figure 4a) or, when the
    /// configuration enables the ModDown merge, the merged one
    /// ([`CostModel::mult_merged`], Figure 4c).
    pub fn mult(&self, ell: usize) -> Cost {
        if self.config.algo.moddown_merge {
            self.mult_merged(ell)
        } else {
            self.mult_standard(ell)
        }
    }

    /// What both `Mult` sequences start with: the tensor product, then
    /// `Decomp`, the β `ModUp`s and the inner product on `d_2`.
    fn mult_raised(&self, ell: usize) -> Cost {
        let l = ell as u64;
        let n = self.n();
        let limb = self.limb();
        // Tensor: d0, d1 (two products + add), d2 — 4 products, 1 add.
        let mut c = Cost {
            mults: 4 * n * l,
            adds: n * l,
            ct_read: 4 * l * limb,
            ct_write: 3 * l * limb,
            ..Cost::ZERO
        };
        let beta = self.params.beta_at(ell);
        c += self.decomp(ell);
        for j in 0..beta {
            c += self.mod_up_digit(ell, self.digit_width(ell, j));
        }
        c + self.ksk_inner_product(ell, beta, true, true)
    }

    /// `Mult` by the standard sequence (Figure 4a): the key switch's own
    /// `ModDown` pair, the additions over `Q_ℓ`, then a separate `Rescale`.
    pub fn mult_standard(&self, ell: usize) -> Cost {
        let l = ell as u64;
        let mut c = self.mult_raised(ell);
        c += self.mod_down(ell, self.params.special_limbs()) * 2;
        // Add (v, u) into (d0, d1): read both, write both.
        c += Cost {
            adds: 2 * self.n() * l,
            ct_read: 4 * l * self.limb(),
            ct_write: 2 * l * self.limb(),
            ..Cost::ZERO
        };
        c + self.rescale(ell)
    }

    /// `Mult` with the ModDown merge (Figure 4c): `PModUp` lifts `d_0` and
    /// `d_1` for free (ℓ scalar mults each) into additions in the raised
    /// basis, and one `ModDown` per component drops `k + 1` limbs — the
    /// relinearization `ModDown` and the `Rescale` fused, saving roughly
    /// `ℓ` NTTs per component and one orientation switch. This is the
    /// sequence the functional library's `Mult` runs.
    pub fn mult_merged(&self, ell: usize) -> Cost {
        let l = ell as u64;
        let mut c = self.mult_raised(ell);
        c += Cost {
            mults: 2 * self.n() * l,
            adds: 2 * self.n() * l,
            ct_read: 2 * l * self.limb(), // d0, d1 re-read into the merge
            ..Cost::ZERO
        };
        c + self.mod_down(ell - 1, self.params.special_limbs() + 1) * 2
    }

    /// `Rotate`/`Conjugate` (Table 2): automorphism + `KeySwitch` + the
    /// final addition of `σ(c_0)`.
    pub fn rotate(&self, ell: usize) -> Cost {
        let l = ell as u64;
        let limb = self.limb();
        // The automorphism on c1 fuses into the Decomp/iNTT pass under
        // O(1)-limb caching (the paper's Figure 1 worked example); on c0
        // it fuses into the final addition.
        let mut c = self.automorph(ell, false);
        c += self.keyswitch(ell);
        c += Cost {
            adds: self.n() * l,
            ct_read: 2 * l * limb, // σ(c0) + v
            ct_write: l * limb,
            ..Cost::ZERO
        };
        c
    }

    /// The limb reads+writes of the Figure-1 worked example: the
    /// pre-`NewLimb` phase of `Rotate` (Automorph, Decomp, iNTT) over a
    /// single polynomial of `ell` limbs. Naive: three passes; O(1)-limb:
    /// one fused pass.
    pub fn rotate_prefix_limb_accesses(&self, ell: usize) -> (u64, u64) {
        let passes = if self.fused() { 1 } else { 3 };
        (passes * ell as u64, passes * ell as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::AlgoOpts;

    fn model(caching: CachingLevel) -> CostModel {
        CostModel::new(
            SchemeParams::baseline(),
            MadConfig {
                caching,
                algo: AlgoOpts {
                    modup_hoist: true,
                    ..AlgoOpts::none()
                },
            },
        )
    }

    fn gops(c: Cost) -> f64 {
        c.ops() as f64 / 1e9
    }

    fn gb(c: Cost) -> f64 {
        c.dram_total() as f64 / 1e9
    }

    fn assert_within(got: f64, want: f64, tol: f64, what: &str) {
        assert!(
            (got / want - 1.0).abs() < tol,
            "{what}: got {got:.4}, paper reports {want:.4} ({:+.1}%)",
            (got / want - 1.0) * 100.0
        );
    }

    // ===== Calibration against Table 4 (ℓ = 35, dnum = 3, small cache) ===

    #[test]
    fn table4_pt_add() {
        let m = model(CachingLevel::OneLimb);
        let c = m.pt_add(35);
        assert_within(gops(c), 0.0046, 0.02, "PtAdd ops");
        assert_within(gb(c), 0.1101, 0.02, "PtAdd DRAM");
    }

    #[test]
    fn table4_add() {
        let m = model(CachingLevel::OneLimb);
        let c = m.add(35);
        assert_within(gops(c), 0.0092, 0.02, "Add ops");
        assert_within(gb(c), 0.2202, 0.02, "Add DRAM");
    }

    #[test]
    fn table4_pt_mult() {
        let m = model(CachingLevel::OneLimb);
        let c = m.pt_mult(35);
        assert_within(gops(c), 0.2747, 0.10, "PtMult ops");
        assert_within(gb(c), 0.3282, 0.10, "PtMult DRAM");
    }

    #[test]
    fn table4_decomp() {
        let m = model(CachingLevel::Baseline);
        let c = m.decomp(35);
        assert_within(gops(c), 0.0092, 0.02, "Decomp ops");
        assert_within(gb(c), 0.0734, 0.02, "Decomp DRAM");
    }

    #[test]
    fn table4_mod_up() {
        let m = model(CachingLevel::OneLimb);
        let c = m.mod_up_digit(35, 12);
        assert_within(gops(c), 0.2847, 0.10, "ModUp ops");
        assert_within(gb(c), 0.1510, 0.10, "ModUp DRAM");
    }

    #[test]
    fn table4_ksk_inner_product() {
        let m = model(CachingLevel::OneLimb);
        let c = m.ksk_inner_product(35, 3, true, true);
        assert_within(gops(c), 0.0629, 0.05, "KSKInnerProd ops");
        assert_within(gb(c), 0.4530, 0.20, "KSKInnerProd DRAM");
    }

    #[test]
    fn table4_mod_down() {
        let m = model(CachingLevel::OneLimb);
        let c = m.mod_down(35, 12);
        assert_within(gops(c), 0.3000, 0.10, "ModDown ops");
        assert_within(gb(c), 0.1877, 0.10, "ModDown DRAM");
    }

    #[test]
    fn table4_mult() {
        let m = model(CachingLevel::OneLimb);
        let c = m.mult(35);
        assert_within(gops(c), 1.8333, 0.10, "Mult ops");
        assert_within(gb(c), 1.9293, 0.10, "Mult DRAM");
    }

    #[test]
    fn table4_automorph() {
        let m = model(CachingLevel::OneLimb);
        let c = m.automorph(35, true);
        assert_eq!(c.ops(), 0);
        assert_within(gb(c), 0.1468, 0.02, "Automorph DRAM");
    }

    #[test]
    fn table4_rotate() {
        let m = model(CachingLevel::OneLimb);
        let c = m.rotate(35);
        assert_within(gops(c), 1.5310, 0.10, "Rotate ops");
        assert_within(gb(c), 1.5645, 0.15, "Rotate DRAM");
    }

    // ===== Structural properties =====

    #[test]
    fn figure1_rotate_worked_example() {
        // Naive: 105 reads + 105 writes; O(1)-limb: 35 + 35 (Figure 1).
        let naive = model(CachingLevel::Baseline);
        assert_eq!(naive.rotate_prefix_limb_accesses(35), (105, 105));
        let fused = model(CachingLevel::OneLimb);
        assert_eq!(fused.rotate_prefix_limb_accesses(35), (35, 35));
    }

    #[test]
    fn caching_never_increases_traffic() {
        let mut last = u64::MAX;
        for lvl in CachingLevel::ALL {
            let m = model(lvl);
            let total = m.mult(35).dram_total() + m.rotate(35).dram_total();
            assert!(total <= last, "{lvl} increased traffic");
            last = total;
        }
    }

    #[test]
    fn caching_preserves_compute() {
        // §3.1: "the caching optimizations do not impact the number of
        // operations".
        let base_ops = model(CachingLevel::Baseline).rotate(35).ops();
        for lvl in CachingLevel::ALL {
            assert_eq!(model(lvl).rotate(35).ops(), base_ops, "{lvl}");
        }
    }

    #[test]
    fn corrections_sit_beside_the_paper_convention() {
        let m = model(CachingLevel::OneLimb);
        let n = 1i64 << 17;
        // Executed on top of the formulas: N per inverse transform, N mults
        // and N adds per converted limb, N adds per centred limb.
        let up = m.mod_up_digit(35, 12);
        assert_eq!((up.aux_mults, up.aux_adds), (n * (12 + 35), n * 35));
        let down = m.mod_down(35, 12);
        assert_eq!(
            (down.aux_mults, down.aux_adds),
            (n * (12 + 35), n * (35 + 47))
        );
        // Counted and not executed: Decomp's constants, the products of
        // Rescale's single-source conversion (net of its inverse NTT).
        assert_eq!(m.decomp(35).executed_mults(), 0);
        let rescale = m.rescale(35);
        assert_eq!((rescale.aux_mults, rescale.aux_adds), (-2 * n * 34, 0));
        // ℓ = 24 = 2α: β = 3 counts a third digit, of no limbs.
        let empty = m.mod_up_digit(24, 0);
        assert!(empty.ops() > 0);
        assert_eq!((empty.executed_mults(), empty.executed_adds()), (0, 0));
        assert_eq!((empty.ntt_fwd, empty.ntt_inv), (0, 0));
        let (three, two) = (
            m.ksk_inner_product(24, 3, true, true),
            m.ksk_inner_product(24, 2, true, true),
        );
        assert!(three.ops() > two.ops());
        assert_eq!(three.executed_mults(), two.executed_mults());
        assert_eq!(three.executed_adds(), two.executed_adds());
    }

    #[test]
    fn transforms_are_counted_where_they_run() {
        let m = model(CachingLevel::OneLimb);
        let k = m.params.special_limbs() as u64;
        let t = |c: Cost| (c.ntt_fwd, c.ntt_inv);
        assert_eq!(t(m.mod_up_digit(35, 12)), (35 + k - 12, 12));
        assert_eq!(t(m.mod_down(35, 12)), (35, 12));
        assert_eq!(t(m.rescale(35)), (2 * 34, 2));
        // A key switch is its parts: three digits up, two ModDowns.
        assert_eq!(t(m.keyswitch(35)), (3 * (35 + k) - 35 + 2 * 35, 35 + 2 * k));
        // Caching moves bytes, never transforms.
        for lvl in CachingLevel::ALL {
            assert_eq!(t(model(lvl).rotate(35)), t(m.keyswitch(35)), "{lvl}");
        }
    }

    #[test]
    fn moddown_merge_reduces_compute_and_switches() {
        let p = SchemeParams::baseline();
        let plain = CostModel::new(
            p,
            MadConfig {
                caching: CachingLevel::LimbReorder,
                algo: AlgoOpts {
                    modup_hoist: true,
                    ..AlgoOpts::none()
                },
            },
        );
        let merged = CostModel::new(
            p,
            MadConfig {
                caching: CachingLevel::LimbReorder,
                algo: AlgoOpts {
                    modup_hoist: true,
                    moddown_merge: true,
                    ..AlgoOpts::none()
                },
            },
        );
        let a = plain.mult(35);
        let b = merged.mult(35);
        assert!(b.ops() < a.ops(), "merge must reduce compute");
        // The saving is in the right ballpark: one ModDown's worth of NTTs.
        let saving = (a.ops() - b.ops()) as f64 / a.ops() as f64;
        assert!(saving > 0.05 && saving < 0.35, "saving {saving}");
    }

    #[test]
    fn key_compression_halves_key_reads() {
        let p = SchemeParams::baseline();
        let plain = CostModel::new(p, MadConfig::baseline());
        let compressed = CostModel::new(
            p,
            MadConfig {
                caching: CachingLevel::Baseline,
                algo: AlgoOpts {
                    modup_hoist: true,
                    key_compression: true,
                    ..AlgoOpts::none()
                },
            },
        );
        let a = plain.keyswitch(35);
        let b = compressed.keyswitch(35);
        assert_eq!(b.key_read * 2, a.key_read);
        assert_eq!(b.ops(), a.ops());
    }

    /// At ℓ = 24 = 2α, `β_at` counts a third digit of no limbs: it meets
    /// no key, so no key bytes are charged for it.
    #[test]
    fn an_empty_digit_reads_no_key() {
        let m = model(CachingLevel::OneLimb);
        let (ell, k) = (24, m.params.special_limbs() as u64);
        assert_eq!(m.params.beta_at(ell), 3);
        let three = m.ksk_inner_product(ell, 3, true, true);
        let two = m.ksk_inner_product(ell, 2, true, true);
        assert_eq!(three.key_read, two.key_read);
        assert_eq!(three.key_read, 2 * 2 * (ell as u64 + k) * m.limb());
    }

    #[test]
    fn digit_widths_tile_level() {
        let m = model(CachingLevel::Baseline);
        // ℓ = 35, α = 12 → digits of 12, 12, 11.
        assert_eq!(m.digit_width(35, 0), 12);
        assert_eq!(m.digit_width(35, 1), 12);
        assert_eq!(m.digit_width(35, 2), 11);
        let total: usize = (0..3).map(|j| m.digit_width(35, j)).sum();
        assert_eq!(total, 35);
    }
}
