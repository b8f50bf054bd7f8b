//! Cost model of the full CKKS bootstrapping pipeline (Algorithm 4):
//! ModRaise, CoeffToSlot (`fftIter` matrix products), the real/imaginary
//! split, EvalMod (approximate modular reduction), recombination, and
//! SlotToCoeff.
//!
//! The level schedule matches the published parameter sets: bootstrapping
//! consumes `2·fftIter + 2 + 7` limbs (7 for the sine evaluation), which
//! reproduces Table 6's `log Q_1` values — e.g. the GPU baseline
//! (`L = 35`, `fftIter = 3`, `log q = 54`) retains
//! `(35 − 15)·54 = 1080` bits, and the MAD set (`L = 40`, `fftIter = 6`,
//! `log q = 50`) retains `(40 − 21)·50 = 950` bits.

use crate::cost::Cost;
use crate::matvec::MatVecShape;
use crate::primitives::CostModel;

/// Limbs consumed by the sine (EvalMod) phase — one per multiplicative
/// level of the degree-~2⁷ double-angle Chebyshev evaluation used by the
/// works the paper compares against.
pub const EVAL_MOD_DEPTH: usize = 7;

/// Ciphertext `Mult` operations per level of one EvalMod evaluation
/// (baby-step/giant-step Chebyshev ladder plus double-angle steps).
const EVAL_MOD_MULTS_PER_LEVEL: [usize; EVAL_MOD_DEPTH] = [2, 3, 4, 4, 3, 2, 2];

/// Plaintext multiplications (coefficient applications) per EvalMod.
const EVAL_MOD_PT_MULTS: usize = 20;

/// Ciphertext additions per EvalMod.
const EVAL_MOD_ADDS: usize = 40;

/// The six phases of the bootstrapping pipeline, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootstrapPhase {
    /// Reinterpreting the exhausted ciphertext over the full chain.
    ModRaise,
    /// The homomorphic inverse DFT (`fftIter` matrix products).
    CoeffToSlot,
    /// Conjugation-based real/imaginary separation.
    Split,
    /// The scaled-sine approximate modular reduction (both halves).
    EvalMod,
    /// Reassembling `real + i·imag`.
    Recombine,
    /// The homomorphic forward DFT.
    SlotToCoeff,
}

impl BootstrapPhase {
    /// All phases in execution order.
    pub const ALL: [BootstrapPhase; 6] = [
        BootstrapPhase::ModRaise,
        BootstrapPhase::CoeffToSlot,
        BootstrapPhase::Split,
        BootstrapPhase::EvalMod,
        BootstrapPhase::Recombine,
        BootstrapPhase::SlotToCoeff,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BootstrapPhase::ModRaise => "ModRaise",
            BootstrapPhase::CoeffToSlot => "CoeffToSlot",
            BootstrapPhase::Split => "Split",
            BootstrapPhase::EvalMod => "EvalMod",
            BootstrapPhase::Recombine => "Recombine",
            BootstrapPhase::SlotToCoeff => "SlotToCoeff",
        }
    }
}

/// Outcome of simulating one bootstrapping operation.
#[derive(Clone, Copy, Debug)]
pub struct BootstrapCost {
    /// Total compute and DRAM cost.
    pub cost: Cost,
    /// Per-phase cost, indexed by [`BootstrapPhase::ALL`] order.
    pub phases: [Cost; 6],
    /// Limb-wise ↔ slot-wise orientation switches.
    pub orientation_switches: u64,
    /// Limbs consumed by the pipeline.
    pub levels_consumed: usize,
    /// Limbs remaining in the output ciphertext.
    pub output_limbs: usize,
    /// `log2 Q_1`: modulus bits immediately after bootstrapping
    /// (Table 6's column).
    pub log_q1: u32,
}

/// Splits `count` FFT stages into `groups` chunks, as evenly as possible
/// (larger chunks first) — the factorization of the homomorphic DFT.
pub fn chunk_stages(count: usize, groups: usize) -> Vec<usize> {
    let groups = groups.min(count).max(1);
    let base = count / groups;
    let extra = count % groups;
    (0..groups).map(|g| base + usize::from(g < extra)).collect()
}

impl CostModel {
    /// Diagonal count of a grouped DFT matrix covering `stages` butterfly
    /// stages: `2^{stages+1} − 1` generalized diagonals.
    pub fn dft_group_diagonals(&self, stages: usize) -> usize {
        (1usize << (stages + 1)) - 1
    }

    /// `ModRaise`: read the exhausted ciphertext (`in_limbs` limbs per
    /// polynomial), extend to the full `L`-limb chain, NTT everything.
    pub fn mod_raise(&self, in_limbs: usize) -> Cost {
        let l = self.params.limbs;
        let new = l - in_limbs;
        let mut c = self.intt_limb_ops() * (2 * in_limbs) as u64; // iNTT both polys
        c += self.newlimb_ops(in_limbs, new) * 2;
        c += self.ntt_limb_ops() * (2 * l) as u64; // NTT the full chain
        let limb = self.params.limb_bytes();
        c.ct_read += 2 * in_limbs as u64 * limb;
        c.ct_write += 2 * l as u64 * limb;
        c
    }

    /// Simulates one full bootstrap, starting from an exhausted ciphertext
    /// of `in_limbs` limbs.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set is too shallow for the pipeline.
    pub fn bootstrap_from(&self, in_limbs: usize) -> BootstrapCost {
        self.bootstrap_sparse(in_limbs, (self.params.log_n - 1) as usize)
    }

    /// Simulates a *sparsely packed* bootstrap over `2^log_slots` slots
    /// (≤ `N/2`). The paper's §4.3 notes that the applications use
    /// bootstrapping with fewer slots than the fully packed throughput
    /// benchmark: the homomorphic DFT then has `log_slots` butterfly
    /// stages instead of `log₂(N/2)`, shrinking every grouped matrix.
    ///
    /// # Panics
    ///
    /// Panics if the parameter set is too shallow for the pipeline or
    /// `log_slots` exceeds `log₂(N/2)`.
    pub fn bootstrap_sparse(&self, in_limbs: usize, log_slots: usize) -> BootstrapCost {
        let p = self.params;
        assert!(
            log_slots >= 1 && log_slots <= (p.log_n - 1) as usize,
            "log_slots {log_slots} outside [1, {}]",
            p.log_n - 1
        );
        let consumed = 2 * p.fft_iter + 2 + EVAL_MOD_DEPTH;
        assert!(
            p.limbs > consumed,
            "L = {} cannot cover the bootstrap depth {consumed}",
            p.limbs
        );

        let mut phases = [Cost::ZERO; 6];
        phases[0] = self.mod_raise(in_limbs);
        let mut switches = 1u64; // the raise is itself an orientation pass
        let mut ell = p.limbs;

        // CoeffToSlot: fftIter grouped DFT matrices.
        for &stages in &chunk_stages(log_slots, p.fft_iter) {
            let mv = self.pt_mat_vec_mult(MatVecShape {
                ell,
                diagonals: self.dft_group_diagonals(stages),
            });
            phases[1] += mv.cost;
            switches += mv.orientation_switches;
            ell -= 1;
        }

        // Real/imaginary split: one Conjugate (a Rotate-shaped key
        // switch), two additions, two scalar passes, one level.
        phases[2] += self.rotate(ell);
        switches += p.beta_at(ell) as u64 + 2;
        phases[2] += self.add(ell) * 2;
        phases[2] += Cost::compute(4 * p.degree() * ell as u64, 0);
        phases[2] += self.rescale(ell);
        ell -= 1;

        // EvalMod on both the real and imaginary ciphertexts.
        for _ in 0..2 {
            let mut e = ell;
            for &mults in &EVAL_MOD_MULTS_PER_LEVEL {
                for _ in 0..mults {
                    phases[3] += self.mult(e);
                    switches += p.beta_at(e) as u64 + 2;
                }
                e -= 1;
            }
            // Coefficient applications and additions fuse into the Mult
            // pipeline: compute plus a compact read of the scalar
            // coefficients, no ciphertext round-trips.
            let mid = (ell - 3) as u64;
            phases[3] += Cost {
                mults: 2 * p.degree() * mid * EVAL_MOD_PT_MULTS as u64,
                adds: 2 * p.degree() * mid * EVAL_MOD_ADDS as u64,
                pt_read: EVAL_MOD_PT_MULTS as u64 * 2 * p.limb_bytes(),
                ..Cost::ZERO
            };
        }
        ell -= EVAL_MOD_DEPTH;

        // Recombination (multiply by i, add): one level.
        phases[4] += Cost::compute(4 * p.degree() * ell as u64, 2 * p.degree() * ell as u64);
        phases[4] += self.rescale(ell);
        ell -= 1;

        // SlotToCoeff.
        for &stages in &chunk_stages(log_slots, p.fft_iter) {
            let mv = self.pt_mat_vec_mult(MatVecShape {
                ell,
                diagonals: self.dft_group_diagonals(stages),
            });
            phases[5] += mv.cost;
            switches += mv.orientation_switches;
            ell -= 1;
        }

        debug_assert_eq!(ell, p.limbs - consumed);
        let cost: Cost = phases.iter().copied().sum();
        BootstrapCost {
            cost,
            phases,
            orientation_switches: switches,
            levels_consumed: consumed,
            output_limbs: ell,
            log_q1: (ell as u32) * p.log_q,
        }
    }

    /// Simulates one bootstrap from the conventional 2-limb entry point.
    pub fn bootstrap(&self) -> BootstrapCost {
        self.bootstrap_from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{AlgoOpts, CachingLevel, MadConfig};
    use crate::params::SchemeParams;

    #[test]
    fn level_schedule_matches_published_log_q1() {
        // GPU baseline: (35 − 15) · 54 = 1080 (Table 6 row 1).
        let base = CostModel::new(SchemeParams::baseline(), MadConfig::baseline());
        let b = base.bootstrap();
        assert_eq!(b.levels_consumed, 15);
        assert_eq!(b.log_q1, 1080);
        // MAD optimal: (40 − 21) · 50 = 950 (Table 6 MAD rows).
        let mad = CostModel::new(SchemeParams::mad_optimal(), MadConfig::all());
        let m = mad.bootstrap();
        assert_eq!(m.levels_consumed, 21);
        assert_eq!(m.log_q1, 950);
    }

    #[test]
    fn table4_bootstrap_row() {
        // Table 4: 149.5 Gops, 208 GB, AI 0.72 at baseline parameters.
        let m = CostModel::new(
            SchemeParams::baseline(),
            MadConfig {
                caching: CachingLevel::OneLimb,
                algo: AlgoOpts {
                    modup_hoist: true,
                    ..AlgoOpts::none()
                },
            },
        );
        let b = m.bootstrap();
        let gops = b.cost.ops() as f64 / 1e9;
        let gbytes = b.cost.dram_total() as f64 / 1e9;
        let ai = b.cost.arithmetic_intensity();
        assert!(
            (gops / 149.546 - 1.0).abs() < 0.30,
            "bootstrap ops {gops:.1} Gops vs paper 149.5"
        );
        assert!(
            (gbytes / 207.982 - 1.0).abs() < 0.30,
            "bootstrap DRAM {gbytes:.1} GB vs paper 208.0"
        );
        assert!(
            (ai / 0.72 - 1.0).abs() < 0.30,
            "bootstrap AI {ai:.2} vs 0.72"
        );
    }

    #[test]
    fn caching_ladder_reduces_ct_traffic_monotonically() {
        let mut last = u64::MAX;
        for lvl in CachingLevel::ALL {
            let m = CostModel::new(
                SchemeParams::baseline(),
                MadConfig {
                    caching: lvl,
                    algo: AlgoOpts {
                        modup_hoist: true,
                        ..AlgoOpts::none()
                    },
                },
            );
            let b = m.bootstrap();
            let ct = b.cost.ct_read + b.cost.ct_write;
            assert!(ct < last, "{lvl} did not reduce ciphertext traffic");
            last = ct;
        }
    }

    #[test]
    fn caching_leaves_key_reads_unchanged() {
        // §3.1: "the caching optimizations do not impact the switching key
        // reads".
        let key_reads: Vec<u64> = CachingLevel::ALL
            .iter()
            .map(|&lvl| {
                CostModel::new(
                    SchemeParams::baseline(),
                    MadConfig {
                        caching: lvl,
                        algo: AlgoOpts {
                            modup_hoist: true,
                            ..AlgoOpts::none()
                        },
                    },
                )
                .bootstrap()
                .cost
                .key_read
            })
            .collect();
        for k in &key_reads {
            assert_eq!(*k, key_reads[0]);
        }
    }

    #[test]
    fn mad_orientation_switches_per_phase() {
        // §3.2: with ModUp + ModDown hoisting, each PtMatVecMult needs
        // β + 2 switches; a phase of fftIter iterations needs ≈ fftIter·3
        // at dnum = 2 (β = 2 ⟹ β + 2 ≈ ... the paper's "fftIter × 3").
        let m = CostModel::new(SchemeParams::mad_optimal(), MadConfig::all());
        let shape = MatVecShape {
            ell: 40,
            diagonals: 15,
        };
        let mv = m.pt_mat_vec_mult(shape);
        assert_eq!(mv.orientation_switches, m.params.beta_at(40) as u64 + 2);
    }

    #[test]
    fn mod_raise_transforms_both_polynomials() {
        let m = CostModel::new(SchemeParams::baseline(), MadConfig::baseline());
        let l = m.params.limbs as u64;
        for in_limbs in [1, 2, 5] {
            let c = m.mod_raise(in_limbs);
            assert_eq!((c.ntt_fwd, c.ntt_inv), (2 * l, 2 * in_limbs as u64));
        }
    }

    #[test]
    fn stage_chunking() {
        assert_eq!(chunk_stages(16, 3), vec![6, 5, 5]);
        assert_eq!(chunk_stages(16, 6), vec![3, 3, 3, 3, 2, 2]);
        assert_eq!(chunk_stages(16, 1), vec![16]);
    }

    #[test]
    fn sparse_packing_is_cheaper_than_full() {
        let m = CostModel::new(SchemeParams::baseline(), MadConfig::all());
        let full = m.bootstrap_sparse(2, 16);
        let sparse = m.bootstrap_sparse(2, 8);
        assert!(sparse.cost.ops() < full.cost.ops());
        assert!(sparse.cost.dram_total() < full.cost.dram_total());
        // Level consumption is identical — the DFT still runs fftIter
        // iterations per phase, each matrix is just smaller.
        assert_eq!(sparse.levels_consumed, full.levels_consumed);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn sparse_packing_validates_slot_count() {
        let m = CostModel::new(SchemeParams::baseline(), MadConfig::all());
        let _ = m.bootstrap_sparse(2, 17);
    }

    #[test]
    fn phase_costs_sum_to_total() {
        let b = CostModel::new(SchemeParams::baseline(), MadConfig::baseline()).bootstrap();
        let sum: crate::cost::Cost = b.phases.iter().copied().sum();
        assert_eq!(sum, b.cost);
        for (phase, c) in BootstrapPhase::ALL.iter().zip(&b.phases) {
            assert!(c.ops() > 0, "{} has zero compute", phase.name());
        }
    }

    #[test]
    fn linear_phases_dominate_dram_at_baseline() {
        // §4.2 context: the homomorphic DFTs are the memory hogs.
        let b = CostModel::new(SchemeParams::baseline(), MadConfig::baseline()).bootstrap();
        let dft = b.phases[1].dram_total() + b.phases[5].dram_total();
        assert!(
            dft * 2 > b.cost.dram_total(),
            "CoeffToSlot+SlotToCoeff should be >50% of DRAM traffic"
        );
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn too_shallow_chain_panics() {
        let p = SchemeParams {
            limbs: 10,
            ..SchemeParams::baseline()
        };
        let _ = CostModel::new(p, MadConfig::baseline()).bootstrap();
    }
}
