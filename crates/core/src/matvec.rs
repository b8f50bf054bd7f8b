//! Cost model for `PtMatVecMult` — the plaintext matrix–vector product at
//! the core of bootstrapping's CoeffToSlot and SlotToCoeff phases.
//!
//! Three schedules (the paper's Figure 5), selected by the active
//! [`crate::opts::AlgoOpts`] for the paper's tables and ablations:
//!
//! - **Naive**: every diagonal pays a full `Rotate`.
//! - **ModUp-hoisted BSGS** (the Jung et al. baseline): one decomposition
//!   shared by `n_1` baby rotations, each still paying its two
//!   `ModDown`s, plus `n_2 − 1` full giant rotations.
//! - **ModDown-hoisted** (MAD): products and sums accumulate in the raised
//!   basis; one `ModUp` and two `ModDown`s total, at the price of reading
//!   one switching key per diagonal (the §3.2 key-reads-vs-ct-reads
//!   trade-off).
//!
//! And the one the functional library's `apply_bsgs` *runs*:
//! [`CostModel::matvec_bsgs_double_hoisted`] prices BSGS with both
//! hoistings inside every giant group and the last `ModDown` merged with
//! the rescale, for a concrete diagonal set ([`BsgsSchedule`]).
//! [`CostModel::program_cost`] charges a `BsgsMatVec` with it under
//! `moddown_hoist`, and with [`CostModel::pt_mat_vec_mult`] otherwise. It
//! streams every pass through DRAM whatever the caching level.

use crate::cost::Cost;
use crate::opts::CachingLevel;
use crate::primitives::CostModel;
use crate::program::bsgs_baby_dim;
use std::collections::{BTreeMap, BTreeSet};

/// Shape of one `PtMatVecMult`: limb count and nonzero-diagonal count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MatVecShape {
    /// Ciphertext limb count on entry.
    pub ell: usize,
    /// Number of nonzero generalized diagonals (`r` rotations).
    pub diagonals: usize,
}

/// What `apply_bsgs` does for one diagonal set at baby dimension `n1`:
/// diagonal `d` belongs to the giant group of step `⌊d/n1⌋·n1` and lands on
/// baby step `d mod n1` — everything its cost and its key set depend on
/// beyond the limb count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BsgsSchedule {
    /// The distinct non-zero baby steps, ascending: one digit automorphism
    /// + inner product each, off the single `ModUp` of `c1`.
    pub babies: Vec<usize>,
    /// The giant groups, ascending.
    pub groups: Vec<GiantGroup>,
}

/// The diagonals sharing one giant step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GiantGroup {
    /// The giant step. A group at a non-zero one has its inner sum rotated
    /// by a giant key switch (`ModUp` + inner product) on its way into the
    /// total; the group at step 0 joins it as it is.
    pub step: usize,
    /// Diagonals on a non-zero baby step: products with a rotated operand,
    /// accumulated in the raised basis.
    pub rotated: usize,
    /// Whether the diagonal on baby step 0 is present: a product with the
    /// unrotated ciphertext, in the base basis.
    pub unrotated: bool,
}

impl BsgsSchedule {
    /// The schedule of the (distinct) diagonal `offsets`.
    pub fn of(offsets: &[usize], n1: usize) -> Self {
        let mut babies = BTreeSet::new();
        let mut groups: BTreeMap<usize, GiantGroup> = BTreeMap::new();
        for &d in offsets {
            let (step, baby) = (d / n1 * n1, d % n1);
            let group = groups.entry(step).or_insert(GiantGroup {
                step,
                rotated: 0,
                unrotated: false,
            });
            if baby == 0 {
                group.unrotated = true;
            } else {
                group.rotated += 1;
                babies.insert(baby);
            }
        }
        Self {
            babies: babies.into_iter().collect(),
            groups: groups.into_values().collect(),
        }
    }

    /// The groups at a non-zero giant step.
    pub fn giants(&self) -> impl Iterator<Item = &GiantGroup> + Clone {
        self.groups.iter().filter(|g| g.step != 0)
    }

    /// The rotations the schedule performs, and so the Galois keys it
    /// needs: the baby steps, then the non-zero giant steps (all of them
    /// `≥ n1`), each ascending.
    pub fn galois_steps(&self) -> Vec<i64> {
        let giants = self.giants().map(|g| g.step);
        self.babies
            .iter()
            .copied()
            .chain(giants)
            .map(|s| s as i64)
            .collect()
    }
}

/// Orientation-switch and cost accounting for one `PtMatVecMult`.
#[derive(Clone, Copy, Debug, Default)]
pub struct MatVecCost {
    /// Accumulated compute + DRAM cost.
    pub cost: Cost,
    /// Limb-wise ↔ slot-wise data-orientation switches (the diagnostic the
    /// paper quotes: 44 for the baseline vs `fftIter × 3` with MAD).
    pub orientation_switches: u64,
}

impl CostModel {
    /// DRAM bytes to fetch one encoded DFT diagonal: the coefficients fit
    /// a single machine word (scale Δ < one limb prime), so diagonals are
    /// stored in scalar form and expanded into their RNS limbs on-chip —
    /// two limbs' worth of traffic (value + bookkeeping) per diagonal
    /// rather than `ℓ` limbs.
    pub fn diagonal_pt_bytes(&self) -> u64 {
        2 * self.params.limb_bytes()
    }

    /// Cost of one `PtMatVecMult` under the active MAD configuration.
    pub fn pt_mat_vec_mult(&self, shape: MatVecShape) -> MatVecCost {
        if self.config.algo.moddown_hoist {
            self.matvec_fully_hoisted(shape)
        } else if self.config.algo.modup_hoist {
            self.matvec_bsgs(shape)
        } else {
            self.matvec_naive(shape)
        }
    }

    /// Figure 5a: a full `Rotate` + `PtMult` + `Add` per diagonal.
    fn matvec_naive(&self, shape: MatVecShape) -> MatVecCost {
        let MatVecShape { ell, diagonals } = shape;
        let beta = self.params.beta_at(ell);
        let mut out = MatVecCost::default();
        for _ in 0..diagonals {
            out.cost += self.rotate(ell);
            out.cost += self.pt_mult_no_rescale(ell);
            out.cost += self.add(ell);
            // Each Rotate: β ModUps + 2 ModDowns, each one orientation
            // round-trip.
            out.orientation_switches += beta as u64 + 2;
        }
        out.cost += self.rescale(ell);
        out
    }

    /// The Jung et al. baseline: ModUp hoisting with BSGS.
    fn matvec_bsgs(&self, shape: MatVecShape) -> MatVecCost {
        let MatVecShape { ell, diagonals } = shape;
        let beta = self.params.beta_at(ell);
        let n1 = bsgs_baby_dim(diagonals);
        let n2 = diagonals.div_ceil(n1);
        let mut out = MatVecCost::default();

        // One shared decomposition + ModUp.
        out.cost += self.decomp(ell);
        for j in 0..beta {
            out.cost += self.mod_up_digit(ell, self.digit_width(ell, j));
        }
        out.orientation_switches += beta as u64;

        // Baby rotations: inner product + two ModDowns each. With β-limb
        // caching the digits are read once for the whole baby batch.
        let beta_cached = self.config.caches_at_least(CachingLevel::BetaLimbs);
        for b in 0..n1 {
            let charge_digits = !beta_cached || b == 0;
            out.cost += self.ksk_inner_product(ell, beta, charge_digits, true);
            out.cost += self.mod_down(ell, self.params.special_limbs()) * 2;
            out.cost += self.automorph(ell, false);
            out.orientation_switches += 2;
        }

        // Inner sums, streamed per giant group: each group reads its
        // babies and diagonals once and keeps the accumulator resident.
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let mut remaining = diagonals;
        for _ in 0..n2 {
            let d_g = remaining.min(n1) as u64;
            remaining -= d_g as usize;
            out.cost += Cost {
                mults: 2 * n * ell as u64 * d_g,
                adds: 2 * n * ell as u64 * d_g,
                ct_read: 2 * ell as u64 * limb * d_g,
                pt_read: self.diagonal_pt_bytes() * d_g,
                ct_write: 2 * ell as u64 * limb,
                ..Cost::ZERO
            };
        }

        // Giant rotations: full Rotate each (non-zero giants only), with
        // the result accumulation fused into the rotation's final pass.
        for _ in 0..n2.saturating_sub(1) {
            out.cost += self.rotate(ell);
            out.cost += Cost {
                adds: 2 * n * ell as u64,
                ct_read: 2 * ell as u64 * limb,
                ..Cost::ZERO
            };
            out.orientation_switches += beta as u64 + 2;
        }
        out.cost += self.rescale(ell);
        out
    }

    /// Figure 5c: ModUp + ModDown hoisting — one `ModUp`, two `ModDown`s,
    /// everything in between in the raised basis.
    fn matvec_fully_hoisted(&self, shape: MatVecShape) -> MatVecCost {
        let MatVecShape { ell, diagonals } = shape;
        let k = self.params.special_limbs();
        let w = (ell + k) as u64;
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let beta = self.params.beta_at(ell);
        let mut out = MatVecCost::default();

        // One shared decomposition + ModUp.
        out.cost += self.decomp(ell);
        for j in 0..beta {
            out.cost += self.mod_up_digit(ell, self.digit_width(ell, j));
        }
        out.orientation_switches += beta as u64;

        // Per diagonal: inner product with that rotation's key (digits
        // cached once under β-limb caching), then the plaintext product
        // and accumulation in the raised basis (2 polys × w limbs), plus
        // the σ(c0) leg in the base basis.
        let beta_cached = self.config.caches_at_least(CachingLevel::BetaLimbs);
        let fused = self.config.caches_at_least(CachingLevel::OneLimb);
        for d in 0..diagonals {
            let charge_digits = !beta_cached || d == 0;
            // Under fusion the raised pair is consumed by the accumulator
            // as it is produced and never written out per-diagonal.
            let mut c = self.ksk_inner_product(ell, beta, charge_digits, !fused);
            // Raised-basis PtMult + Add on (û, v̂); the diagonal is
            // fetched compactly and expanded on-chip.
            c += Cost {
                mults: 2 * n * w,
                adds: 2 * n * w,
                pt_read: self.diagonal_pt_bytes(),
                ..Cost::ZERO
            };
            // σ(c0)·pt + add in the base basis. With β-limb caching the
            // loop runs limb-major, so c0 is read once per matrix rather
            // than once per diagonal.
            c += Cost {
                mults: n * ell as u64,
                adds: n * ell as u64,
                ct_read: if beta_cached && d > 0 {
                    0
                } else {
                    ell as u64 * limb
                },
                ..Cost::ZERO
            };
            // Accumulators stay on-chip between diagonals when the cache
            // holds O(β) limbs or more; otherwise they round-trip.
            if !beta_cached {
                c.ct_read += 2 * w * limb;
                c.ct_write += 2 * w * limb;
            }
            out.cost += c;
        }
        // The raised accumulators are written out once before the final
        // pair of ModDowns.
        out.cost += Cost {
            ct_write: 2 * w * limb,
            ..Cost::ZERO
        };
        out.cost += self.mod_down(ell, k) * 2;
        out.orientation_switches += 2;
        out.cost += self.rescale(ell);
        out
    }

    /// The double-hoisted BSGS schedule `apply_bsgs` runs at `ell` limbs,
    /// with the diagonals pre-encoded (a transform encodes them once, on
    /// first use), priced kernel pass by kernel pass — each a stream over
    /// its operands' limbs, as the library's fused limb loops are:
    ///
    /// - one `Decomp` + `ModUp` of `c1`; per baby step the inner product
    ///   against that rotation's key, whose raised output stays put and
    ///   takes `σ_b(c0)` in by `PModUp`; the unrotated ciphertext lifted
    ///   the same way if it shares a group with a rotated step;
    /// - per giant group, the inner sum over its diagonals in one pass —
    ///   every operand read once, the two sums written once — in the
    ///   raised basis, or the base basis for the unrotated diagonal alone;
    /// - per non-zero giant group, a `ModDown` pair on a raised inner sum,
    ///   then the giant key switch stopped before its own `ModDown`, its
    ///   raised output and `σ_g(c0)` added to the running total;
    /// - the base-basis legs lifted by `PModUp` into the total and one
    ///   `ModDown` pair merged with the rescale (`k + 1` limbs dropped).
    pub fn matvec_bsgs_double_hoisted(&self, ell: usize, s: &BsgsSchedule) -> Cost {
        let k = self.params.special_limbs();
        let (l, w) = (ell as u64, (ell + k) as u64);
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let beta = self.params.beta_at(ell);
        let mod_up = crate::program::modup_cost(self, ell);
        // `(Σ pt ⊙ a, Σ pt ⊙ b)` over `terms` terms of `limbs` limbs.
        let pair_sum = |limbs: u64, terms: u64| Cost {
            mults: 2 * n * limbs * terms,
            adds: 2 * n * limbs * (terms - 1),
            ct_read: 2 * limbs * terms * limb,
            pt_read: limbs * terms * limb,
            ct_write: 2 * limbs * limb,
            ..Cost::ZERO
        };
        // `acc += x`, a permutation into a new polynomial, and `PModUp`
        // folded into an accumulate, each over `l` limbs.
        let add = |limbs: u64| Cost {
            adds: n * limbs,
            ct_read: 2 * limbs * limb,
            ct_write: limbs * limb,
            ..Cost::ZERO
        };
        let permute = Cost {
            ct_read: l * limb,
            ct_write: l * limb,
            ..Cost::ZERO
        };
        let lift = Cost {
            mults: n * l,
            ..add(l)
        };
        let mut c = Cost::ZERO;

        if !s.babies.is_empty() {
            c += mod_up;
        }
        for _ in &s.babies {
            c += self.automorph(ell, false);
            c += self.ksk_inner_product(ell, beta, true, true);
            c += permute + lift;
        }
        if s.groups.iter().any(|g| g.rotated > 0 && g.unrotated) {
            // PModUp of both components into new raised polynomials.
            c += Cost {
                mults: 2 * n * l,
                ct_read: 2 * l * limb,
                ct_write: 2 * w * limb,
                ..Cost::ZERO
            };
        }

        // What the running total holds so far: a raised pair, a base c0
        // leg, a base c1 leg (the unrotated diagonal 0 alone in group 0).
        let (mut raised_total, mut c0_total, mut c1_total) = (false, false, false);
        for g in &s.groups {
            let terms = (g.rotated + usize::from(g.unrotated)) as u64;
            c += pair_sum(if g.rotated > 0 { w } else { l }, terms);
            if g.step == 0 {
                raised_total = g.rotated > 0;
                (c0_total, c1_total) = (!raised_total, !raised_total);
                continue;
            }
            if g.rotated > 0 {
                c += self.mod_down(ell, k) * 2;
            }
            c += self.automorph(ell, false) + permute;
            c += mod_up;
            c += self.ksk_inner_product(ell, beta, true, true);
            if raised_total {
                c += add(w) * 2;
            }
            c += permute;
            if c0_total {
                c += add(l);
            }
            (raised_total, c0_total) = (true, true);
        }

        if !raised_total {
            return c + self.rescale(ell);
        }
        c += lift * (u64::from(c0_total) + u64::from(c1_total));
        c + self.mod_down(ell - 1, k + 1) * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{AlgoOpts, MadConfig};
    use crate::params::SchemeParams;

    fn model(algo: AlgoOpts, caching: CachingLevel) -> CostModel {
        CostModel::new(SchemeParams::baseline(), MadConfig { caching, algo })
    }

    const SHAPE: MatVecShape = MatVecShape {
        ell: 30,
        diagonals: 16,
    };

    #[test]
    fn hoisting_ladder_reduces_compute() {
        let naive = model(AlgoOpts::none(), CachingLevel::OneLimb).pt_mat_vec_mult(SHAPE);
        let bsgs = model(
            AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
            CachingLevel::OneLimb,
        )
        .pt_mat_vec_mult(SHAPE);
        let full = model(
            AlgoOpts {
                modup_hoist: true,
                moddown_hoist: true,
                ..AlgoOpts::none()
            },
            CachingLevel::OneLimb,
        )
        .pt_mat_vec_mult(SHAPE);
        assert!(bsgs.cost.ops() < naive.cost.ops());
        assert!(full.cost.ops() < bsgs.cost.ops());
    }

    #[test]
    fn moddown_hoisting_minimizes_orientation_switches() {
        // Figure 5c: β ModUps + 2 ModDowns, independent of diagonal count.
        let full = model(
            AlgoOpts {
                modup_hoist: true,
                moddown_hoist: true,
                ..AlgoOpts::none()
            },
            CachingLevel::OneLimb,
        );
        let beta = full.params.beta_at(SHAPE.ell) as u64;
        let small = full.pt_mat_vec_mult(SHAPE);
        let big = full.pt_mat_vec_mult(MatVecShape {
            diagonals: 64,
            ..SHAPE
        });
        assert_eq!(small.orientation_switches, beta + 2);
        assert_eq!(big.orientation_switches, beta + 2);
    }

    #[test]
    fn bsgs_switches_grow_with_babies() {
        let bsgs = model(
            AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
            CachingLevel::OneLimb,
        );
        let s16 = bsgs.pt_mat_vec_mult(SHAPE).orientation_switches;
        let s64 = bsgs
            .pt_mat_vec_mult(MatVecShape {
                diagonals: 64,
                ..SHAPE
            })
            .orientation_switches;
        assert!(s64 > s16);
    }

    #[test]
    fn moddown_hoisting_trades_key_reads_for_ct_reads() {
        // §3.2: hoisting increases switching-key reads but reduces overall
        // ciphertext DRAM traffic.
        let caching = CachingLevel::AlphaLimbs;
        let bsgs = model(
            AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
            caching,
        )
        .pt_mat_vec_mult(SHAPE);
        let full = model(
            AlgoOpts {
                modup_hoist: true,
                moddown_hoist: true,
                ..AlgoOpts::none()
            },
            caching,
        )
        .pt_mat_vec_mult(SHAPE);
        assert!(
            full.cost.key_read > bsgs.cost.key_read,
            "hoisting should read more keys ({} vs {})",
            full.cost.key_read,
            bsgs.cost.key_read
        );
        assert!(
            full.cost.ct_read + full.cost.ct_write < bsgs.cost.ct_read + bsgs.cost.ct_write,
            "hoisting should move less ciphertext data"
        );
    }

    #[test]
    fn beta_caching_cuts_digit_rereads() {
        let algo = AlgoOpts {
            modup_hoist: true,
            moddown_hoist: true,
            ..AlgoOpts::none()
        };
        let no_cache = model(algo, CachingLevel::OneLimb).pt_mat_vec_mult(SHAPE);
        let cached = model(algo, CachingLevel::BetaLimbs).pt_mat_vec_mult(SHAPE);
        assert!(cached.cost.ct_read < no_cache.cost.ct_read);
        assert_eq!(
            cached.cost.ops(),
            no_cache.cost.ops(),
            "caching is compute-neutral"
        );
    }

    #[test]
    fn baby_dimension_is_near_sqrt() {
        assert_eq!(bsgs_baby_dim(1), 1);
        assert_eq!(bsgs_baby_dim(16), 4);
        assert_eq!(bsgs_baby_dim(17), 8);
        assert_eq!(bsgs_baby_dim(64), 8);
    }
}
