//! The MAD optimization switches (Section 3 of the paper).
//!
//! Caching levels are cumulative — each builds on the previous, exactly as
//! Figure 2 presents them. Algorithmic optimizations are independent flags
//! (Figure 3 applies them cumulatively, but SimFHE can toggle each in
//! isolation for ablation).

use std::fmt;

/// How many ciphertext limbs the on-chip memory strategy exploits
/// (Section 3.1, in increasing order of required cache size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum CachingLevel {
    /// No fusion: every sub-operation round-trips limbs through DRAM
    /// (the Jung et al. GPU baseline of Figure 1a).
    Baseline,
    /// Cache O(1) limbs (~1 MB): fuse consecutive limb-wise sub-operations
    /// on one limb before writing it back (Figure 1b).
    OneLimb,
    /// Cache O(β) limbs (~6 MB): keep one limb of each key-switching digit
    /// resident across the rotations of a `PtMatVecMult`.
    BetaLimbs,
    /// Cache O(α) limbs (~27 MB): perform the slot-wise basis conversions
    /// entirely on-chip, generating new limbs without slot-format
    /// round-trips.
    AlphaLimbs,
    /// `O(α)` plus re-ordered limb computation: produce the α dropped
    /// limbs first so `ModDown` combines them on the fly.
    LimbReorder,
}

impl CachingLevel {
    /// All levels in cumulative order (the x-axis of Figure 2).
    pub const ALL: [CachingLevel; 5] = [
        CachingLevel::Baseline,
        CachingLevel::OneLimb,
        CachingLevel::BetaLimbs,
        CachingLevel::AlphaLimbs,
        CachingLevel::LimbReorder,
    ];

    /// Minimum on-chip memory in MB this level requires at the paper's
    /// baseline parameters (§3.1: 1 MB, 6 MB, 27 MB).
    pub fn min_cache_mb(&self, alpha: usize, beta: usize, limb_mb: f64) -> f64 {
        match self {
            CachingLevel::Baseline => 0.5 * limb_mb,
            CachingLevel::OneLimb => limb_mb,
            CachingLevel::BetaLimbs => (2 * beta) as f64 * limb_mb,
            CachingLevel::AlphaLimbs | CachingLevel::LimbReorder => {
                (2 * alpha + 3) as f64 * limb_mb
            }
        }
    }

    /// The strongest level affordable with `cache_mb` of on-chip memory —
    /// how SimFHE "automatically deploys the applicable optimization for a
    /// large enough on-chip memory" (§4.1).
    pub fn best_for_cache(cache_mb: f64, alpha: usize, beta: usize, limb_mb: f64) -> Self {
        let mut best = CachingLevel::Baseline;
        for lvl in CachingLevel::ALL {
            if lvl.min_cache_mb(alpha, beta, limb_mb) <= cache_mb {
                best = lvl;
            }
        }
        best
    }
}

impl fmt::Display for CachingLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CachingLevel::Baseline => "baseline",
            CachingLevel::OneLimb => "O(1)-limb",
            CachingLevel::BetaLimbs => "O(β)-limb",
            CachingLevel::AlphaLimbs => "O(α)-limb",
            CachingLevel::LimbReorder => "limb re-order",
        };
        f.write_str(s)
    }
}

/// The algorithmic optimizations of Section 3.2.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug, Hash)]
pub struct AlgoOpts {
    /// Merge the key-switch `ModDown` with `Rescale` in `Mult`
    /// (Figure 4c).
    pub moddown_merge: bool,
    /// Hoist the `ModDown` out of back-to-back rotations in
    /// `PtMatVecMult` (Figure 5b).
    pub moddown_hoist: bool,
    /// The classic `ModUp` hoisting for rotation batches (Figure 5c pairs
    /// it with ModDown hoisting).
    pub modup_hoist: bool,
    /// Regenerate the uniform half of each switching key from a PRNG seed,
    /// halving key reads.
    pub key_compression: bool,
}

impl AlgoOpts {
    /// Everything off.
    pub fn none() -> Self {
        Self::default()
    }

    /// Everything on (the paper's final configuration): the schedule the
    /// functional library runs, its key switches reading each key's `b_j`
    /// and drawing the `a_j` from the seed.
    pub fn all() -> Self {
        Self {
            moddown_merge: true,
            moddown_hoist: true,
            modup_hoist: true,
            key_compression: true,
        }
    }

    /// The cumulative ladder of Figure 3: baseline (hoisted ModUp only, as
    /// in Jung et al.), + merge, + ModDown hoisting, + key compression.
    pub fn figure3_ladder() -> [(&'static str, AlgoOpts); 4] {
        [
            (
                "baseline (caching only)",
                AlgoOpts {
                    modup_hoist: true,
                    ..AlgoOpts::none()
                },
            ),
            (
                "+ ModDown merge",
                AlgoOpts {
                    modup_hoist: true,
                    moddown_merge: true,
                    ..AlgoOpts::none()
                },
            ),
            (
                "+ ModDown hoisting",
                AlgoOpts {
                    modup_hoist: true,
                    moddown_merge: true,
                    moddown_hoist: true,
                    ..AlgoOpts::none()
                },
            ),
            ("+ key compression", AlgoOpts::all()),
        ]
    }
}

/// A full MAD configuration: a caching level plus algorithmic flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct MadConfig {
    /// The caching level in effect.
    pub caching: CachingLevel,
    /// The algorithmic optimization flags.
    pub algo: AlgoOpts,
}

impl MadConfig {
    /// The unoptimized baseline (Jung et al. structure: BSGS with ModUp
    /// hoisting, no MAD).
    pub fn baseline() -> Self {
        Self {
            caching: CachingLevel::Baseline,
            algo: AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
        }
    }

    /// All MAD optimizations enabled.
    pub fn all() -> Self {
        Self {
            caching: CachingLevel::LimbReorder,
            algo: AlgoOpts::all(),
        }
    }

    /// True if the caching level is at least `level`.
    pub fn caches_at_least(&self, level: CachingLevel) -> bool {
        self.caching >= level
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caching_levels_are_ordered() {
        assert!(CachingLevel::Baseline < CachingLevel::OneLimb);
        assert!(CachingLevel::OneLimb < CachingLevel::BetaLimbs);
        assert!(CachingLevel::BetaLimbs < CachingLevel::AlphaLimbs);
        assert!(CachingLevel::AlphaLimbs < CachingLevel::LimbReorder);
    }

    #[test]
    fn cache_requirements_match_paper_examples() {
        // Paper §3.1 with α = 12, β = 3, 1 MB limbs: O(1) → 1 MB,
        // O(β) → 6 MB, O(α) → 27 MB.
        let (alpha, beta, limb) = (12, 3, 1.0);
        assert_eq!(CachingLevel::OneLimb.min_cache_mb(alpha, beta, limb), 1.0);
        assert_eq!(CachingLevel::BetaLimbs.min_cache_mb(alpha, beta, limb), 6.0);
        assert_eq!(
            CachingLevel::AlphaLimbs.min_cache_mb(alpha, beta, limb),
            27.0
        );
    }

    #[test]
    fn best_for_cache_picks_strongest_affordable() {
        let (alpha, beta, limb) = (12, 3, 1.0);
        assert_eq!(
            CachingLevel::best_for_cache(0.5, alpha, beta, limb),
            CachingLevel::Baseline
        );
        assert_eq!(
            CachingLevel::best_for_cache(2.0, alpha, beta, limb),
            CachingLevel::OneLimb
        );
        assert_eq!(
            CachingLevel::best_for_cache(6.0, alpha, beta, limb),
            CachingLevel::BetaLimbs
        );
        assert_eq!(
            CachingLevel::best_for_cache(32.0, alpha, beta, limb),
            CachingLevel::LimbReorder
        );
    }

    #[test]
    fn figure3_ladder_is_cumulative() {
        let ladder = AlgoOpts::figure3_ladder();
        assert!(!ladder[0].1.moddown_merge);
        assert!(ladder[1].1.moddown_merge && !ladder[1].1.moddown_hoist);
        assert!(ladder[2].1.moddown_hoist && !ladder[2].1.key_compression);
        assert_eq!(ladder[3].1, AlgoOpts::all());
    }
}
