//! Figure 6 of the MAD paper: HELR training time and ResNet-20 inference
//! time for each accelerator design, original vs +MAD at several on-chip
//! memory sizes.
//!
//! Substitution note (see DESIGN.md): the paper's first bar in each
//! sub-figure quotes the original papers' testbed numbers; here the
//! "original" configuration is *simulated* with the same roofline model
//! (baseline caching/algorithms at the design's published cache size), so
//! every bar comes from one consistent model. The +MAD bars follow the
//! paper: all algorithmic optimizations, caching auto-selected from the
//! cache size. Both workloads are [`Program`]s, priced by
//! [`CostModel::program_cost`] under each bar's configuration.

use crate::lr::{helr_training_program, HelrShape};
use crate::resnet::resnet20_program;
use simfhe::hardware::HardwareConfig;
use simfhe::opts::{AlgoOpts, CachingLevel, MadConfig};
use simfhe::params::SchemeParams;
use simfhe::primitives::CostModel;
use simfhe::program::{Program, ProgramCost, ProgramEnv};

/// Which Figure-6 workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fig6Workload {
    /// HELR logistic-regression training (Figure 6a–e).
    LrTraining,
    /// ResNet-20 inference (Figure 6f–h).
    ResNetInference,
}

/// One bar of Figure 6.
#[derive(Clone, Debug)]
pub struct Fig6Bar {
    /// Label, e.g. `"GPU+MAD-32"`.
    pub label: String,
    /// On-chip memory in MB.
    pub cache_mb: f64,
    /// Whether MAD optimizations are applied.
    pub mad: bool,
    /// Caching level actually engaged.
    pub caching: CachingLevel,
    /// Runtime in seconds.
    pub runtime_s: f64,
    /// Memory-bound on this design?
    pub memory_bound: bool,
}

/// The program of one Figure-6 workload at `params`.
pub fn figure6_program(kind: Fig6Workload, params: &SchemeParams) -> Program {
    match kind {
        Fig6Workload::LrTraining => helr_training_program(params, HelrShape::default()),
        Fig6Workload::ResNetInference => resnet20_program(params),
    }
}

/// Validates `program` against the whole chain and slot count of
/// `model`'s parameters, then prices it.
///
/// # Panics
///
/// Panics if the program does not validate there.
pub fn price(model: &CostModel, program: &Program) -> ProgramCost {
    let env = ProgramEnv {
        levels: model.params.limbs,
        slots: model.params.slots() as usize,
    };
    let info = program
        .validate(&env)
        .unwrap_or_else(|e| panic!("{}: {e}", program.name));
    model.program_cost(program, &info)
}

/// Simulates one bar: the design `hw` at `cache_mb`, with or without MAD.
pub fn simulate_bar(
    base_hw: &HardwareConfig,
    cache_mb: f64,
    mad: bool,
    kind: Fig6Workload,
) -> Fig6Bar {
    // Original bars run the designs' own (baseline) parameters; +MAD bars
    // run the MAD-optimal set (§4.3: "we implement HELR … using all our
    // optimizations and the parameters in Table 5").
    let params = if mad {
        SchemeParams::mad_practical()
    } else {
        SchemeParams::baseline()
    };
    let hw = base_hw.with_cache_mb(cache_mb);
    let config = if mad {
        let caching = CachingLevel::best_for_cache(
            cache_mb,
            params.alpha(),
            params.beta_at(params.limbs),
            params.limb_mib(),
        );
        MadConfig {
            caching,
            algo: AlgoOpts::all(),
        }
    } else {
        MadConfig::baseline()
    };
    let model = CostModel::new(params, config);
    let cost = price(&model, &figure6_program(kind, &params)).cost;
    Fig6Bar {
        label: if mad {
            format!("{}+MAD-{}", base_hw.name, cache_mb as u64)
        } else {
            format!("{}-{}", base_hw.name, cache_mb as u64)
        },
        cache_mb,
        mad,
        caching: config.caching,
        runtime_s: hw.runtime_seconds(&cost),
        memory_bound: hw.is_memory_bound(&cost),
    }
}

/// The bar group for one design, mirroring the paper's sub-figures:
/// the original configuration at its published cache, then +MAD at each
/// requested cache size.
pub fn design_bars(hw: &HardwareConfig, mad_caches_mb: &[f64], kind: Fig6Workload) -> Vec<Fig6Bar> {
    let mut bars = vec![simulate_bar(hw, hw.on_chip_mb, false, kind)];
    for &mb in mad_caches_mb {
        bars.push(simulate_bar(hw, mb, true, kind));
    }
    bars
}

/// The full Figure-6 layout: per design, the cache sizes the paper plots.
pub fn figure6_groups(kind: Fig6Workload) -> Vec<(HardwareConfig, Vec<Fig6Bar>)> {
    let layout: [(HardwareConfig, &[f64]); 5] = [
        (HardwareConfig::gpu(), &[6.0, 32.0]),
        (HardwareConfig::f1(), &[32.0, 64.0]),
        (HardwareConfig::craterlake(), &[32.0, 256.0]),
        (HardwareConfig::bts(), &[32.0, 256.0, 512.0]),
        (HardwareConfig::ark(), &[32.0, 256.0, 512.0]),
    ];
    layout
        .into_iter()
        .map(|(hw, caches)| {
            let bars = design_bars(&hw, caches, kind);
            (hw, bars)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lr::HELR_ITERATION_DEPTH;
    use simfhe::bootstrap::EVAL_MOD_DEPTH;

    #[test]
    fn gpu_mad_improves_lr_training() {
        // Figure 6a: GPU+MAD-6 ≈ 3.5× and GPU+MAD-32 ≈ 17× faster.
        let gpu = HardwareConfig::gpu();
        let bars = design_bars(&gpu, &[6.0, 32.0], Fig6Workload::LrTraining);
        let orig = bars[0].runtime_s;
        let mad6 = bars[1].runtime_s;
        let mad32 = bars[2].runtime_s;
        let s6 = orig / mad6;
        let s32 = orig / mad32;
        assert!(s6 > 1.5, "GPU+MAD-6 speedup {s6:.2} (paper: 3.5×)");
        assert!(s32 > s6, "more cache must help");
        assert!(s32 > 3.0, "GPU+MAD-32 speedup {s32:.2} (paper: 17×)");
    }

    #[test]
    fn mad_32_matches_larger_caches_once_compute_bound() {
        // Figures 6c/6d: once MAD makes a design compute-bound, growing the
        // cache beyond 32 MB brings little.
        let bts = HardwareConfig::bts();
        let b32 = simulate_bar(&bts, 32.0, true, Fig6Workload::ResNetInference);
        let b512 = simulate_bar(&bts, 512.0, true, Fig6Workload::ResNetInference);
        let ratio = b32.runtime_s / b512.runtime_s;
        assert!(
            ratio < 1.6,
            "32 MB vs 512 MB should be close under MAD (ratio {ratio:.2})"
        );
    }

    #[test]
    fn resnet_runtime_exceeds_lr_iteration_scale() {
        // ResNet-20 has ~19 bootstraps vs HELR's 9 — on the same design it
        // should cost more.
        let gpu = HardwareConfig::gpu();
        let lr = simulate_bar(&gpu, 32.0, true, Fig6Workload::LrTraining);
        let rn = simulate_bar(&gpu, 32.0, true, Fig6Workload::ResNetInference);
        assert!(rn.runtime_s > lr.runtime_s * 0.5);
    }

    #[test]
    fn both_programs_validate_at_every_paper_parameter_set() {
        for params in [
            SchemeParams::baseline(),
            SchemeParams::mad_practical(),
            SchemeParams::mad_optimal(),
        ] {
            let env = ProgramEnv {
                levels: params.limbs,
                slots: params.slots() as usize,
            };
            let budget = params.limbs - (2 * params.fft_iter + 2 + EVAL_MOD_DEPTH);
            // Thirty iterations of 39 instructions and nine bootstraps; the
            // weights leave three iterations below the last refresh.
            let lr = figure6_program(Fig6Workload::LrTraining, &params);
            assert_eq!(lr.instrs.len(), 30 * 39 + 9);
            let info = lr.validate(&env).expect("HELR validates");
            assert_eq!(info.outputs, [(budget - 3 * HELR_ITERATION_DEPTH, 1)]);
            // Nineteen layers of 19 instructions, each ending in a refresh.
            let resnet = figure6_program(Fig6Workload::ResNetInference, &params);
            assert_eq!(resnet.instrs.len(), 19 * 19);
            let info = resnet.validate(&env).expect("ResNet-20 validates");
            assert_eq!(info.outputs, [(budget, 1)]);
        }
    }

    #[test]
    fn figure6_layout_shape() {
        let groups = figure6_groups(Fig6Workload::LrTraining);
        assert_eq!(groups.len(), 5);
        assert_eq!(groups[0].1.len(), 3); // GPU: original + 2 MAD bars
        assert_eq!(groups[3].1.len(), 4); // BTS: original + 3 MAD bars
        for (_, bars) in &groups {
            assert!(!bars[0].mad);
            assert!(bars[1..].iter().all(|b| b.mad));
        }
    }
}
