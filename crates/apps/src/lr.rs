//! HELR logistic-regression training (Han et al., AAAI'19), as evaluated
//! by the MAD paper (Figure 6a–e): [`helr_workload`], the simulator
//! schedule — per iteration, the slot-packed matrix–vector products, the
//! polynomial sigmoid, and the gradient update; a bootstrap every
//! `iters_per_bootstrap` iterations (3 at the paper's parameters).
//!
//! The functional step and its plaintext reference are in
//! [`crate::helr_enc`].

use simfhe::bootstrap::EVAL_MOD_DEPTH;
use simfhe::params::SchemeParams;
use simfhe::workload::{Workload, WorkloadOp};

/// Shape of the HELR encrypted-training schedule.
#[derive(Clone, Copy, Debug)]
pub struct HelrShape {
    /// Training iterations.
    pub iterations: usize,
    /// Feature count (196 for the paper's MNIST-like task).
    pub features: usize,
    /// Batch size (1024).
    pub batch: usize,
}

impl Default for HelrShape {
    fn default() -> Self {
        Self {
            iterations: 30,
            features: 196,
            batch: 1024,
        }
    }
}

/// Multiplicative depth of one HELR iteration: `X·w` (1), degree-3 sigmoid
/// (2), gradient re-aggregation (1).
pub const HELR_ITERATION_DEPTH: usize = 4;

/// Builds the simulator workload for HELR training at the given
/// parameters. The bootstrap cadence is derived from the post-bootstrap
/// level budget — 3 iterations at both the baseline and MAD-optimal
/// parameter sets, matching §4.3.
pub fn helr_workload(params: &SchemeParams, shape: HelrShape) -> Workload {
    let consumed = 2 * params.fft_iter + 2 + EVAL_MOD_DEPTH;
    assert!(
        params.limbs > consumed + HELR_ITERATION_DEPTH,
        "parameters too shallow for HELR"
    );
    let budget = params.limbs - consumed;
    let iters_per_bootstrap = (budget.saturating_sub(1) / HELR_ITERATION_DEPTH).clamp(1, 3);

    // Rotations per slot-packed inner product: log2 of the replicated
    // feature block (Halevi–Shoup style fold).
    let fold_rots = (shape.features.next_power_of_two().trailing_zeros()) as u64;

    let mut w = Workload::new(format!(
        "HELR {}x{} ({} iters, bootstrap every {})",
        shape.batch, shape.features, shape.iterations, iters_per_bootstrap
    ));
    let mut ell = budget;
    for it in 0..shape.iterations {
        if it > 0 && it % iters_per_bootstrap == 0 {
            w.push(
                WorkloadOp::Bootstrap {
                    from_limbs: ell.clamp(2, 3),
                },
                1,
            );
            ell = budget;
        }
        assert!(ell > HELR_ITERATION_DEPTH, "level budget exhausted");
        // z = X·w: replicate weights, multiply, fold-rotate-add.
        w.push(WorkloadOp::Mult { ell }, 1);
        w.push(WorkloadOp::Rotate { ell: ell - 1 }, fold_rots);
        w.push(WorkloadOp::Add { ell: ell - 1 }, fold_rots);
        // Degree-3 sigmoid: two Mult levels plus scalar terms.
        w.push(WorkloadOp::Mult { ell: ell - 1 }, 1);
        w.push(WorkloadOp::Mult { ell: ell - 2 }, 1);
        w.push(WorkloadOp::PtAdd { ell: ell - 3 }, 1);
        // Gradient: X^T · σ — transpose fold plus masking PtMult.
        w.push(WorkloadOp::Rotate { ell: ell - 3 }, fold_rots);
        w.push(WorkloadOp::Add { ell: ell - 3 }, fold_rots);
        w.push(WorkloadOp::PtMult { ell: ell - 3 }, 1);
        // Weight update.
        w.push(WorkloadOp::Add { ell: ell - 4 }, 1);
        ell -= HELR_ITERATION_DEPTH;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::synthetic_mnist_like;
    use crate::helr_enc::{plain_lr_step, SIGMOID_C0, SIGMOID_C1, SIGMOID_C3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simfhe::opts::MadConfig;
    use simfhe::primitives::CostModel;

    #[test]
    fn sigmoid_approximation_is_close_on_core_range() {
        let sigmoid = |x: f64| SIGMOID_C0 + SIGMOID_C1 * x + SIGMOID_C3 * x * x * x;
        for i in -40..=40 {
            let x = i as f64 / 10.0;
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (sigmoid(x) - exact).abs() < 0.08,
                "x={x}: {} vs {exact}",
                sigmoid(x)
            );
        }
    }

    #[test]
    fn plaintext_lr_learns_synthetic_task() {
        let mut rng = StdRng::seed_from_u64(42);
        let data = synthetic_mnist_like(&mut rng, 512, 32);
        let columns: Vec<Vec<f64>> = (0..32)
            .map(|d| data.features.iter().map(|row| row[d]).collect())
            .collect();
        let y01: Vec<f64> = data.labels.iter().map(|&l| (l + 1.0) / 2.0).collect();
        let accuracy = |weights: &[f64]| {
            let correct = data
                .features
                .iter()
                .zip(&data.labels)
                .filter(|(x, &y)| {
                    let z: f64 = x.iter().zip(weights).map(|(a, b)| a * b).sum();
                    (z >= 0.0) == (y > 0.0)
                })
                .count();
            correct as f64 / data.len() as f64
        };
        let mut weights = vec![0.0; 32];
        let initial = accuracy(&weights);
        for _ in 0..30 {
            plain_lr_step(&mut weights, &columns, &y01, 1.0);
        }
        let trained = accuracy(&weights);
        assert!(
            trained > 0.85 && trained > initial,
            "accuracy {initial} -> {trained}"
        );
    }

    #[test]
    fn workload_bootstrap_cadence_matches_paper() {
        // §4.3: "with our optimal parameter set we need to perform
        // bootstrapping after every three training iterations".
        let w = helr_workload(&SchemeParams::mad_optimal(), HelrShape::default());
        // 30 iterations, bootstrap before iterations 3,6,…,27 → 9.
        assert_eq!(w.bootstrap_count(), 9);
        let w2 = helr_workload(&SchemeParams::baseline(), HelrShape::default());
        assert_eq!(w2.bootstrap_count(), 9);
    }

    #[test]
    fn workload_cost_is_bootstrap_dominated() {
        // The paper: bootstrapping consumes ~80% of ML application time.
        let params = SchemeParams::baseline();
        let model = CostModel::new(params, MadConfig::baseline());
        let w = helr_workload(&params, HelrShape::default());
        let total = model.workload_cost(&w);
        let boots = model.bootstrap_from(2).cost * w.bootstrap_count();
        let frac = boots.dram_total() as f64 / total.dram_total() as f64;
        assert!(frac > 0.6, "bootstrap fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn shallow_params_rejected() {
        let p = SchemeParams {
            limbs: 16,
            ..SchemeParams::baseline()
        };
        let _ = helr_workload(&p, HelrShape::default());
    }
}
