//! HELR logistic-regression training (Han et al., AAAI'19), as evaluated
//! by the MAD paper (Figure 6a–e): [`helr_training_program`], the whole
//! training run as one [`Program`] — per iteration, the slot-packed
//! inner product and its fold, the polynomial sigmoid, and the gradient
//! update; a bootstrap every `iters_per_bootstrap` iterations (3 at the
//! paper's parameters).
//!
//! The functional step and its plaintext reference are in
//! [`crate::helr_enc`].

use crate::helr_enc::SIGMOID_C0;
use simfhe::bootstrap::EVAL_MOD_DEPTH;
use simfhe::params::SchemeParams;
use simfhe::program::{CtDecl, Instr, Program, PtDecl};

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

/// Builds HELR training at the given parameters as one program over the
/// weights `w` and the features `x`, both entering at the post-bootstrap
/// level budget. The bootstrap cadence is derived from that budget — 3
/// iterations at both the baseline and MAD-optimal parameter sets,
/// matching §4.3 — and each bootstrap refreshes `w` to the budget.
pub fn helr_training_program(params: &SchemeParams, shape: HelrShape) -> Program {
    let consumed = 2 * params.fft_iter + 2 + EVAL_MOD_DEPTH;
    assert!(
        params.limbs > consumed + HELR_ITERATION_DEPTH,
        "parameters too shallow for HELR"
    );
    let budget = params.limbs - consumed;
    let iters_per_bootstrap = (budget.saturating_sub(1) / HELR_ITERATION_DEPTH).clamp(1, 3);

    // Rungs per slot-packed inner product: log2 of the replicated feature
    // block (Halevi–Shoup style fold).
    let fold_rungs = shape.features.next_power_of_two().trailing_zeros();
    let mult = |dst: &str, a: &str, b: &str| Instr::Mult {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    };
    let add = |dst: &str, a: &str, b: &str| Instr::Add {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    };
    let fold = |instrs: &mut Vec<Instr>, acc: &str| {
        for i in 0..fold_rungs {
            instrs.push(Instr::Rotate {
                dst: "t".into(),
                a: acc.into(),
                steps: 1 << i,
            });
            instrs.push(add(acc, acc, "t"));
        }
    };

    let mut instrs = Vec::new();
    for it in 0..shape.iterations {
        if it > 0 && it % iters_per_bootstrap == 0 {
            instrs.push(Instr::Bootstrap {
                dst: "w".into(),
                a: "w".into(),
                to_level: budget,
            });
        }
        // z = X·w: replicate weights, multiply, fold-rotate-add.
        instrs.push(mult("z", "w", "x"));
        fold(&mut instrs, "z");
        // Degree-3 sigmoid: two Mult levels plus the constant term.
        instrs.push(mult("z2", "z", "z"));
        instrs.push(mult("s", "z2", "z"));
        instrs.push(Instr::AddConst {
            dst: "s".into(),
            a: "s".into(),
            value: SIGMOID_C0,
        });
        // Gradient: X^T · σ — transpose fold plus masking PtMult.
        fold(&mut instrs, "s");
        instrs.push(Instr::PtMult {
            dst: "g".into(),
            a: "s".into(),
            pt: "mask".into(),
        });
        instrs.push(Instr::Rescale {
            dst: "g".into(),
            a: "g".into(),
        });
        // Weight update.
        instrs.push(add("w", "w", "g"));
    }
    Program {
        name: format!(
            "HELR {}x{} ({} iters, bootstrap every {})",
            shape.batch, shape.features, shape.iterations, iters_per_bootstrap
        ),
        ct_inputs: ["w", "x"]
            .map(|name| CtDecl {
                name: name.into(),
                level: budget,
            })
            .into(),
        pt_inputs: vec![PtDecl {
            name: "mask".into(),
        }],
        matrices: Vec::new(),
        instrs,
        outputs: vec!["w".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::synthetic_mnist_like;
    use crate::figure6::price;
    use crate::helr_enc::{plain_lr_step, SIGMOID_C0, SIGMOID_C1, SIGMOID_C3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use simfhe::opts::MadConfig;
    use simfhe::primitives::CostModel;
    use simfhe::Cost;

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

    fn bootstraps(p: &Program) -> usize {
        p.instrs.iter().filter(|i| i.name() == "Bootstrap").count()
    }

    #[test]
    fn workload_bootstrap_cadence_matches_paper() {
        // §4.3: "with our optimal parameter set we need to perform
        // bootstrapping after every three training iterations".
        let p = helr_training_program(&SchemeParams::mad_optimal(), HelrShape::default());
        // 30 iterations, bootstrap before iterations 3,6,…,27 → 9.
        assert_eq!(bootstraps(&p), 9);
        let p2 = helr_training_program(&SchemeParams::baseline(), HelrShape::default());
        assert_eq!(bootstraps(&p2), 9);
    }

    #[test]
    fn training_cost_is_bootstrap_dominated() {
        // The paper: bootstrapping consumes ~80% of ML application time.
        let params = SchemeParams::baseline();
        let model = CostModel::new(params, MadConfig::baseline());
        let p = helr_training_program(&params, HelrShape::default());
        let priced = price(&model, &p);
        let boots: Cost = p
            .instrs
            .iter()
            .zip(&priced.per_instr)
            .filter(|(i, _)| i.name() == "Bootstrap")
            .map(|(_, &c)| c)
            .sum();
        let frac = boots.dram_total() as f64 / priced.cost.dram_total() as f64;
        assert!(frac > 0.6, "bootstrap fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "too shallow")]
    fn shallow_params_rejected() {
        let p = SchemeParams {
            limbs: 16,
            ..SchemeParams::baseline()
        };
        let _ = helr_training_program(&p, HelrShape::default());
    }
}
