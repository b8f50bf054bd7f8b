//! Cross-crate integration: the functional scheme, the applications and
//! the simulator working together through the umbrella crate.

use mad::apps::{helr_training_program, plain_lr_step, price, synthetic_mnist_like, HelrShape};
use mad::math::cfft::Complex;
use mad::scheme::{
    CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};
use mad::sim::hardware::HardwareConfig;
use mad::sim::{CostModel, MadConfig, SchemeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn functional_pipeline_through_umbrella_reexports() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(7)
            .levels(4)
            .scale_bits(36)
            .first_modulus_bits(44)
            .dnum(2)
            .build()
            .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(500);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let decryptor = Decryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());

    let xs: Vec<Complex> = (0..encoder.slots())
        .map(|i| Complex::new(0.02 * i as f64 - 0.5, 0.0))
        .collect();
    let pt = encoder.encode(&xs, 4, ctx.params().scale()).unwrap();
    let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    // p(x) = (x² + x) computed homomorphically two ways must agree.
    let sq_mrg = evaluator.mul(&ct, &ct, &rlk);
    let sq_std = evaluator.mul_standard(&ct, &ct, &rlk);
    for sq in [sq_mrg, sq_std] {
        let sum = evaluator.add(&sq, &evaluator.drop_to(&ct, sq.limb_count()));
        let out = encoder.decode(&decryptor.decrypt(&sum, &sk));
        for (i, (o, x)) in out.iter().zip(&xs).enumerate() {
            let want = x.re * x.re + x.re;
            assert!((o.re - want).abs() < 1e-3, "slot {i}: {} vs {want}", o.re);
        }
    }
}

#[test]
fn simulated_helr_improves_under_mad_on_every_design() {
    // Crosses fhe-apps (schedule) and simfhe (cost + hardware): MAD must
    // reduce HELR training time on each memory-bound design.
    let shape = HelrShape::default();
    let base_p = helr_training_program(&SchemeParams::baseline(), shape);
    let mad_p = helr_training_program(&SchemeParams::mad_practical(), shape);
    let base_model = CostModel::new(SchemeParams::baseline(), MadConfig::baseline());
    let base_cost = price(&base_model, &base_p).cost;
    let mad_model = CostModel::new(SchemeParams::mad_practical(), MadConfig::all());
    let mad_cost = price(&mad_model, &mad_p).cost;
    for hw in [HardwareConfig::gpu(), HardwareConfig::f1()] {
        let hw32 = hw.with_cache_mb(32.0);
        let before = hw32.runtime_seconds(&base_cost);
        let after = hw32.runtime_seconds(&mad_cost);
        assert!(
            after < before,
            "{}: MAD must speed up HELR ({before:.3}s -> {after:.3}s)",
            hw.name
        );
    }
}

#[test]
fn plaintext_reference_learns_what_the_schedule_models() {
    // The program's iteration count and the plaintext trainer line up:
    // running the reference for the scheduled iteration count converges.
    let mut rng = StdRng::seed_from_u64(321);
    let data = synthetic_mnist_like(&mut rng, 256, 24);
    let shape = HelrShape {
        iterations: 30,
        features: 24,
        batch: 256,
    };
    let p = helr_training_program(&SchemeParams::baseline(), shape);
    assert!(!p.instrs.is_empty());
    let columns: Vec<Vec<f64>> = (0..24)
        .map(|d| data.features.iter().map(|row| row[d]).collect())
        .collect();
    let y01: Vec<f64> = data.labels.iter().map(|&l| (l + 1.0) / 2.0).collect();
    let mut weights = vec![0.0; 24];
    for _ in 0..shape.iterations {
        plain_lr_step(&mut weights, &columns, &y01, 1.0);
    }
    let correct = data
        .features
        .iter()
        .zip(&data.labels)
        .filter(|(x, &y)| {
            let z: f64 = x.iter().zip(&weights).map(|(a, b)| a * b).sum();
            (z >= 0.0) == (y > 0.0)
        })
        .count();
    assert!(correct as f64 / data.len() as f64 > 0.85);
}

#[test]
fn simulator_and_functional_library_agree_on_structure() {
    // The simulator's per-level digit count β matches the functional
    // library's decomposition for the same shape parameters.
    let params = CkksParams::builder()
        .log_degree(6)
        .levels(6)
        .scale_bits(30)
        .first_modulus_bits(36)
        .dnum(3)
        .build()
        .unwrap();
    let ctx = CkksContext::new(params);
    let sim_params = SchemeParams {
        log_n: 6,
        log_q: 30,
        limbs: 6,
        dnum: 3,
        fft_iter: 1,
    };
    for ell in 1..=6usize {
        let functional_beta = ctx.params().beta_at(ell);
        // The simulator uses the paper's ⌈(ℓ+1)/α⌉ convention (it counts
        // the raised limb); the functional library splits exactly ℓ limbs.
        // Both must never exceed dnum and must cover all limbs.
        assert!(functional_beta <= 3);
        assert!(sim_params.beta_at(ell) <= 3);
        let covered: usize = (0..functional_beta)
            .map(|j| ctx.digit_range(ell, j).len())
            .sum();
        assert_eq!(covered, ell, "digits must tile ℓ = {ell}");
    }
}

#[test]
fn mad_reduces_dram_for_every_primitive_at_scale() {
    let base = CostModel::new(SchemeParams::baseline(), MadConfig::baseline());
    let mad = CostModel::new(SchemeParams::baseline(), MadConfig::all());
    for ell in [10usize, 20, 35] {
        assert!(mad.mult(ell).dram_total() <= base.mult(ell).dram_total());
        assert!(mad.rotate(ell).dram_total() <= base.rotate(ell).dram_total());
        assert!(mad.rescale(ell).dram_total() <= base.rescale(ell).dram_total());
    }
}
