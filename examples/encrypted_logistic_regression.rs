//! Logistic-regression training on encrypted data — a functional,
//! miniature version of the paper's HELR workload (Figure 6a–e).
//!
//! The server holds encrypted features, encrypted labels and encrypted
//! weights; every gradient step happens under encryption (the step itself
//! is `mad::apps::helr_step_program` run through `mad::program::execute`,
//! the same program the serving runtime executes as a `RunProgram` job).
//! Each step consumes `LR_STEP_DEPTH` levels, so the second runs at the
//! weights' level with the features and labels dropped to it. After two
//! steps the decrypted weights are checked against a plaintext run of the
//! identical algorithm (`mad::apps::plain_lr_step`), and the simulator
//! reports what full-scale HELR training would cost with and without the
//! MAD optimizations.
//!
//! Run with: `cargo run --release --example encrypted_logistic_regression`

use mad::apps::{helr_step_program, plain_lr_step, synthetic_mnist_like};
use mad::math::cfft::Complex;
use mad::program::{execute, ExecInputs, ExecKeys};
use mad::scheme::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};
use mad::sim::hardware::HardwareConfig;
use mad::sim::program::ProgramEnv;
use mad::sim::{CostModel, MadConfig, SchemeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FEATURES: usize = 4;
const ITERATIONS: usize = 2;
const LEARNING_RATE: f64 = 1.0;

fn main() {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(15)
            .scale_bits(30)
            .first_modulus_bits(40)
            .special_modulus_bits(34)
            .dnum(5)
            .build()
            .expect("valid parameters"),
    );
    let slots = ctx.params().slots();
    let levels = ctx.params().levels();
    let mut rng = StdRng::seed_from_u64(77);
    let data = synthetic_mnist_like(&mut rng, slots, FEATURES);

    // The step's rotations are the same at every level: take the Galois
    // keys from the full-level program's manifest.
    let info = helr_step_program(FEATURES, slots, levels, LEARNING_RATE)
        .validate(&ProgramEnv { levels, slots })
        .expect("the HELR step validates");
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let gk = keygen.galois_keys(&mut rng, &sk, &info.manifest.galois_steps, false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let decryptor = Decryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());

    // Pack: xs[d] = feature d across the batch, y01 = labels as 0/1.
    let scale = ctx.params().scale();
    let columns: Vec<Vec<f64>> = (0..FEATURES)
        .map(|d| data.features.iter().map(|row| row[d]).collect())
        .collect();
    let y01: Vec<f64> = data.labels.iter().map(|&l| (l + 1.0) / 2.0).collect();
    let encrypt_vec = |v: &[f64], rng: &mut StdRng| {
        let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let pt = encoder.encode(&cv, levels, scale).expect("encodes");
        encryptor.encrypt_symmetric(rng, &pt, &sk)
    };
    let mut xs: Vec<Ciphertext> = columns.iter().map(|c| encrypt_vec(c, &mut rng)).collect();
    let mut y_ct = encrypt_vec(&y01, &mut rng);
    let mut weights: Vec<Ciphertext> = (0..FEATURES)
        .map(|_| encrypt_vec(&vec![0.0; slots], &mut rng))
        .collect();
    let mut plain_weights = vec![0.0f64; FEATURES];

    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };
    println!("training {ITERATIONS} encrypted iterations on {slots} samples × {FEATURES} features");
    for it in 0..ITERATIONS {
        // Each step runs at the weights' level, with the features and
        // labels dropped to it.
        let level = weights[0].limb_count();
        xs = xs.iter().map(|x| evaluator.drop_to(x, level)).collect();
        y_ct = evaluator.drop_to(&y_ct, level);
        let mut inputs = ExecInputs::default();
        for (d, (w, x)) in weights.iter().zip(&xs).enumerate() {
            inputs.cts.insert(format!("w{d}"), w.clone());
            inputs.cts.insert(format!("x{d}"), x.clone());
        }
        inputs.cts.insert("y".into(), y_ct.clone());
        let step = helr_step_program(FEATURES, slots, level, LEARNING_RATE);
        weights = execute(&evaluator, &encoder, &step, &inputs, keys)
            .expect("the HELR step executes")
            .into_iter()
            .map(|(_, w)| w)
            .collect();
        plain_lr_step(&mut plain_weights, &columns, &y01, LEARNING_RATE);
        println!(
            "  iteration {} done (weights at {} limbs)",
            it + 1,
            weights[0].limb_count()
        );
    }

    // Decrypt and compare to the plaintext run of the same algorithm.
    let decrypted: Vec<f64> = weights
        .iter()
        .map(|w| encoder.decode(&decryptor.decrypt(w, &sk))[0].re)
        .collect();
    println!("encrypted weights: {decrypted:?}");
    println!("plaintext weights: {plain_weights:?}");
    for (d, (e, p)) in decrypted.iter().zip(&plain_weights).enumerate() {
        assert!((e - p).abs() < 5e-2, "weight {d}: {e} vs {p}");
    }
    let acc = {
        let correct = data
            .features
            .iter()
            .zip(&data.labels)
            .filter(|(x, &y)| {
                let z: f64 = x.iter().zip(&decrypted).map(|(a, b)| a * b).sum();
                (z >= 0.0) == (y > 0.0)
            })
            .count();
        correct as f64 / slots as f64
    };
    println!("accuracy with decrypted weights: {:.1}% ✓", acc * 100.0);
    assert!(acc > 0.6, "training should beat chance");

    // --- What would full-scale HELR training cost? -------------------
    let shape = mad::apps::HelrShape::default();
    let gpu = HardwareConfig::gpu();
    for (label, params, config, cache) in [
        (
            "GPU-6 (original)",
            SchemeParams::baseline(),
            MadConfig::baseline(),
            6.0,
        ),
        (
            "GPU+MAD-32",
            SchemeParams::mad_practical(),
            MadConfig::all(),
            32.0,
        ),
    ] {
        let p = mad::apps::helr_training_program(&params, shape);
        let cost = mad::apps::price(&CostModel::new(params, config), &p).cost;
        let hw = gpu.with_cache_mb(cache);
        println!(
            "{label}: {:.2} s for {} iterations ({} bootstraps), {}",
            hw.runtime_seconds(&cost),
            shape.iterations,
            p.instrs.iter().filter(|i| i.name() == "Bootstrap").count(),
            if hw.is_memory_bound(&cost) {
                "memory-bound"
            } else {
                "compute-bound"
            },
        );
    }
}
