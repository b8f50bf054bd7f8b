//! Executor identity: the HELR gradient step (`fhe_apps::helr_step_program`
//! run through `execute`) must hash to the digest recorded for it and, run
//! twice, decrypt to two plaintext steps; the three shipped workloads must
//! decrypt to their plaintext references.

use ckks::hoisting::LinearTransform;
use ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};
use fhe_apps::helr_enc::{helr_step_program, plain_lr_step, LR_STEP_DEPTH};
use fhe_math::cfft::Complex;
use fhe_program::{execute, workloads, ExecInputs, ExecKeys};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simfhe::program::ProgramEnv;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Setup {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    ev: Evaluator,
    keygen: KeyGenerator,
    rng: StdRng,
    sk: ckks::SecretKey,
}

fn setup(levels: usize, seed: u64) -> Setup {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(levels)
            .scale_bits(30)
            .first_modulus_bits(40)
            .special_modulus_bits(34)
            .dnum(levels.min(5))
            .build()
            .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    Setup {
        encoder: Encoder::new(ctx.clone()),
        encryptor: Encryptor::new(ctx.clone()),
        decryptor: Decryptor::new(ctx.clone()),
        ev: Evaluator::new(ctx.clone()),
        keygen,
        ctx,
        rng,
        sk,
    }
}

impl Setup {
    fn encrypt(&mut self, v: &[f64], level: usize) -> Ciphertext {
        let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let pt = self
            .encoder
            .encode(&cv, level, self.ctx.params().scale())
            .unwrap();
        self.encryptor
            .encrypt_symmetric(&mut self.rng, &pt, &self.sk)
    }

    fn decrypt(&self, ct: &Ciphertext) -> Vec<f64> {
        self.encoder
            .decode(&self.decryptor.decrypt(ct, &self.sk))
            .iter()
            .map(|c| c.re)
            .collect()
    }
}

/// The HELR step's bindings: weights `w{d}`, feature columns `x{d}`,
/// labels `y`.
fn helr_inputs(weights: &[Ciphertext], xs: &[Ciphertext], y: &Ciphertext) -> ExecInputs {
    let mut inputs = ExecInputs::default();
    for (d, (w, x)) in weights.iter().zip(xs).enumerate() {
        inputs.cts.insert(format!("w{d}"), w.clone());
        inputs.cts.insert(format!("x{d}"), x.clone());
    }
    inputs.cts.insert("y".into(), y.clone());
    inputs
}

/// Feature `d` of the HELR tests' batch, one sample per slot.
fn helr_column(d: usize, slots: usize) -> Vec<f64> {
    (0..slots)
        .map(|b| ((b * 7 + d * 3) % 5) as f64 * 0.2 - 0.4)
        .collect()
}

/// 0/1 labels of the HELR tests' batch.
fn helr_labels(slots: usize) -> Vec<f64> {
    (0..slots).map(|b| ((b % 3) == 0) as u8 as f64).collect()
}

/// FNV-1a over a byte stream: a dependency-free digest for the pinned
/// output below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The deepest end-to-end check of the kernels: one HELR step runs every
/// hot kernel — encode, encrypt, the rotation folds, relinearization
/// (ModUp/ModDown), and rescale — and the weight ciphertexts must hash to
/// the digest recorded on the commit before the kernel selector went,
/// where a context on the reference scalar kernels and one on the
/// unrolled kernels both produced it. Re-recorded once, when every key
/// became seeded: the keys are drawn through the seeded generators, and
/// the digest is the value the code before that change produced from them.
#[test]
fn helr_step_matches_the_recorded_digest() {
    let levels = 10;
    let mut s = setup(levels, 31);
    let slots = s.ctx.params().slots();
    let dim = 3;
    let prog = helr_step_program(dim, slots, levels, 1.0);
    let info = prog.validate(&ProgramEnv { levels, slots }).unwrap();
    let rlk = s.keygen.relin_key_compressed(&mut s.rng, &s.sk);
    let gk = s
        .keygen
        .galois_keys_compressed(&mut s.rng, &s.sk, &info.manifest.galois_steps, false);

    let xs: Vec<Ciphertext> = (0..dim)
        .map(|d| s.encrypt(&helr_column(d, slots), levels))
        .collect();
    let y_ct = s.encrypt(&helr_labels(slots), levels);
    let weights: Vec<Ciphertext> = (0..dim)
        .map(|_| s.encrypt(&vec![0.0; slots], levels))
        .collect();
    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };
    let out = execute(
        &s.ev,
        &s.encoder,
        &prog,
        &helr_inputs(&weights, &xs, &y_ct),
        keys,
    )
    .expect("program executes");

    let mut hash = 0xcbf2_9ce4_8422_2325;
    for (_, ct) in &out {
        for w in ct.c0().flat().iter().chain(ct.c1().flat()) {
            fnv1a(&mut hash, &w.to_le_bytes());
        }
    }
    assert_eq!(hash, 0x6002_332f_338d_8465, "{hash:#018x}");
}

/// Two training steps as the example runs them: step one at full level,
/// step two at the weights' level with the features and labels dropped
/// to it, decrypted against two plaintext steps.
#[test]
fn two_helr_steps_match_two_plain_steps() {
    let levels = 2 * LR_STEP_DEPTH + 1;
    let mut s = setup(levels, 43);
    let slots = s.ctx.params().slots();
    let dim = 3;
    let first = helr_step_program(dim, slots, levels, 1.0);
    let info = first.validate(&ProgramEnv { levels, slots }).unwrap();
    let rlk = s.keygen.relin_key(&mut s.rng, &s.sk);
    let gk = s
        .keygen
        .galois_keys(&mut s.rng, &s.sk, &info.manifest.galois_steps, false);
    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };

    let xs_plain: Vec<Vec<f64>> = (0..dim).map(|d| helr_column(d, slots)).collect();
    let y01 = helr_labels(slots);
    let mut xs: Vec<Ciphertext> = xs_plain.iter().map(|c| s.encrypt(c, levels)).collect();
    let mut y_ct = s.encrypt(&y01, levels);
    let mut plain_weights: Vec<f64> = (0..dim).map(|d| 0.01 * d as f64).collect();
    let mut weights: Vec<Ciphertext> = plain_weights
        .iter()
        .map(|&w| s.encrypt(&vec![w; slots], levels))
        .collect();

    for _ in 0..2 {
        let level = weights[0].limb_count();
        xs = xs.iter().map(|x| s.ev.drop_to(x, level)).collect();
        y_ct = s.ev.drop_to(&y_ct, level);
        let prog = helr_step_program(dim, slots, level, 1.0);
        let out = execute(
            &s.ev,
            &s.encoder,
            &prog,
            &helr_inputs(&weights, &xs, &y_ct),
            keys,
        )
        .expect("program executes");
        weights = out.into_iter().map(|(_, ct)| ct).collect();
        assert_eq!(weights[0].limb_count(), level - LR_STEP_DEPTH);
        plain_lr_step(&mut plain_weights, &xs_plain, &y01, 1.0);
    }

    for (d, (w, p)) in weights.iter().zip(&plain_weights).enumerate() {
        for (b, got) in s.decrypt(w).into_iter().enumerate() {
            assert!((got - p).abs() < 1e-3, "weight {d} slot {b}: {got} vs {p}");
        }
    }
}

#[test]
fn aggregate_program_matches_plain_reference() {
    let mut s = setup(6, 41);
    let slots = s.ctx.params().slots();
    let rlk = s.keygen.relin_key(&mut s.rng, &s.sk);
    let prog = workloads::aggregate_program(slots, 6);
    let info = prog.validate(&ProgramEnv { levels: 6, slots }).unwrap();
    let gk = s
        .keygen
        .galois_keys(&mut s.rng, &s.sk, &info.manifest.galois_steps, false);

    let vs: Vec<Vec<f64>> = (0..3)
        .map(|d| {
            (0..slots)
                .map(|b| ((b * 5 + d) % 9) as f64 / 10.0)
                .collect()
        })
        .collect();
    let mut inputs = ExecInputs::default();
    for (d, v) in vs.iter().enumerate() {
        let ct = s.encrypt(v, 6);
        inputs.cts.insert(format!("v{d}"), ct);
    }
    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };
    let out = execute(&s.ev, &s.encoder, &prog, &inputs, keys).expect("aggregate executes");
    let by_name: BTreeMap<&str, &Ciphertext> = out.iter().map(|(n, c)| (n.as_str(), c)).collect();

    let global_mean: f64 = vs.iter().flatten().sum::<f64>() / (3 * slots) as f64;
    let mean = s.decrypt(by_name["mean"]);
    for (b, &got) in mean.iter().enumerate() {
        assert!(
            (got - global_mean).abs() < 2e-2,
            "mean slot {b}: {got} vs {global_mean}"
        );
    }

    // Two smooth-max folds m ← (m+v)/2 + (m−v)²/2 in the clear.
    let smax_ref: Vec<f64> = (0..slots)
        .map(|b| {
            let mut m = vs[0][b];
            for v in [vs[1][b], vs[2][b]] {
                m = (m + v) / 2.0 + (m - v) * (m - v) / 2.0;
            }
            m
        })
        .collect();
    let smax = s.decrypt(by_name["smax"]);
    for (b, (&got, &want)) in smax.iter().zip(&smax_ref).enumerate() {
        assert!((got - want).abs() < 2e-2, "smax slot {b}: {got} vs {want}");
    }
}

#[test]
fn dot_product_program_matches_plain_reference() {
    let mut s = setup(4, 41);
    let slots = s.ctx.params().slots();
    let diagonals = 8;
    let prog = workloads::dot_product_program(slots, 4, diagonals);
    let info = prog.validate(&ProgramEnv { levels: 4, slots }).unwrap();
    let gk = s
        .keygen
        .galois_keys(&mut s.rng, &s.sk, &info.manifest.galois_steps, false);

    // Database rows packed as the first `diagonals` diagonals.
    let mut diags = BTreeMap::new();
    for d in 0..diagonals {
        let diag: Vec<Complex> = (0..slots)
            .map(|j| Complex::new(((j * 3 + d * 5) % 7) as f64 * 0.1 - 0.2, 0.0))
            .collect();
        diags.insert(d, diag);
    }
    let lt = LinearTransform::from_diagonals(diags.clone(), slots);
    let query: Vec<f64> = (0..slots)
        .map(|b| ((b * 2 + 1) % 5) as f64 * 0.15)
        .collect();

    let mut inputs = ExecInputs::default();
    let q_ct = s.encrypt(&query, 4);
    inputs.cts.insert("query".into(), q_ct);
    inputs.mats.insert("db".into(), lt);
    let keys = ExecKeys {
        relin: None,
        galois: Some(&gk),
    };
    let out = execute(&s.ev, &s.encoder, &prog, &inputs, keys).expect("dot-product executes");
    let scores = s.decrypt(&out[0].1);

    // y[j] = Σ_d diag_d[j] · query[(j + d) mod slots], scaled by 1/8.
    for j in 0..slots {
        let want: f64 = (0..diagonals)
            .map(|d| diags[&d][j].re * query[(j + d) % slots])
            .sum::<f64>()
            * 0.125;
        assert!(
            (scores[j] - want).abs() < 2e-2,
            "score slot {j}: {} vs {want}",
            scores[j]
        );
    }
}

#[test]
fn sha_stress_program_matches_plain_gates() {
    let mut s = setup(3, 41);
    let slots = s.ctx.params().slots();
    let (rot_a, rot_b) = (1, 4);
    let prog = workloads::sha256_stress_program(3, rot_a, rot_b);
    let info = prog.validate(&ProgramEnv { levels: 3, slots }).unwrap();
    assert_eq!(info.manifest.galois_steps, vec![rot_a, rot_b]);
    let rlk = s.keygen.relin_key(&mut s.rng, &s.sk);
    let gk = s
        .keygen
        .galois_keys(&mut s.rng, &s.sk, &info.manifest.galois_steps, false);

    let bits = |seed: usize| -> Vec<f64> {
        (0..slots)
            .map(|b| f64::from((b * 31 + seed * 17).is_multiple_of(3)))
            .collect()
    };
    let (x, y, z, w) = (bits(0), bits(1), bits(2), bits(3));
    let mut inputs = ExecInputs::default();
    for (name, v) in [("x", &x), ("y", &y), ("z", &z), ("w", &w)] {
        let ct = s.encrypt(v, 3);
        inputs.cts.insert(name.into(), ct);
    }
    let keys = ExecKeys {
        relin: Some(rlk.switching_key()),
        galois: Some(&gk),
    };
    let out = execute(&s.ev, &s.encoder, &prog, &inputs, keys).expect("sha stress executes");
    let digest = s.decrypt(&out[0].1);

    let xor = |a: f64, b: f64| a + b - 2.0 * a * b;
    for j in 0..slots {
        let (ra, rb) = (
            x[(j + rot_a as usize) % slots],
            x[(j + rot_b as usize) % slots],
        );
        let want =
            xor(ra, rb) + (w[j] + y[j] * (z[j] - w[j])) + (x[j] * y[j] + xor(x[j], y[j]) * z[j]);
        assert!(
            (digest[j] - want).abs() < 2e-2,
            "digest slot {j}: {} vs {want}",
            digest[j]
        );
    }
}
