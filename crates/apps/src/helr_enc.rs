//! One encrypted HELR gradient-descent step on packed ciphertexts.
//!
//! This is the functional core of the paper's HELR workload (Figure 6a–e),
//! factored out of the `encrypted_logistic_regression` example so the
//! serving runtime can execute a training step as a server-side job: the
//! server holds encrypted features, labels and weights, and every gradient
//! step happens under encryption using the session's relinearization and
//! rotation keys.
//!
//! The layout follows HELR's packing: `xs[d]` holds feature `d` for every
//! sample in the batch (one sample per slot), `y01` holds the 0/1 labels,
//! and each weight is a replicated scalar in its own ciphertext.

use ckks::hoisting::{fold_stages, rotate_fold};
use ckks::{Ciphertext, Evaluator, GaloisKeys, SwitchingKey};
use simfhe::program::{CtDecl, Instr, Program};

/// Constant term of the HELR degree-3 sigmoid `σ(x) ≈ C0 + C1·x + C3·x³`.
pub const SIGMOID_C0: f64 = 0.5;
/// Linear coefficient of the HELR degree-3 sigmoid.
pub const SIGMOID_C1: f64 = 0.197;
/// Cubic coefficient of the HELR degree-3 sigmoid.
pub const SIGMOID_C3: f64 = -0.004;

/// Multiplicative depth consumed by one [`encrypted_lr_step`]: the inner
/// product (1), the sigmoid cube (2), its coefficient rescale (1), the
/// gradient product (1), the batch-mean rescale (1), and the learning-rate
/// rescale (1) — callers must budget at least this many spare limbs, plus
/// one, per step.
pub const LR_STEP_DEPTH: usize = 7;

/// The rungs `1, 2, 4, …, slots/2` of the batch mean's rotate-and-add
/// ladder.
fn lr_fold_rungs(slots: usize) -> Vec<i64> {
    (0..)
        .map(|i| 1i64 << i)
        .take_while(|&s| (s as usize) < slots)
        .collect()
}

/// The rotation steps [`encrypted_lr_step`] needs Galois keys for:
/// the batch mean's power-of-two ladder runs two rungs to a stage
/// ([`fold_stages`]), so beside `1, 2, 4, …, slots/2` each pair's combined
/// step `3, 12, 48, …`.
pub fn lr_fold_steps(slots: usize) -> Vec<i64> {
    fold_stages(&lr_fold_rungs(slots)).concat()
}

/// Mean over all `slots` slots via a rotate-and-add fold; the mean ends up
/// replicated in every slot.
///
/// # Panics
///
/// Panics if a Galois key of [`lr_fold_steps`] is missing.
pub fn slot_mean(ev: &Evaluator, gk: &GaloisKeys, ct: &Ciphertext, slots: usize) -> Ciphertext {
    let scale = ev.context().params().scale();
    let acc = rotate_fold(ev, ct, &fold_stages(&lr_fold_rungs(slots)), gk);
    ev.rescale(&ev.mul_scalar_no_rescale(&acc, 1.0 / slots as f64, scale))
}

/// One encrypted gradient-descent step of HELR logistic regression,
/// updating `weights` in place.
///
/// `rlk` is the raw `s² → s` switching key (a serving runtime's cache
/// hands these out without the `RelinKey` wrapper); `gk` must contain the
/// rotation keys of [`lr_fold_steps`].
///
/// # Panics
///
/// Panics if `weights` and `xs` disagree in length, are empty, or a
/// required Galois key is missing.
#[allow(clippy::too_many_arguments)] // mirrors the HELR step's natural signature
pub fn encrypted_lr_step(
    ev: &Evaluator,
    rlk: &SwitchingKey,
    gk: &GaloisKeys,
    weights: &mut [Ciphertext],
    xs: &[Ciphertext],
    y01: &Ciphertext,
    slots: usize,
    learning_rate: f64,
) {
    assert_eq!(weights.len(), xs.len(), "one feature column per weight");
    assert!(!weights.is_empty(), "at least one feature");
    let scale = ev.context().params().scale();
    // z = Σ_d w_d ⊙ x_d
    let mut z: Option<Ciphertext> = None;
    for (w, x) in weights.iter().zip(xs) {
        let (wa, xa) = ev.align_levels(w, x);
        let term = ev.mul_with_key(&wa, &xa, rlk);
        z = Some(match z {
            None => term,
            Some(a) => ev.add(&a, &term),
        });
    }
    let z = z.expect("at least one feature");
    // s = σ(z) = C0 + C1·z + C3·z³
    let z2 = ev.mul_with_key(&z, &z, rlk);
    let (z2a, za) = ev.align_levels(&z2, &z);
    let z3 = ev.mul_with_key(&z2a, &za, rlk);
    let c1z = ev.rescale(&ev.mul_scalar_no_rescale(&z, SIGMOID_C1, scale));
    let c3z3 = ev.rescale(&ev.mul_scalar_no_rescale(&z3, SIGMOID_C3, scale));
    let (a, b) = ev.align_levels(&c1z, &c3z3);
    let s = ev.add_scalar(&ev.add(&a, &b), SIGMOID_C0);
    // r = s − y
    let (sa, ya) = ev.align_levels(&s, y01);
    let r = ev.sub(&sa, &ya);
    // Per-feature gradient and update.
    for (w, x) in weights.iter_mut().zip(xs) {
        let (ra, xa) = ev.align_levels(&r, x);
        let g = ev.mul_with_key(&ra, &xa, rlk);
        let g_mean = slot_mean(ev, gk, &g, slots);
        let update = ev.rescale(&ev.mul_scalar_no_rescale(&g_mean, learning_rate, scale));
        let (wa, ua) = ev.align_levels(w, &update);
        *w = ev.sub(&wa, &ua);
    }
}

/// [`encrypted_lr_step`] expressed as an encrypted-program IR
/// [`Program`]: inputs `w0..w{dim}`, `x0..x{dim}`, `y` (all at `level`
/// limbs), outputs the updated weights `wout0..wout{dim}`.
///
/// The instruction stream is the *same* evaluator-call sequence as the
/// hard-coded step (the step's explicit `align_levels` calls are
/// byte-redundant — every binary evaluator op aligns internally), so
/// executing this program through `fhe_program::execute` produces
/// byte-identical weight ciphertexts; a test in the `fhe-program` crate
/// asserts it. Requires `level ≥ LR_STEP_DEPTH + 1`.
pub fn helr_step_program(dim: usize, slots: usize, level: usize, learning_rate: f64) -> Program {
    assert!(dim >= 1, "at least one feature");
    assert!(
        level > LR_STEP_DEPTH,
        "HELR step needs {} levels, got {level}",
        LR_STEP_DEPTH + 1
    );
    let mut instrs = Vec::new();
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
    // `value · a` then rescale — the `mul_scalar` + `rescale` idiom.
    let scaled = |instrs: &mut Vec<Instr>, dst: &str, a: &str, value: f64| {
        instrs.push(Instr::MulConst {
            dst: format!("{dst}#raw"),
            a: a.into(),
            value,
        });
        instrs.push(Instr::Rescale {
            dst: dst.into(),
            a: format!("{dst}#raw"),
        });
    };

    // z = Σ_d w_d ⊙ x_d
    instrs.push(mult("z", "w0", "x0"));
    for d in 1..dim {
        instrs.push(mult(&format!("t{d}"), &format!("w{d}"), &format!("x{d}")));
        instrs.push(add("z", "z", &format!("t{d}")));
    }
    // s = σ(z) = C0 + C1·z + C3·z³
    instrs.push(mult("z2", "z", "z"));
    instrs.push(mult("z3", "z2", "z"));
    scaled(&mut instrs, "c1z", "z", SIGMOID_C1);
    scaled(&mut instrs, "c3z3", "z3", SIGMOID_C3);
    instrs.push(add("s", "c1z", "c3z3"));
    instrs.push(Instr::AddConst {
        dst: "s".into(),
        a: "s".into(),
        value: SIGMOID_C0,
    });
    // r = s − y
    instrs.push(Instr::Sub {
        dst: "r".into(),
        a: "s".into(),
        b: "y".into(),
    });
    // Per-feature gradient, batch mean, and weight update.
    for d in 0..dim {
        let g = format!("g{d}");
        instrs.push(mult(&g, "r", &format!("x{d}")));
        let mut step = 1i64;
        while (step as usize) < slots {
            instrs.push(Instr::Rotate {
                dst: format!("{g}rot"),
                a: g.clone(),
                steps: step,
            });
            instrs.push(add(&g, &g, &format!("{g}rot")));
            step *= 2;
        }
        scaled(&mut instrs, &format!("gm{d}"), &g, 1.0 / slots as f64);
        scaled(
            &mut instrs,
            &format!("u{d}"),
            &format!("gm{d}"),
            learning_rate,
        );
        instrs.push(Instr::Sub {
            dst: format!("wout{d}"),
            a: format!("w{d}"),
            b: format!("u{d}"),
        });
    }

    let mut ct_inputs: Vec<CtDecl> = Vec::new();
    for d in 0..dim {
        ct_inputs.push(CtDecl {
            name: format!("w{d}"),
            level,
        });
    }
    for d in 0..dim {
        ct_inputs.push(CtDecl {
            name: format!("x{d}"),
            level,
        });
    }
    ct_inputs.push(CtDecl {
        name: "y".into(),
        level,
    });
    Program {
        name: "helr_step".into(),
        ct_inputs,
        pt_inputs: Vec::new(),
        matrices: Vec::new(),
        instrs,
        outputs: (0..dim).map(|d| format!("wout{d}")).collect(),
    }
}

/// The same update rule in the clear — the correctness reference for
/// [`encrypted_lr_step`]. `xs[d]` is feature `d` across the batch.
pub fn plain_lr_step(weights: &mut [f64], xs: &[Vec<f64>], y01: &[f64], learning_rate: f64) {
    let slots = y01.len();
    let z: Vec<f64> = (0..slots)
        .map(|b| (0..weights.len()).map(|d| weights[d] * xs[d][b]).sum())
        .collect();
    let s: Vec<f64> = z
        .iter()
        .map(|&v| SIGMOID_C0 + SIGMOID_C1 * v + SIGMOID_C3 * v * v * v)
        .collect();
    for (d, w) in weights.iter_mut().enumerate() {
        let g: f64 = (0..slots).map(|b| (s[b] - y01[b]) * xs[d][b]).sum::<f64>() / slots as f64;
        *w -= learning_rate * g;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, KeyGenerator};
    use fhe_math::cfft::Complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn encrypted_step_matches_plain_step() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(10)
                .scale_bits(30)
                .first_modulus_bits(40)
                .special_modulus_bits(34)
                .dnum(5)
                .build()
                .unwrap(),
        );
        let slots = ctx.params().slots();
        let levels = ctx.params().levels();
        let scale = ctx.params().scale();
        let mut rng = StdRng::seed_from_u64(31);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let rlk = keygen.relin_key(&mut rng, &sk);
        let gk = keygen.galois_keys(&mut rng, &sk, &lr_fold_steps(slots), false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());

        let dim = 3;
        let xs_plain: Vec<Vec<f64>> = (0..dim)
            .map(|d| {
                (0..slots)
                    .map(|b| ((b * 7 + d * 3) % 5) as f64 * 0.2 - 0.4)
                    .collect()
            })
            .collect();
        let y01: Vec<f64> = (0..slots).map(|b| ((b % 3) == 0) as u8 as f64).collect();
        let mut encrypt_vec = |v: &[f64]| {
            let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
            let pt = encoder.encode(&cv, levels, scale).unwrap();
            encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
        };
        let xs: Vec<Ciphertext> = xs_plain.iter().map(|c| encrypt_vec(c)).collect();
        let y_ct = encrypt_vec(&y01);
        let mut weights: Vec<Ciphertext> =
            (0..dim).map(|_| encrypt_vec(&vec![0.0; slots])).collect();
        let mut plain_weights = vec![0.0f64; dim];

        encrypted_lr_step(
            &ev,
            rlk.switching_key(),
            &gk,
            &mut weights,
            &xs,
            &y_ct,
            slots,
            1.0,
        );
        plain_lr_step(&mut plain_weights, &xs_plain, &y01, 1.0);

        for (d, (w, p)) in weights.iter().zip(&plain_weights).enumerate() {
            let got = encoder.decode(&decryptor.decrypt(w, &sk))[0].re;
            assert!((got - p).abs() < 5e-2, "weight {d}: {got} vs {p}");
        }
    }

    #[test]
    fn fold_steps_cover_the_slot_range() {
        assert_eq!(lr_fold_steps(16), vec![1, 2, 3, 4, 8, 12]);
        // An odd last rung is a stage of its own.
        assert_eq!(lr_fold_steps(8), vec![1, 2, 3, 4]);
        assert_eq!(lr_fold_steps(1), Vec::<i64>::new());
    }
}
