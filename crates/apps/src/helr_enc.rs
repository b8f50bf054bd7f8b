//! One encrypted HELR gradient-descent step on packed ciphertexts.
//!
//! This is the functional core of the paper's HELR workload (Figure 6a–e),
//! written once as a [`Program`] ([`helr_step_program`]): the
//! `encrypted_logistic_regression` example runs it through
//! `fhe_program::execute`, and the serving runtime runs the same program
//! as a `RunProgram` job — the server holds encrypted features, labels and
//! weights, and every gradient step happens under encryption using the
//! session's relinearization and rotation keys. [`plain_lr_step`] is the
//! plaintext reference both are checked against.
//!
//! The layout follows HELR's packing: `xs[d]` holds feature `d` for every
//! sample in the batch (one sample per slot), `y01` holds the 0/1 labels,
//! and each weight is a replicated scalar in its own ciphertext.

use simfhe::program::{CtDecl, Instr, Program};

/// Constant term of the HELR degree-3 sigmoid `σ(x) ≈ C0 + C1·x + C3·x³`.
pub const SIGMOID_C0: f64 = 0.5;
/// Linear coefficient of the HELR degree-3 sigmoid.
pub const SIGMOID_C1: f64 = 0.197;
/// Cubic coefficient of the HELR degree-3 sigmoid.
pub const SIGMOID_C3: f64 = -0.004;

/// Multiplicative depth consumed by one [`helr_step_program`] step: the
/// inner product (1), the sigmoid cube (2), its coefficient rescale (1),
/// the gradient product (1), the batch-mean rescale (1), and the
/// learning-rate rescale (1) — callers must budget at least this many
/// spare limbs, plus one, per step.
pub const LR_STEP_DEPTH: usize = 7;

/// One encrypted gradient-descent step of HELR logistic regression as an
/// encrypted-program IR [`Program`]: inputs `w0..w{dim}`, `x0..x{dim}`,
/// `y` (all at `level` limbs), outputs the updated weights
/// `wout0..wout{dim}`.
///
/// `z = Σ_d w_d ⊙ x_d`, `s = σ(z)` by the degree-3 sigmoid, `r = s − y`,
/// then per feature the gradient `r ⊙ x_d`, its batch mean over all
/// `slots` slots (a rotate-and-add ladder the validator pairs into
/// stages, so the manifest's Galois steps include each pair's combined
/// step), and `w_d − learning_rate · mean`. The outputs sit
/// [`LR_STEP_DEPTH`] limbs below `level`; a test in the `fhe-program`
/// crate pins the step's weight ciphertexts to a recorded digest.
/// Requires `level ≥ LR_STEP_DEPTH + 1`.
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
/// [`helr_step_program`]. `xs[d]` is feature `d` across the batch and
/// `y01` the 0/1 labels; the gradient `(σ(z) − y₀₁)·x` is HELR's
/// `−σ(−y·z)·y·x` for labels `y = ±1`, since the cubic satisfies
/// `σ(−x) = 1 − σ(x)`.
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
