//! What a program run holds resident: a register lives until its last
//! read, so the high-water of a run does not grow with the number of
//! temporaries a program names, only with how many are live at once.
//!
//! Its own test binary: the counting allocator sees every thread of the
//! process, so nothing else may run beside the measured execution.

#[path = "../../serve/tests/support/counting_alloc.rs"]
mod counting_alloc;

use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_program::program::{CtDecl, Instr, Program, ProgramEnv};
use fhe_program::{execute_validated, ExecInputs, ExecKeys};
use rand::rngs::StdRng;
use rand::SeedableRng;

const LEVELS: usize = 3;

/// `k` rungs `t_i ← x + acc; acc ← acc + t_i`, each `t_i` its own name:
/// every `t_i` is dead once the rung that adds it has run.
fn rungs(k: usize) -> Program {
    let add = |dst: &str, a: &str, b: &str| Instr::Add {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    };
    let instrs = (0..k)
        .flat_map(|i| {
            let t = format!("t{i}");
            [add(&t, "x", "acc"), add("acc", "acc", &t)]
        })
        .collect();
    Program {
        name: format!("rungs{k}"),
        ct_inputs: ["x", "acc"]
            .iter()
            .map(|name| CtDecl {
                name: (*name).into(),
                level: LEVELS,
            })
            .collect(),
        instrs,
        outputs: vec!["acc".into()],
        ..Program::default()
    }
}

#[test]
fn a_runs_high_water_does_not_grow_with_its_dead_temporaries() {
    // 4096 coefficients on three limbs: a ciphertext is 192 KiB, far above
    // the register file's own bookkeeping.
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(12)
            .levels(LEVELS)
            .scale_bits(40)
            .first_modulus_bits(50)
            .dnum(3)
            .build()
            .unwrap(),
    );
    let (encoder, ev) = (Encoder::new(ctx.clone()), Evaluator::new(ctx.clone()));
    let mut rng = StdRng::seed_from_u64(0x1e5);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let encryptor = Encryptor::new(ctx.clone());
    let mut encrypt = |x: f64| {
        let pt = encoder
            .encode(&[Complex::new(x, 0.0)], LEVELS, ctx.params().scale())
            .unwrap();
        encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
    };
    let mut inputs = ExecInputs::default();
    inputs.cts.insert("x".into(), encrypt(0.25));
    inputs.cts.insert("acc".into(), encrypt(0.5));
    let ciphertext = 8 * 2 * inputs.cts["x"].c0().flat().len();
    let env = ProgramEnv {
        levels: LEVELS,
        slots: encoder.slots(),
    };
    let keys = ExecKeys {
        relin: None,
        galois: None,
    };

    // Bytes a warm run of `k` rungs holds at its peak beyond what was
    // live before it.
    let high_water = |k: usize| {
        let prog = rungs(k);
        let info = prog.validate(&env).expect("valid");
        let run = || execute_validated(&ev, &encoder, &prog, &info, &inputs, keys).expect("runs");
        drop(run());
        counting_alloc::reset();
        let before = counting_alloc::live();
        let outputs = run();
        let peak = counting_alloc::high_water() - before;
        drop(outputs);
        peak
    };
    let (short, long) = (high_water(4), high_water(16));
    assert!(short >= ciphertext, "a run holds at least its output");
    assert!(
        short.abs_diff(long) < ciphertext,
        "4 rungs peaked at {short} bytes and 16 at {long}: a dead temporary \
         outlived its last read (one ciphertext is {ciphertext} bytes)"
    );
}
