//! The three program-IR workloads shipped with the repo, each priced by
//! the analytical model and executed by the functional library (the
//! `validate` binary carries a measured-vs-modeled row for every one):
//!
//! - [`aggregate_program`] — encrypted aggregate over `k = 3` batched
//!   vectors: slot-wise mean, a rotate-fold global mean (a ladder the
//!   validator recognises and the executor runs as one double-hoisted
//!   `rotate_fold` — the builder emits plain `Rotate` / `Add` rungs), and a
//!   smooth maximum (`max(a,b) ≈ (a+b)/2 + (a−b)²/2` on inputs normalized
//!   to `[0, 1]`).
//! - [`dot_product_program`] — encrypted dot-product similarity search:
//!   one BSGS matrix-vector product scoring a query against a plaintext
//!   database, scaled by `1/8`.
//! - [`sha256_stress_program`] — a bitwise SHA-256-style stress round:
//!   the σ₀-style XOR of two rotations (sharing a hoisted ModUp) plus the
//!   `Ch`/`Maj` choice and majority gates over 0/1-encoded slots.
//!
//! Builders only emit the IR; operand *values* (query vectors, database
//! diagonals) are bound at execution time through
//! [`ExecInputs`](crate::ExecInputs).

use simfhe::program::{CtDecl, Instr, MatDecl, Program};

fn add(dst: &str, a: &str, b: &str) -> Instr {
    Instr::Add {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    }
}

fn sub(dst: &str, a: &str, b: &str) -> Instr {
    Instr::Sub {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    }
}

fn mult(dst: &str, a: &str, b: &str) -> Instr {
    Instr::Mult {
        dst: dst.into(),
        a: a.into(),
        b: b.into(),
    }
}

fn mul_const(dst: &str, a: &str, value: f64) -> Instr {
    Instr::MulConst {
        dst: dst.into(),
        a: a.into(),
        value,
    }
}

fn rotate(dst: &str, a: &str, steps: i64) -> Instr {
    Instr::Rotate {
        dst: dst.into(),
        a: a.into(),
        steps,
    }
}

fn rescale(dst: &str, a: &str) -> Instr {
    Instr::Rescale {
        dst: dst.into(),
        a: a.into(),
    }
}

/// `value · a` followed by a rescale — the library's `mul_scalar` +
/// `rescale` idiom as two IR instructions.
fn scaled(instrs: &mut Vec<Instr>, dst: &str, a: &str, value: f64) {
    let raw = format!("{dst}#raw");
    instrs.push(mul_const(&raw, a, value));
    instrs.push(rescale(dst, &raw));
}

/// Encrypted aggregate over three batched vectors (`v0..v2`, each one
/// ciphertext of `slots` values in `[0, 1]`, arriving at `level` limbs).
///
/// Outputs:
/// - `mean` — the global mean: slot-wise sum, scaled by `1/3`, then a
///   power-of-two rotate-fold so every slot holds the mean of all
///   `3 · slots` values (depth 2: `level − 2` limbs out).
/// - `smax` — slot-wise smooth maximum via two rounds of
///   `(m + v)/2 + (m − v)²/2` (depth 4: `level − 4` limbs out).
///
/// Requires `level ≥ 5`.
pub fn aggregate_program(slots: usize, level: usize) -> Program {
    assert!(level >= 5, "aggregate needs 5 levels, got {level}");
    let mut instrs = Vec::new();

    // Slot-wise mean of the three vectors.
    instrs.push(add("sum", "v0", "v1"));
    instrs.push(add("sum", "sum", "v2"));
    scaled(&mut instrs, "acc", "sum", 1.0 / 3.0);

    // Rotate-fold: after log2(slots) rounds every slot holds the sum of
    // all slots (the same ladder as `helr_enc`'s slot mean).
    let mut step = 1i64;
    while (step as usize) < slots {
        instrs.push(rotate("rot", "acc", step));
        instrs.push(add("acc", "acc", "rot"));
        step *= 2;
    }
    scaled(&mut instrs, "mean", "acc", 1.0 / slots as f64);

    // Smooth maximum, folded over the batch: m ← (m+v)/2 + (m−v)²/2.
    let batch = ["v1", "v2"];
    let mut m = "v0".to_string();
    for (round, v) in batch.iter().enumerate() {
        let (avg, diff, sq, half) = (
            format!("avg{round}"),
            format!("diff{round}"),
            format!("sq{round}"),
            format!("half{round}"),
        );
        let next = if round + 1 == batch.len() {
            "smax".to_string()
        } else {
            format!("m{round}")
        };
        instrs.push(add(&avg, &m, v));
        scaled(&mut instrs, &avg, &avg, 0.5);
        instrs.push(sub(&diff, &m, v));
        instrs.push(mult(&sq, &diff, &diff));
        scaled(&mut instrs, &half, &sq, 0.5);
        instrs.push(add(&next, &avg, &half));
        m = next;
    }

    Program {
        name: "aggregate".into(),
        ct_inputs: (0..3)
            .map(|i| CtDecl {
                name: format!("v{i}"),
                level,
            })
            .collect(),
        pt_inputs: Vec::new(),
        matrices: Vec::new(),
        instrs,
        outputs: vec!["mean".into(), "smax".into()],
    }
}

/// Encrypted dot-product similarity search: scores a query ciphertext
/// against a plaintext database packed as the `diagonals` non-zero
/// diagonals `0..diagonals` of a `slots × slots` transform, then scales
/// the scores by `1/8`.
///
/// One `BsgsMatVec` plus a scaled rescale — depth 2, so `level ≥ 3`.
pub fn dot_product_program(slots: usize, level: usize, diagonals: usize) -> Program {
    assert!(level >= 3, "dot-product needs 3 levels, got {level}");
    assert!(
        diagonals >= 1 && diagonals <= slots,
        "diagonal count {diagonals} out of range for {slots} slots"
    );
    let mut instrs = vec![Instr::BsgsMatVec {
        dst: "raw".into(),
        a: "query".into(),
        mat: "db".into(),
    }];
    scaled(&mut instrs, "scores", "raw", 0.125);

    Program {
        name: "dot_product".into(),
        ct_inputs: vec![CtDecl {
            name: "query".into(),
            level,
        }],
        pt_inputs: Vec::new(),
        matrices: vec![MatDecl {
            name: "db".into(),
            slots,
            offsets: (0..diagonals).collect(),
        }],
        instrs,
        outputs: vec!["scores".into()],
    }
}

/// Bitwise SHA-256-style stress round over 0/1-encoded slot vectors
/// `x, y, z, w`:
///
/// - `xor = rot(x, rot_a) ⊕ rot(x, rot_b)` — the σ₀-style rotation XOR;
///   the two rotations of `x` are consecutive and share a hoisted ModUp.
/// - `ch = Ch(y, z, w) = w + y·(z − w)` — the SHA choice gate.
/// - `maj = Maj(x, y, z) = x·y + (x ⊕ y)·z` — the majority gate.
///
/// (`a ⊕ b = a + b − 2ab` on 0/1 values.) The single output `digest`
/// sums the three gates. Multiplicative depth 2, so `level ≥ 3`; the
/// Galois manifest is exactly `{rot_a, rot_b}`.
pub fn sha256_stress_program(level: usize, rot_a: i64, rot_b: i64) -> Program {
    assert!(level >= 3, "sha stress needs 3 levels, got {level}");
    assert!(
        rot_a != 0 && rot_b != 0 && rot_a != rot_b,
        "rotations must be distinct and non-zero"
    );
    let instrs = vec![
        // σ₀-style XOR of two rotations of x (hoisted run of length 2).
        rotate("ra", "x", rot_a),
        rotate("rb", "x", rot_b),
        mult("rab", "ra", "rb"),
        add("rsum", "ra", "rb"),
        sub("xor", "rsum", "rab"),
        sub("xor", "xor", "rab"),
        // Ch(y, z, w) = w + y·(z − w).
        sub("sel", "z", "w"),
        mult("ysel", "y", "sel"),
        add("ch", "w", "ysel"),
        // Maj(x, y, z) = x·y + (x ⊕ y)·z.
        mult("xy", "x", "y"),
        add("xysum", "x", "y"),
        sub("xyxor", "xysum", "xy"),
        sub("xyxor", "xyxor", "xy"),
        mult("mz", "xyxor", "z"),
        add("maj", "xy", "mz"),
        // digest = xor + ch + maj.
        add("digest", "xor", "ch"),
        add("digest", "digest", "maj"),
    ];

    Program {
        name: "sha256_stress".into(),
        ct_inputs: ["x", "y", "z", "w"]
            .iter()
            .map(|n| CtDecl {
                name: (*n).into(),
                level,
            })
            .collect(),
        pt_inputs: Vec::new(),
        matrices: Vec::new(),
        instrs,
        outputs: vec!["digest".into()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfhe::program::{FoldRole, HoistRole, ProgramEnv};

    #[test]
    fn workloads_validate_and_derive_expected_manifests() {
        let env = ProgramEnv {
            levels: 5,
            slots: 16,
        };

        let agg = aggregate_program(16, 5);
        let info = agg.validate(&env).expect("aggregate validates");
        assert!(info.manifest.relin);
        // The fold's four rungs run as the stages {1, 2, 3} and {4, 8, 12}.
        assert_eq!(info.manifest.galois_steps, vec![1, 2, 3, 4, 8, 12]);
        assert_eq!(info.outputs, vec![(3, 1), (1, 1)]);
        let [ladder] = &info.ladders[..] else {
            panic!("one ladder, got {:?}", info.ladders);
        };
        assert_eq!((ladder.start, ladder.rungs), (4, 4));
        assert_eq!(ladder.stages, vec![vec![1, 2, 3], vec![4, 8, 12]]);
        assert_eq!(info.instrs[4].fold, FoldRole::Leader(0));
        assert!(info.instrs[5..12]
            .iter()
            .all(|m| m.fold == FoldRole::Member));
        assert_eq!(info.instrs[12].fold, FoldRole::Single);

        let dot = dot_product_program(16, 3, 8);
        let info = dot.validate(&env).expect("dot-product validates");
        assert!(!info.manifest.relin);
        // n1 = 4 babies {1,2,3} plus the single non-zero giant 4.
        assert_eq!(info.manifest.galois_steps, vec![1, 2, 3, 4]);
        assert_eq!(info.outputs, vec![(1, 1)]);

        let sha = sha256_stress_program(3, 1, 4);
        let info = sha.validate(&env).expect("sha validates");
        assert!(info.manifest.relin);
        assert_eq!(info.manifest.galois_steps, vec![1, 4]);
        assert_eq!(info.outputs, vec![(1, 1)]);
        // The two rotations of x share a hoisted ModUp.
        assert_eq!(info.instrs[0].hoist, HoistRole::Leader(2));
        assert_eq!(info.instrs[1].hoist, HoistRole::Follower);
    }

    #[test]
    fn workload_builders_reject_shallow_chains() {
        let env = ProgramEnv {
            levels: 4,
            slots: 16,
        };
        // aggregate_program(_, 5) declared above the env's chain.
        assert!(aggregate_program(16, 5).validate(&env).is_err());
    }
}
