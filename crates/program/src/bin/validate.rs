//! Cross-validates the functional library against the analytical model.
//!
//! Runs every CKKS primitive (and two micro application kernels modeled
//! on HELR and ResNet-20) in the `ckks` crate at a reduced parameter set,
//! with `fhe_math::telemetry` counting the modular operations actually
//! executed, then diffs those counts against simfhe's `CostModel`
//! predictions. A `programs` section does the same end-to-end for the
//! three program-IR workloads (`fhe_program::workloads`): each program is
//! priced by `CostModel::program_cost` and executed by
//! `fhe_program::execute` under the telemetry counters. Emits a
//! `mad-validate-v1` JSON report on stdout and exits non-zero if any
//! gated metric's relative error exceeds its committed tolerance
//! (`crates/core/validate-tolerances.txt` for the primitives,
//! `crates/core/program-tolerances.txt` for the program rows).
//!
//! The parameter point (`N = 2^6`, `L = 5`, `dnum = 2`) is chosen so the
//! two crates' digit geometries coincide: the model uses `α = ⌈(L+1)/dnum⌉`
//! while the functional library uses `α = ⌈L/dnum⌉`, and at `L = 5`,
//! `dnum = 2` both give `α = 3`, with matching `β` and digit widths at the
//! levels the validator exercises (ℓ = 4, 5).
//!
//! Usage: `validate [--tolerances PATH] [--out PATH]`

use ckks::hoisting::{apply_bsgs, LinearTransform};
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::telemetry::{self, Snapshot};
use fhe_program::{execute, workloads, ExecInputs, ExecKeys};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simfhe::matvec::MatVecShape;
use simfhe::program::ProgramEnv;
use simfhe::validate::{MetricCheck, PrimitiveCheck, Tolerances, ValidationReport};
use simfhe::{AlgoOpts, CachingLevel, Cost, CostModel, MadConfig, SchemeParams};
use std::process::ExitCode;

/// Reduced parameter set: small enough to run in seconds, large enough
/// that every primitive exercises its full digit/limb structure.
const LOG_N: u32 = 6;
const LEVELS: usize = 5;
const DNUM: usize = 2;

/// Tolerances committed next to the model crate; `--tolerances` replaces
/// both files.
const DEFAULT_TOLERANCES: &str = include_str!("../../../core/validate-tolerances.txt");
const DEFAULT_PROGRAM_TOLERANCES: &str = include_str!("../../../core/program-tolerances.txt");

fn main() -> ExitCode {
    let mut tol_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerances" => tol_path = args.next(),
            "--out" => out_path = args.next(),
            "--help" | "-h" => {
                eprintln!("usage: validate [--tolerances PATH] [--out PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }
    let tol_text = match &tol_path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {p}: {e}");
                return ExitCode::from(2);
            }
        },
        None => format!("{DEFAULT_TOLERANCES}\n{DEFAULT_PROGRAM_TOLERANCES}"),
    };
    let tol = match Tolerances::parse(&tol_text) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bad tolerance file: {e}");
            return ExitCode::from(2);
        }
    };

    let report = run_validation();
    let json = report.to_json(&tol);
    print!("{json}");
    if let Some(p) = &out_path {
        if let Err(e) = std::fs::write(p, &json) {
            eprintln!("cannot write {p}: {e}");
            return ExitCode::from(2);
        }
    }
    let violations = report.evaluate(&tol);
    for v in &violations {
        eprintln!("FAIL {}", v.reason);
    }
    if violations.is_empty() {
        eprintln!(
            "validate: all {} primitives within tolerance",
            report.primitives.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("validate: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// Modeled cost plus whole-limb transform counts, accumulated op by op
/// alongside the measured execution.
#[derive(Clone, Copy, Default)]
struct Modeled {
    cost: Cost,
    fwd: u64,
    inv: u64,
}

impl Modeled {
    fn add(&mut self, cost: Cost, (fwd, inv): (u64, u64)) {
        self.cost += cost;
        self.fwd += fwd;
        self.inv += inv;
    }
}

/// Transform counts of a full key switch at `ell` limbs: β digit ModUps
/// plus two ModDowns.
fn keyswitch_transforms(m: &CostModel, ell: usize) -> (u64, u64) {
    let (mut fwd, mut inv) = (0, 0);
    for j in 0..m.params.beta_at(ell) {
        let (f, i) = m.mod_up_transforms(ell, m.digit_width(ell, j));
        fwd += f;
        inv += i;
    }
    let (f, i) = m.mod_down_transforms(ell, m.params.special_limbs());
    (fwd + 2 * f, inv + 2 * i)
}

/// ModUp-only transform counts (the `Decomp` + raise phase).
fn modup_transforms(m: &CostModel, ell: usize) -> (u64, u64) {
    let (mut fwd, mut inv) = (0, 0);
    for j in 0..m.params.beta_at(ell) {
        let (f, i) = m.mod_up_transforms(ell, m.digit_width(ell, j));
        fwd += f;
        inv += i;
    }
    (fwd, inv)
}

/// Model of the `Decomp` + `ModUp` phase (everything in `keyswitch`
/// before the inner product).
fn modup_cost(m: &CostModel, ell: usize) -> Cost {
    let mut c = m.decomp(ell);
    for j in 0..m.params.beta_at(ell) {
        c += m.mod_up_digit(ell, m.digit_width(ell, j));
    }
    c
}

/// The model's cost of encoding plaintexts inside a measured region: the
/// analytical model assumes pre-encoded operands, but the functional
/// schedules (`apply_bsgs`, the micro kernels) encode on the fly — each
/// encode is `ell` forward limb NTTs.
fn encode_cost(m: &CostModel, count: u64, ell: usize) -> (Cost, (u64, u64)) {
    (
        m.ntt_limb_ops() * (count * ell as u64),
        (count * ell as u64, 0),
    )
}

fn check(name: &str, snap: Snapshot, modeled: Modeled) -> PrimitiveCheck {
    let mut p = PrimitiveCheck::new(name);
    p.metrics.push(MetricCheck {
        metric: "mults",
        measured: snap.mults,
        modeled: modeled.cost.mults,
    });
    p.metrics.push(MetricCheck {
        metric: "adds",
        measured: snap.adds,
        modeled: modeled.cost.adds,
    });
    p.metrics.push(MetricCheck {
        metric: "ntt_fwd",
        measured: snap.ntt_fwd,
        modeled: modeled.fwd,
    });
    p.metrics.push(MetricCheck {
        metric: "ntt_inv",
        measured: snap.ntt_inv,
        modeled: modeled.inv,
    });
    p.info.push(MetricCheck {
        metric: "transfer_bytes",
        measured: snap.transfer_bytes(),
        modeled: modeled.cost.dram_total(),
    });
    p.info.push(MetricCheck {
        metric: "scratch_lease_bytes",
        measured: snap.scratch_lease_bytes,
        modeled: modeled.cost.dram_total(),
    });
    p
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Snapshot) {
    telemetry::reset();
    let out = f();
    (out, telemetry::snapshot())
}

fn run_validation() -> ValidationReport {
    // --- functional side -------------------------------------------------
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(LOG_N)
            .levels(LEVELS)
            .scale_bits(30)
            .first_modulus_bits(36)
            .special_modulus_bits(36)
            .dnum(DNUM)
            .build()
            .expect("reduced validation parameters are valid"),
    );
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());
    let keygen = KeyGenerator::new(ctx.clone());
    let mut rng = StdRng::seed_from_u64(7);
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let gk = keygen.galois_keys(&mut rng, &sk, &[1, 2, 3, 4, 8], false);
    let pool = ctx.scratch();
    let slots = encoder.slots();
    let scale = ctx.params().scale();
    let n = ctx.params().degree();

    let vec_a: Vec<Complex> = (0..slots)
        .map(|i| Complex::new(0.02 * i as f64 - 0.3, (i as f64 * 0.4).cos() * 0.2))
        .collect();
    let vec_b: Vec<Complex> = (0..slots)
        .map(|i| Complex::new((i as f64 * 0.3).sin() * 0.25, 0.01 * i as f64))
        .collect();
    let encode_at = |v: &[Complex], ell: usize| encoder.encode(v, ell, scale).expect("encodes");
    let ct_a = encryptor.encrypt_symmetric(&mut rng, &encode_at(&vec_a, LEVELS), &sk);
    let ct_b = encryptor.encrypt_symmetric(&mut rng, &encode_at(&vec_b, LEVELS), &sk);
    let pt_top = encode_at(&vec_b, LEVELS);
    let pt_l3 = encode_at(&vec_b, 3);

    // --- analytical side -------------------------------------------------
    let params = SchemeParams {
        log_n: LOG_N,
        log_q: 30,
        limbs: LEVELS,
        dnum: DNUM,
        fft_iter: 1,
    };
    // Caching level is irrelevant to op counts (§3.1: caching is
    // compute-neutral); OneLimb matches the scratch-reusing implementation
    // most closely for the informational byte proxies.
    let m_std = CostModel::new(
        params,
        MadConfig {
            caching: CachingLevel::OneLimb,
            algo: AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
        },
    );
    let m_merged = CostModel::new(
        params,
        MadConfig {
            caching: CachingLevel::OneLimb,
            algo: AlgoOpts {
                modup_hoist: true,
                moddown_merge: true,
                ..AlgoOpts::none()
            },
        },
    );

    let ell = LEVELS;
    let mut report = ValidationReport {
        params: vec![
            ("log_n".into(), LOG_N.to_string()),
            ("limbs".into(), LEVELS.to_string()),
            ("dnum".into(), DNUM.to_string()),
            ("alpha".into(), ctx.params().alpha().to_string()),
            ("beta".into(), ctx.params().beta_at(ell).to_string()),
            ("degree".into(), n.to_string()),
        ],
        primitives: Vec::new(),
    };

    // --- Table 2 primitives ----------------------------------------------
    let (_, snap) = measure(|| evaluator.add(&ct_a, &ct_b));
    report.primitives.push(check(
        "Add",
        snap,
        Modeled {
            cost: m_std.add(ell),
            ..Modeled::default()
        },
    ));

    let (_, snap) = measure(|| evaluator.add_plain(&ct_a, &pt_top));
    report.primitives.push(check(
        "PtAdd",
        snap,
        Modeled {
            cost: m_std.pt_add(ell),
            ..Modeled::default()
        },
    ));

    let (_, snap) = measure(|| evaluator.mul_plain(&ct_a, &pt_top));
    let mut modeled = Modeled::default();
    modeled.add(m_std.pt_mult(ell), m_std.rescale_transforms(ell));
    report.primitives.push(check("PtMult", snap, modeled));

    let (_, snap) = measure(|| evaluator.rescale(&ct_a));
    let mut modeled = Modeled::default();
    modeled.add(m_std.rescale(ell), m_std.rescale_transforms(ell));
    report.primitives.push(check("Rescale", snap, modeled));

    let (_, snap) = measure(|| {
        let lifted = fhe_math::poly::pmod_up_with(ct_a.c0(), ctx.raised_basis(ell).clone(), pool);
        lifted.recycle(pool);
    });
    // PModUp is transform-free: per coefficient of each source limb, one
    // multiply by the lift constant (Algorithm 5).
    report.primitives.push(check(
        "PModUp",
        snap,
        Modeled {
            cost: Cost::compute(n as u64 * ell as u64, 0),
            ..Modeled::default()
        },
    ));

    // One full key switch, measured through the span layer: the nested
    // spans give ModUp / KSKInnerProd / ModDown and the enclosing total.
    telemetry::reset();
    let (v, u) = ckks::keyswitch::keyswitch(&ctx, ct_a.c1(), rlk.switching_key());
    v.recycle(pool);
    u.recycle(pool);
    let span_total = |name: &str| {
        telemetry::span_report(name)
            .unwrap_or_else(|| panic!("span {name} not recorded"))
            .total
    };
    let mut modeled = Modeled::default();
    modeled.add(modup_cost(&m_std, ell), modup_transforms(&m_std, ell));
    report
        .primitives
        .push(check("ModUp", span_total("ModUp"), modeled));

    let beta = m_std.params.beta_at(ell);
    report.primitives.push(check(
        "KSKInnerProd",
        span_total("KSKInnerProd"),
        Modeled {
            cost: m_std.ksk_inner_product(ell, beta, true, true),
            ..Modeled::default()
        },
    ));

    let (f, i) = m_std.mod_down_transforms(ell, m_std.params.special_limbs());
    let mut modeled = Modeled::default();
    modeled.add(
        m_std.mod_down(ell, m_std.params.special_limbs()) * 2,
        (2 * f, 2 * i),
    );
    report
        .primitives
        .push(check("ModDown", span_total("ModDown"), modeled));

    let mut modeled = Modeled::default();
    modeled.add(m_std.keyswitch(ell), keyswitch_transforms(&m_std, ell));
    report
        .primitives
        .push(check("KeySwitch", span_total("KeySwitch"), modeled));

    let (_, snap) = measure(|| evaluator.rotate(&ct_a, 1, &gk));
    let mut modeled = Modeled::default();
    modeled.add(m_std.rotate(ell), keyswitch_transforms(&m_std, ell));
    report.primitives.push(check("Rotate", snap, modeled));

    let (_, snap) = measure(|| evaluator.mul(&ct_a, &ct_b, &rlk));
    let mut modeled = Modeled::default();
    modeled.add(m_std.mult(ell), keyswitch_transforms(&m_std, ell));
    modeled.add(Cost::ZERO, m_std.rescale_transforms(ell));
    report.primitives.push(check("Mult", snap, modeled));

    let (_, snap) = measure(|| evaluator.mul_merged(&ct_a, &ct_b, &rlk));
    let mut modeled = Modeled::default();
    modeled.add(m_merged.mult(ell), modup_transforms(&m_merged, ell));
    let (f, i) = m_merged.mod_down_transforms(ell - 1, m_merged.params.special_limbs() + 1);
    modeled.add(Cost::ZERO, (2 * f, 2 * i));
    report.primitives.push(check("MultMerged", snap, modeled));

    // --- BSGS PtMatVecMult -----------------------------------------------
    let lt3 = banded_transform(slots, &[0, 1, 5]);
    let shape = MatVecShape { ell, diagonals: 3 };
    let n1 = m_std.bsgs_baby_dim(shape.diagonals);
    let (_, snap) = measure(|| apply_bsgs(&evaluator, &encoder, &ct_a, &lt3, &gk, n1));
    let mut modeled = Modeled::default();
    modeled.add(
        m_std.pt_mat_vec_mult(shape).cost,
        bsgs_transforms(&m_std, shape, n1),
    );
    let (c, t) = encode_cost(&m_std, shape.diagonals as u64, ell);
    modeled.add(c, t);
    report.primitives.push(check("BsgsMatVec", snap, modeled));

    // --- HELR micro kernel -----------------------------------------------
    // One logistic-regression-style iteration (the shape of fhe-apps'
    // HELR schedule at toy size): ct×ct product, a rotate-and-add fold
    // over 8 slots, a squaring for the sigmoid polynomial, a plaintext
    // scaling, and the weight update add.
    let w_low = evaluator.drop_to(&ct_a, 2);
    let (_, snap) = measure(|| {
        let prod = evaluator.mul(&ct_a, &ct_b, &rlk);
        let folded = evaluator.sum_slots(&prod, 3, &gk);
        let sq = evaluator.square(&folded, &rlk);
        let act = evaluator.mul_plain(&sq, &pt_l3);
        evaluator.add(&act, &w_low)
    });
    let mut modeled = Modeled::default();
    modeled.add(m_std.mult(ell), keyswitch_transforms(&m_std, ell));
    modeled.add(Cost::ZERO, m_std.rescale_transforms(ell));
    for _ in 0..3 {
        modeled.add(m_std.rotate(ell - 1), keyswitch_transforms(&m_std, ell - 1));
        modeled.add(m_std.add(ell - 1), (0, 0));
    }
    modeled.add(m_std.mult(ell - 1), keyswitch_transforms(&m_std, ell - 1));
    modeled.add(Cost::ZERO, m_std.rescale_transforms(ell - 1));
    modeled.add(m_std.pt_mult(ell - 2), m_std.rescale_transforms(ell - 2));
    modeled.add(m_std.add(ell - 3), (0, 0));
    report.primitives.push(check("HelrMicro", snap, modeled));

    // --- ResNet micro kernel ---------------------------------------------
    // One convolution-shaped BSGS product (9 diagonals, the 3×3 kernel
    // footprint of fhe-apps' ResNet-20 layers), a squaring activation
    // proxy, and the bias add.
    let lt9 = banded_transform(slots, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
    let shape9 = MatVecShape { ell, diagonals: 9 };
    let n1_9 = m_std.bsgs_baby_dim(shape9.diagonals);
    let (_, snap) = measure(|| {
        let y = apply_bsgs(&evaluator, &encoder, &ct_a, &lt9, &gk, n1_9);
        let act = evaluator.square(&y, &rlk);
        let bias = encoder
            .encode(&vec_b, act.limb_count(), act.scale())
            .expect("bias encodes");
        evaluator.add_plain(&act, &bias)
    });
    let mut modeled = Modeled::default();
    modeled.add(
        m_std.pt_mat_vec_mult(shape9).cost,
        bsgs_transforms(&m_std, shape9, n1_9),
    );
    let (c, t) = encode_cost(&m_std, shape9.diagonals as u64, ell);
    modeled.add(c, t);
    modeled.add(m_std.mult(ell - 1), keyswitch_transforms(&m_std, ell - 1));
    modeled.add(Cost::ZERO, m_std.rescale_transforms(ell - 1));
    let (c, t) = encode_cost(&m_std, 1, ell - 2);
    modeled.add(c, t);
    modeled.add(m_std.pt_add(ell - 2), (0, 0));
    report.primitives.push(check("ResNetMicro", snap, modeled));

    // --- Program-IR workloads --------------------------------------------
    // Each workload is one `Program`: priced by `CostModel::program_cost`
    // (the fold of Table-2 primitive costs over the instruction stream)
    // and executed by `fhe_program::execute` under the same telemetry
    // counters as the primitive rows above.
    let env = ProgramEnv {
        levels: LEVELS,
        slots,
    };
    let fill = |seed: usize| -> Vec<Complex> {
        (0..slots)
            .map(|i| {
                Complex::new(
                    ((i * 3 + seed * 7) % 11) as f64 * 0.05 + 0.1,
                    ((i + seed * 5) % 7) as f64 * 0.02,
                )
            })
            .collect()
    };
    let programs = [
        (
            "ProgAggregate",
            workloads::aggregate_program(slots, LEVELS),
            None,
        ),
        (
            "ProgDotProduct",
            workloads::dot_product_program(slots, LEVELS, 8),
            Some(("db", banded_transform(slots, &[0, 1, 2, 3, 4, 5, 6, 7]))),
        ),
        (
            "ProgShaStress",
            workloads::sha256_stress_program(LEVELS, 1, 4),
            None,
        ),
    ];
    for (row, prog, mat) in programs {
        let info = prog
            .validate(&env)
            .unwrap_or_else(|e| panic!("{row} fails static validation: {e}"));
        let prog_gk = keygen.galois_keys(&mut rng, &sk, &info.manifest.galois_steps, false);
        let mut inputs = ExecInputs::default();
        for (i, decl) in prog.ct_inputs.iter().enumerate() {
            let pt = encode_at(&fill(i), decl.level);
            inputs.cts.insert(
                decl.name.clone(),
                encryptor.encrypt_symmetric(&mut rng, &pt, &sk),
            );
        }
        if let Some((name, lt)) = mat {
            inputs.mats.insert(name.into(), lt);
        }
        let keys = ExecKeys {
            relin: Some(rlk.switching_key()),
            galois: Some(&prog_gk),
        };
        let (out, snap) = measure(|| execute(&evaluator, &encoder, &prog, &inputs, keys));
        out.unwrap_or_else(|e| panic!("{row} fails to execute: {e}"));
        let pc = m_std.program_cost(&prog, &info);
        report.primitives.push(check(
            row,
            snap,
            Modeled {
                cost: pc.cost,
                fwd: pc.ntt_fwd,
                inv: pc.ntt_inv,
            },
        ));
    }

    report
}

/// Transform counts of the model's BSGS schedule (`matvec_bsgs`): one
/// shared ModUp, `n1` ModDown pairs, `n2 − 1` full rotates, one rescale.
fn bsgs_transforms(m: &CostModel, shape: MatVecShape, n1: usize) -> (u64, u64) {
    let n2 = shape.diagonals.div_ceil(n1);
    let (mut fwd, mut inv) = modup_transforms(m, shape.ell);
    let (f, i) = m.mod_down_transforms(shape.ell, m.params.special_limbs());
    fwd += 2 * f * n1 as u64;
    inv += 2 * i * n1 as u64;
    for _ in 0..n2.saturating_sub(1) {
        let (f, i) = keyswitch_transforms(m, shape.ell);
        fwd += f;
        inv += i;
    }
    let (f, i) = m.rescale_transforms(shape.ell);
    (fwd + f, inv + i)
}

/// A banded slot matrix with the given nonzero diagonals.
fn banded_transform(slots: usize, diagonals: &[usize]) -> LinearTransform {
    let mut map = std::collections::BTreeMap::new();
    for &d in diagonals {
        let diag: Vec<Complex> = (0..slots)
            .map(|j| {
                Complex::new(
                    0.08 + ((j * 5 + d * 3) % 7) as f64 * 0.03,
                    ((j + 2 * d) % 5) as f64 * 0.02 - 0.04,
                )
            })
            .collect();
        map.insert(d, diag);
    }
    LinearTransform::from_diagonals(map, slots)
}
