//! The measured-vs-modeled ledger: every Table-2 primitive, two micro
//! application kernels and the three program-IR workloads, each executed
//! **once** in the functional `ckks` crate and checked against one modeled
//! [`Cost`] — modular ops *and* DRAM bytes, the two columns SimFHE prices
//! per primitive, plus the limb transforms the same `Cost` carries.
//!
//! [`run`] builds one context, one key set and one set of inputs, then runs
//! each row inside its own top-level telemetry span, with the counters
//! reset and a memory trace started at the row's start. A row's op counts
//! are the counters when its span closes; the `KeySwitch` row's `ModUp` /
//! `KSKInnerProd` / `ModDown` sub-spans are read from the thread's span
//! capture (`telemetry::capture_spans`). Its DRAM bytes are its own trace
//! replayed through [`crate::replay`] at [`gate_config`]. The `validate`
//! binary gates the report against the committed [`TOLERANCES`].
//!
//! The parameter point (`N = 2^6`, `L = 5`, `dnum = 2`) is chosen so the
//! two crates' digit geometries coincide: the model uses `α = ⌈(L+1)/dnum⌉`
//! while the functional library uses `α = ⌈L/dnum⌉`, and at `L = 5`,
//! `dnum = 2` both give `α = 3`, with matching `β` and digit widths at the
//! levels the rows exercise (ℓ = 4, 5). The model runs at `OneLimb`
//! caching: the implementation's kernels are exactly the model's fused
//! limb passes, so a cache that holds a few operands between consecutive
//! passes reproduces the same traffic structure (caching is
//! compute-neutral, §3.1, so the op counts do not care). What still
//! differs is documented per bound in `tolerances.txt` and in `DESIGN.md`
//! §4–§5.
//!
//! The telemetry counters and the trace buffer are process-global: one
//! [`run`] at a time per process.

use crate::program::bsgs_baby_dim;
use crate::replay::{replay, CacheConfig, ReplayStats};
use crate::report::{MetricCheck, PrimitiveCheck, SweepRow, ValidationReport};
use crate::{execute, workloads, ExecInputs, ExecKeys};
use ckks::hoisting::{apply_bsgs, rotate_fold, LinearTransform};
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::telemetry::{self, ChromeTrace, OperandClass, Snapshot, SpanTiming, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simfhe::matvec::BsgsSchedule;
use simfhe::program::{ladder_stages, modup_cost, ProgramEnv};
use simfhe::{AlgoOpts, CachingLevel, Cost, CostModel, HardwareConfig, MadConfig, SchemeParams};
use std::time::Instant;

/// Reduced parameter set: small enough to run in seconds, large enough
/// that every primitive exercises its full digit/limb structure.
pub const LOG_N: u32 = 6;
/// Limb count `L`.
pub const LEVELS: usize = 5;
/// Decomposition number.
pub const DNUM: usize = 2;

/// The committed bounds, one file for every gated metric of every row.
pub const TOLERANCES: &str = include_str!("../tolerances.txt");

/// The committed replay configuration: an eight-limb key-pinning cache.
/// Large enough that back-to-back kernel passes over the same operand hit
/// (the model's `OneLimb` fusion), small enough that distinct operands
/// evict each other (the model's per-pass streaming). Touches are
/// limb-aligned, so limb-sized blocks never split one.
pub fn gate_config() -> CacheConfig {
    let limb = SCHEME.limb_bytes();
    CacheConfig::pin_keys(8 * limb, limb)
}

/// What one [`run`] leaves: the report the gate evaluates and what each
/// executed row recorded (for [`perfetto_json`] and [`sweep`]).
pub struct Ledger {
    /// One check per row, in schedule order.
    pub report: ValidationReport,
    /// One recording per executed row — the 13 primitives and the 3
    /// programs; the key-switch phases are spans of their row — in
    /// schedule order.
    pub events: Vec<RowTrace>,
}

/// What one executed row recorded.
pub struct RowTrace {
    /// The row's name.
    pub name: &'static str,
    /// Its memory trace, started and stopped with the row.
    pub events: Vec<TraceRecord>,
    /// Every span it opened in open order, its own top-level span first.
    pub spans: Vec<SpanTiming>,
}

const SCHEME: SchemeParams = SchemeParams {
    log_n: LOG_N,
    log_q: 30,
    limbs: LEVELS,
    dnum: DNUM,
    fft_iter: 1,
};

fn model(caching: CachingLevel) -> CostModel {
    CostModel::new(
        SCHEME,
        MadConfig {
            caching,
            algo: AlgoOpts::all(),
        },
    )
}

/// Encoding `count` plaintexts at `ell` limbs inside a measured region:
/// the analytical model assumes pre-encoded operands, and a
/// `LinearTransform`'s diagonals are (each transform is applied once
/// before the trace starts), but a vector operand encoded by the measured
/// code itself — the ResNet micro kernel's bias — is `ell` forward limb
/// NTTs and materializes one plaintext polynomial that later spills and
/// reloads.
fn encodes(m: &CostModel, count: u64, ell: usize) -> Cost {
    let limbs = count * ell as u64;
    let bytes = limbs * m.params.limb_bytes();
    let traffic = Cost {
        ct_write: bytes,
        pt_read: bytes,
        ..Cost::ZERO
    };
    m.ntt_limb_ops() * limbs + traffic
}

/// Where a row's measurements come from.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Its own top-level span: the counters over the row and the bytes of
    /// its trace, all gated.
    Primitive,
    /// A sub-span of the `KeySwitch` row: op counts only.
    Phase,
    /// Its own top-level span; the replayed bytes are reported ungated.
    Program,
}

struct Row {
    name: &'static str,
    source: Source,
    ops: Snapshot,
    modeled: Cost,
    /// Its trace replayed at [`gate_config`] (none for a phase).
    bytes: Option<ReplayStats>,
}

/// The rows measured so far, and what each executed one recorded.
#[derive(Default)]
struct Rows {
    rows: Vec<Row>,
    traces: Vec<RowTrace>,
}

impl Rows {
    /// Executes `body` once as row `name`: counters reset, its own memory
    /// trace, one top-level span around it, every span it opens captured.
    fn run(&mut self, name: &'static str, source: Source, modeled: Cost, body: impl FnOnce()) {
        telemetry::reset();
        telemetry::capture_spans(usize::MAX);
        telemetry::trace_start();
        {
            let _span = telemetry::span(name);
            body();
        }
        let events = telemetry::trace_stop();
        let spans = telemetry::capture_spans(0);
        self.rows.push(Row {
            name,
            source,
            ops: telemetry::snapshot(),
            modeled,
            bytes: Some(replay(&events, &gate_config())),
        });
        self.traces.push(RowTrace {
            name,
            events,
            spans,
        });
    }

    /// Records sub-span `name` of the row that just ran: the summed
    /// deltas of every span it opened under that name.
    fn phase(&mut self, name: &'static str, modeled: Cost) {
        let mut ops = None::<Snapshot>;
        let row = self.traces.last().expect("a phase follows its row");
        for s in row.spans.iter().filter(|s| s.name == name) {
            ops.get_or_insert_default().accumulate(&s.ops);
        }
        let ops = ops.unwrap_or_else(|| panic!("span {name} not recorded"));
        self.rows.push(Row {
            name,
            source: Source::Phase,
            ops,
            modeled,
            bytes: None,
        });
    }
}

fn metric(metric: &'static str, measured: u64, modeled: u64) -> MetricCheck {
    MetricCheck {
        metric,
        measured,
        modeled,
    }
}

/// One row of the report: four gated op metrics and the replayed bytes
/// (gated for primitives).
fn check(row: &Row) -> PrimitiveCheck {
    let (snap, cost) = (row.ops, row.modeled);
    let mut p = PrimitiveCheck::new(row.name);
    p.metrics = vec![
        metric("mults", snap.mults, cost.executed_mults()),
        metric("adds", snap.adds, cost.executed_adds()),
        metric("ntt_fwd", snap.ntt_fwd, cost.ntt_fwd),
        metric("ntt_inv", snap.ntt_inv, cost.ntt_inv),
    ];
    if let Some(s) = row.bytes {
        let totals = [
            metric("dram_read", s.dram_read(), cost.dram_read()),
            metric("dram_write", s.dram_write(), cost.ct_write),
            metric("key_read", s.key_read_bytes(), cost.key_read),
        ];
        if row.source == Source::Primitive {
            p.metrics.extend(totals);
        } else {
            p.info.extend(totals);
        }
        p.info.extend([
            metric("ct_read", s.ct_read_bytes(), cost.ct_read),
            metric("ct_write", s.ct_write_bytes(), cost.ct_write),
            metric("pt_read", s.pt_read_bytes(), cost.pt_read),
            metric("dram_total", s.dram_total(), cost.dram_total()),
        ]);
    }
    p
}

/// Runs the whole schedule once and returns the report and each row's
/// recording.
pub fn run() -> Ledger {
    // --- functional side: context, keys and inputs, built once ------------
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
    let w_low = evaluator.drop_to(&ct_a, 2);
    let lt3 = banded_transform(slots, &[0, 1, 5]);
    let lt9 = banded_transform(slots, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);

    // Each program workload with its validation info, Galois keys and bound
    // inputs — set up here so a row's trace holds its execution and
    // nothing else.
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
    let db = banded_transform(slots, &[0, 1, 2, 3, 4, 5, 6, 7]);
    // A transform encodes its diagonals on first use and keeps them; the
    // rows measure — as the model prices — every later application.
    let warm = |lt: &LinearTransform, gk: &ckks::GaloisKeys| {
        let n1 = bsgs_baby_dim(lt.diagonal_count());
        apply_bsgs(&evaluator, &encoder, &ct_a, lt, gk, n1).recycle(pool)
    };
    warm(&lt3, &gk);
    warm(&lt9, &gk);
    let programs: Vec<_> = [
        (
            "ProgAggregate",
            workloads::aggregate_program(slots, LEVELS),
            None,
        ),
        (
            "ProgDotProduct",
            workloads::dot_product_program(slots, LEVELS, 8),
            Some(("db", db)),
        ),
        (
            "ProgShaStress",
            workloads::sha256_stress_program(LEVELS, 1, 4),
            None,
        ),
    ]
    .into_iter()
    .map(|(row, prog, mat)| {
        let info = prog
            .validate(&env)
            .unwrap_or_else(|e| panic!("{row} fails static validation: {e}"));
        let prog_gk = keygen.galois_keys(&mut rng, &sk, &info.manifest.galois_steps, false);
        if let Some((_, lt)) = &mat {
            warm(lt, &prog_gk);
        }
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
        (row, prog, info, prog_gk, inputs)
    })
    .collect();

    // --- analytical side --------------------------------------------------
    let m = model(CachingLevel::OneLimb);
    let ell = LEVELS;
    let k = m.params.special_limbs();
    let beta = m.params.beta_at(ell);

    // --- the schedule: each row exactly once ------------------------------
    use Source::Primitive;
    let mut rows = Rows::default();

    rows.run("Add", Primitive, m.add(ell), || {
        evaluator.add(&ct_a, &ct_b).recycle(pool)
    });
    rows.run("PtAdd", Primitive, m.pt_add(ell), || {
        evaluator.add_plain(&ct_a, &pt_top).recycle(pool)
    });
    rows.run("PtMult", Primitive, m.pt_mult(ell), || {
        evaluator.mul_plain(&ct_a, &pt_top).recycle(pool)
    });
    rows.run("Rescale", Primitive, m.rescale(ell), || {
        evaluator.rescale(&ct_a).recycle(pool)
    });

    // PModUp exists precisely to avoid a DRAM round-trip (Algorithm 5):
    // transform-free, one multiply by the lift constant per coefficient of
    // each source limb, and the lifted limbs are consumed on-chip by the
    // following merge — so the model charges reading the ℓ source limbs
    // and no write, which is also what the replay observes (the lifted
    // buffer dies in-cache).
    let pmodup = Cost {
        mults: m.params.degree() * ell as u64,
        ct_read: ell as u64 * m.params.limb_bytes(),
        ..Cost::ZERO
    };
    rows.run("PModUp", Primitive, pmodup, || {
        fhe_math::poly::pmod_up_with(ct_a.c0(), ctx.raised_basis(ell).clone(), pool).recycle(pool)
    });

    // One full key switch; its nested spans give the three phases.
    rows.run("KeySwitch", Primitive, m.keyswitch(ell), || {
        let (mut v, mut u) = ckks::keyswitch::keyswitch(&ctx, ct_a.c1(), rlk.switching_key());
        // The raw key-switch outputs are live results (an evaluator wraps
        // them into a ciphertext); tag them so the replay flushes them the
        // way the model's `write_output` does.
        v.set_operand_class(OperandClass::Ciphertext);
        u.set_operand_class(OperandClass::Ciphertext);
        v.recycle(pool);
        u.recycle(pool);
    });
    rows.phase("ModUp", modup_cost(&m, ell));
    rows.phase("KSKInnerProd", m.ksk_inner_product(ell, beta, true, true));
    rows.phase("ModDown", m.mod_down(ell, k) * 2);

    rows.run("Rotate", Primitive, m.rotate(ell), || {
        evaluator.rotate(&ct_a, 1, &gk).recycle(pool)
    });
    // `Mult` is the ModDown-merged sequence (Figure 4c); the standard one
    // (Figure 4a) is the baseline the merge is priced against.
    rows.run("Mult", Primitive, m.mult_merged(ell), || {
        evaluator.mul(&ct_a, &ct_b, &rlk).recycle(pool)
    });
    rows.run("MultStandard", Primitive, m.mult_standard(ell), || {
        evaluator.mul_standard(&ct_a, &ct_b, &rlk).recycle(pool)
    });

    // BSGS PtMatVecMult: the double-hoisted schedule of the diagonal set.
    let bsgs_at = |lt: &LinearTransform| {
        let n1 = bsgs_baby_dim(lt.diagonal_count());
        let schedule = BsgsSchedule::of(&lt.offsets(), n1);
        (n1, m.matvec_bsgs_double_hoisted(ell, &schedule))
    };
    let (n1, modeled) = bsgs_at(&lt3);
    rows.run("BsgsMatVec", Primitive, modeled, || {
        apply_bsgs(&evaluator, &encoder, &ct_a, &lt3, &gk, n1).recycle(pool)
    });

    // A three-rung rotate-and-add ladder, double-hoisted: the paired stage
    // {1, 2, 3} and the odd rung {4}, `c0` raised from the first to the
    // last.
    let stages = ladder_stages(&[1, 2, 4], slots);
    rows.run("RotateFold", Primitive, m.rotate_fold(ell, &stages), || {
        rotate_fold(&evaluator, &ct_a, &stages, &gk).recycle(pool)
    });

    // HELR micro kernel: one logistic-regression-style iteration (the
    // shape of fhe-apps' HELR schedule at toy size) — ct×ct product, a
    // rotate-and-add fold over 8 slots (the ladder above, one level down),
    // a squaring for the sigmoid polynomial, a plaintext scaling, and the
    // weight update add.
    let modeled = m.mult_merged(ell)
        + m.rotate_fold(ell - 1, &stages)
        + m.mult_merged(ell - 1)
        + m.pt_mult(ell - 2)
        + m.add(ell - 3);
    rows.run("HelrMicro", Primitive, modeled, || {
        let prod = evaluator.mul(&ct_a, &ct_b, &rlk);
        let folded = evaluator.sum_slots(&prod, 3, &gk);
        let sq = evaluator.square(&folded, &rlk);
        let act = evaluator.mul_plain(&sq, &pt_l3);
        evaluator.add(&act, &w_low).recycle(pool);
    });

    // ResNet micro kernel: one convolution-shaped BSGS product (9
    // diagonals, the 3×3 kernel footprint of fhe-apps' ResNet-20 layers),
    // a squaring activation proxy, and the bias add.
    let (n1, modeled) = bsgs_at(&lt9);
    let modeled = modeled + m.mult_merged(ell - 1) + encodes(&m, 1, ell - 2) + m.pt_add(ell - 2);
    rows.run("ResNetMicro", Primitive, modeled, || {
        let y = apply_bsgs(&evaluator, &encoder, &ct_a, &lt9, &gk, n1);
        let act = evaluator.square(&y, &rlk);
        let bias = encoder
            .encode(&vec_b, act.limb_count(), act.scale())
            .expect("bias encodes");
        evaluator.add_plain(&act, &bias).recycle(pool);
    });

    // Program-IR workloads: each is one `Program`, priced by
    // `CostModel::program_cost` (the fold of Table-2 primitive costs over
    // the instruction stream) and executed by `execute`.
    for (row, prog, info, prog_gk, inputs) in &programs {
        let modeled = m.program_cost(prog, info).cost;
        let keys = ExecKeys {
            relin: Some(rlk.switching_key()),
            galois: Some(prog_gk),
        };
        rows.run(row, Source::Program, modeled, || {
            execute(&evaluator, &encoder, prog, inputs, keys)
                .unwrap_or_else(|e| panic!("{row} fails to execute: {e}"));
        });
    }

    // --- the report: ops from the counters, bytes from the replay ---------
    let cfg = gate_config();
    let report = ValidationReport {
        params: [
            ("log_n", LOG_N.to_string()),
            ("limbs", LEVELS.to_string()),
            ("dnum", DNUM.to_string()),
            ("alpha", ctx.params().alpha().to_string()),
            ("beta", ctx.params().beta_at(ell).to_string()),
            ("degree", ctx.params().degree().to_string()),
            ("cache_bytes", cfg.capacity_bytes.to_string()),
            ("block_bytes", cfg.block_bytes.to_string()),
            ("policy", "PinKeys".to_string()),
        ]
        .map(|(k, v)| (k.to_string(), v))
        .into(),
        primitives: rows.rows.iter().map(check).collect(),
    };
    Ledger {
        report,
        events: rows.traces,
    }
}

/// Sweeps the cache-replayed DRAM traffic of six primitive rows across
/// on-chip sizes against the model at the caching level each size affords
/// — the measured counterpart of the Figure-6 cache-size axis.
pub fn sweep(rows: &[RowTrace]) -> Vec<SweepRow> {
    let trace = |name: &str| {
        let row = rows.iter().find(|r| r.name == name);
        &row.unwrap_or_else(|| panic!("no trace for row {name}"))
            .events
    };
    let limb_mb = SCHEME.limb_mib();
    let (alpha, beta) = (SCHEME.alpha(), SCHEME.beta_at(LEVELS));
    let ell = LEVELS;
    let mut rows = Vec::new();
    for limbs in [1u64, 2, 4, 8, 16, 32] {
        let hw = HardwareConfig::gpu().with_cache_mb(limbs as f64 * limb_mb);
        let capacity = (hw.on_chip_mb * 1024.0 * 1024.0) as u64;
        let caching = CachingLevel::best_for_cache(hw.on_chip_mb, alpha, beta, limb_mb);
        let m = model(caching);
        for (name, modeled) in [
            ("Add", m.add(ell)),
            ("PtMult", m.pt_mult(ell)),
            ("Rescale", m.rescale(ell)),
            ("KeySwitch", m.keyswitch(ell)),
            ("Rotate", m.rotate(ell)),
            ("Mult", m.mult_merged(ell)),
        ] {
            let measured = replay(
                trace(name),
                &CacheConfig::pin_keys(capacity, SCHEME.limb_bytes()),
            );
            rows.push(SweepRow {
                primitive: name.to_string(),
                cache_mb: hw.on_chip_mb,
                caching: caching.to_string(),
                modeled_bytes: modeled.dram_total(),
                measured_bytes: measured.dram_total(),
            });
        }
    }
    rows
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

/// Renders the rows' captured spans as Chrome trace-event JSON (load it at
/// `ui.perfetto.dev`): one `X` slice per span, with its counter delta as
/// args, over a per-class bytes-touched counter sampled at each row's start
/// and end — a touch carries no timestamp, so row edges are where the
/// counter is exact.
pub fn perfetto_json(rows: &[RowTrace]) -> String {
    let mut trace = ChromeTrace::new("fhe-program ledger");
    let Some(epoch) = rows.first().map(|r| r.spans[0].begin) else {
        return trace.finish();
    };
    let us = |t: Instant| t.duration_since(epoch).as_micros() as u64;
    let mut touched = OperandClass::ALL.map(|c| (c.name(), 0));
    for row in rows {
        let own = &row.spans[0];
        trace.counter("bytes touched", us(own.begin), &touched);
        for s in &row.spans {
            let o = s.ops;
            let args = [
                ("mults", o.mults),
                ("adds", o.adds),
                ("ntt_fwd", o.ntt_fwd),
                ("ntt_inv", o.ntt_inv),
            ];
            let (begin, end) = (us(s.begin), us(s.end));
            trace.slice(1, "span", s.name, begin, end - begin, &args);
        }
        for e in &row.events {
            if let TraceRecord::Touch { tag, bytes, .. } = *e {
                touched[tag.class as usize].1 += bytes;
            }
        }
        trace.counter("bytes touched", us(own.end), &touched);
    }
    trace.finish()
}
