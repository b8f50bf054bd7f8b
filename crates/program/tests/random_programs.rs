//! Random *valid* programs against a plaintext reference.
//!
//! The curated workloads cannot vouch for a pass that rewrites instruction
//! sequences (ladder folding, rotation hoisting): this suite draws programs
//! nobody wrote — instruction soup, and ladders in every shape the
//! recogniser has to tell apart — with [`Program::validate`] as the
//! generator's oracle, interprets each over complex slot vectors in the
//! clear, and holds the encrypted execution to three things:
//!
//! 1. it decrypts to the reference within [`SLOT_ERROR_BOUND`] (a fixed
//!    bound for now; deriving it from the validator's level / scale tracking
//!    is the open half of ROADMAP item 5(a));
//! 2. `CostModel::program_cost` predicts the run's forward and inverse limb
//!    transforms, modular mults and modular adds *exactly*
//!    (`fhe_math::telemetry`), on every drawn program;
//! 3. folding changes nothing but rounding noise: the same program with an
//!    `AddConst 0.0` spliced between the rungs of each folded ladder (which
//!    defeats recognition) decrypts to the same slots within
//!    [`FUSION_NOISE_BOUND`].
//!
//! This binary runs in its own process, so the process-global telemetry
//! counters see only this file's work; the tests run serially via a mutex.

use ckks::hoisting::{fold_stages, rotate_fold, LinearTransform};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, GaloisKeys,
    KeyGenerator, RelinKey, SecretKey,
};
use fhe_math::cfft::Complex;
use fhe_math::telemetry;
use fhe_program::program::{
    ladder_stages, CtDecl, Instr, Ladder, MatDecl, Program, ProgramEnv, ProgramInfo, PtDecl,
};
use fhe_program::{execute_validated, workloads, ExecInputs, ExecKeys};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simfhe::{AlgoOpts, CachingLevel, CostModel, MadConfig, SchemeParams};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cases per property, pinned: the suite is part of `cargo test -p
/// fhe-program --release` in CI and runs there in seconds.
const PROPTEST_CASES: u32 = 256;

/// `L = 8`, `dnum = 3`: the `lib_programs` digit geometry, where the model's
/// `α = ⌈(L+1)/dnum⌉` and the library's `α = ⌈L/dnum⌉` coincide.
const LEVELS: usize = 8;
const LOG_DEGREE: u32 = 5;
const SLOTS: usize = 16;
const ENV: ProgramEnv = ProgramEnv {
    levels: LEVELS,
    slots: SLOTS,
};

/// The generator keeps every register's slots inside this magnitude, so a
/// value at `Δ^e` on `ℓ ≥ e` limbs stays clear of the modulus.
const MAX_MAGNITUDE: f64 = 32.0;
/// Largest slot error of an encrypted run against the plaintext reference
/// (30-bit scale, values up to [`MAX_MAGNITUDE`], depth up to `L − 1`): five
/// times the worst of 1,500 draws (9.5e-5).
const SLOT_ERROR_BOUND: f64 = 5e-4;
/// Largest slot difference between a program run with its ladders folded
/// and run rung by rung: four times the worst of 1,500 draws (4.9e-6).
const FUSION_NOISE_BOUND: f64 = 2e-5;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A failed case poisons the lock; the others still run.
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One context and key set for the whole suite: a relinearization key and
/// a Galois key for every rotation of the ring, the whole turn included.
struct Fixture {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    ev: Evaluator,
    sk: SecretKey,
    relin: RelinKey,
    galois: GaloisKeys,
    model: CostModel,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(LOG_DEGREE)
                .levels(LEVELS)
                .scale_bits(30)
                .first_modulus_bits(40)
                .special_modulus_bits(36)
                .dnum(3)
                .build()
                .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let steps: Vec<i64> = (1..=SLOTS as i64).collect();
        Fixture {
            encoder: Encoder::new(ctx.clone()),
            ev: Evaluator::new(ctx.clone()),
            relin: keygen.relin_key(&mut rng, &sk),
            galois: keygen.galois_keys(&mut rng, &sk, &steps, false),
            sk,
            ctx,
            model: CostModel::new(
                SchemeParams {
                    log_n: LOG_DEGREE,
                    log_q: 30,
                    limbs: LEVELS,
                    dnum: 3,
                    fft_iter: 1,
                },
                MadConfig {
                    caching: CachingLevel::Baseline,
                    algo: AlgoOpts::all(),
                },
            ),
        }
    })
}

// ---------------------------------------------------------------------------
// The plaintext reference
// ---------------------------------------------------------------------------

type Slots = Vec<Complex>;

/// Operand values of one program, in the clear.
#[derive(Clone, Default)]
struct Bindings {
    cts: BTreeMap<String, Slots>,
    pts: BTreeMap<String, Slots>,
    /// Per matrix, its non-zero diagonals by offset.
    mats: BTreeMap<String, BTreeMap<usize, Slots>>,
}

fn zip(a: &Slots, b: &Slots, f: impl Fn(Complex, Complex) -> Complex) -> Slots {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}

/// What one instruction computes, slot by slot.
fn step(instr: &Instr, regs: &BTreeMap<String, Slots>, bound: &Bindings) -> Slots {
    let n = SLOTS as i64;
    match instr {
        Instr::Add { a, b, .. } => zip(&regs[a], &regs[b], |x, y| x + y),
        Instr::Sub { a, b, .. } => zip(&regs[a], &regs[b], |x, y| x - y),
        Instr::Mult { a, b, .. } => zip(&regs[a], &regs[b], |x, y| x * y),
        Instr::PtMult { a, pt, .. } => zip(&regs[a], &bound.pts[pt], |x, y| x * y),
        Instr::MulConst { a, value, .. } => regs[a].iter().map(|x| x.scale(*value)).collect(),
        Instr::AddConst { a, value, .. } => {
            let c = Complex::new(*value, 0.0);
            regs[a].iter().map(|&x| x + c).collect()
        }
        Instr::Rotate { a, steps, .. } => (0..n)
            .map(|j| regs[a][(j + steps).rem_euclid(n) as usize])
            .collect(),
        Instr::Rescale { a, .. } => regs[a].clone(),
        Instr::BsgsMatVec { a, mat, .. } => {
            let mut out = vec![Complex::default(); SLOTS];
            for (&d, diag) in &bound.mats[mat] {
                for (j, slot) in out.iter_mut().enumerate() {
                    *slot = *slot + diag[j] * regs[a][(j + d) % SLOTS];
                }
            }
            out
        }
        Instr::Bootstrap { .. } => unreachable!("the generator draws no Bootstrap"),
    }
}

/// The reference interpreter: the program's outputs over slot vectors.
fn interpret(prog: &Program, bound: &Bindings) -> Vec<Slots> {
    let mut regs = bound.cts.clone();
    for instr in &prog.instrs {
        let value = step(instr, &regs, bound);
        regs.insert(instr.dst().to_string(), value);
    }
    prog.outputs.iter().map(|name| regs[name].clone()).collect()
}

fn magnitude(v: &Slots) -> f64 {
    v.iter().map(|c| c.abs()).fold(0.0, f64::max)
}

fn distance(a: &Slots, b: &Slots) -> f64 {
    magnitude(&zip(a, b, |x, y| x - y))
}

// ---------------------------------------------------------------------------
// The generator
// ---------------------------------------------------------------------------

/// Every shape the coverage test wants to see drawn.
const SHAPES: [&str; 18] = [
    "folded",
    "read_after",
    "t_output",
    "t_is_acc",
    "interrupted",
    "back_to_back",
    "shares_modup",
    "doubling",
    "non_doubling",
    "negative",
    "cancelling",
    "swapped_add",
    "sparse_diagonals",
    "matrix_at_two_levels",
    "unequal_mult",
    "hoisted_run",
    "output_twice",
    "output_is_input",
];

/// What a drawn program turned out to contain: names from [`SHAPES`].
#[derive(Clone, Debug, Default)]
struct Shapes(BTreeSet<&'static str>);

impl Shapes {
    fn note(&mut self, shape: &'static str, seen: bool) {
        debug_assert!(SHAPES.contains(&shape));
        if seen {
            self.0.insert(shape);
        }
    }
}

struct Drawn {
    prog: Program,
    info: ProgramInfo,
    bound: Bindings,
    shapes: Shapes,
}

/// A program under construction, with every register's reference value.
struct Draft {
    rng: StdRng,
    prog: Program,
    bound: Bindings,
    regs: BTreeMap<String, Slots>,
    /// Registers that must be outputs (a ladder's `t`, kept alive).
    keep: Vec<String>,
    fresh: usize,
    shapes: Shapes,
}

impl Draft {
    fn values(rng: &mut StdRng, bound: f64) -> Slots {
        (0..SLOTS)
            .map(|_| Complex::new(rng.gen_range(-bound..bound), rng.gen_range(-bound..bound)))
            .collect()
    }

    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut prog = Program {
            name: format!("random-{seed:x}"),
            ..Program::default()
        };
        let mut bound = Bindings::default();
        for i in 0..rng.gen_range(2..4usize) {
            // Mostly fresh at the top; some arrive lower (unequal `Mult`s).
            let level = if rng.gen_bool(0.6) {
                LEVELS
            } else {
                rng.gen_range(3..=LEVELS)
            };
            let name = format!("in{i}");
            bound.cts.insert(name.clone(), Self::values(&mut rng, 0.5));
            prog.ct_inputs.push(CtDecl { name, level });
        }
        bound.pts.insert("p".into(), Self::values(&mut rng, 0.9));
        prog.pt_inputs.push(PtDecl { name: "p".into() });
        Self {
            regs: bound.cts.clone(),
            rng,
            prog,
            bound,
            keep: Vec::new(),
            fresh: 0,
            shapes: Shapes::default(),
        }
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.fresh += 1;
        format!("{stem}{}", self.fresh)
    }

    fn pick(&mut self) -> String {
        let at = self.rng.gen_range(0..self.regs.len());
        self.regs.keys().nth(at).expect("in range").clone()
    }

    /// A destination: mostly a new name, sometimes one that shadows.
    fn dst(&mut self) -> String {
        if self.rng.gen_bool(0.2) {
            self.pick()
        } else {
            self.fresh("r")
        }
    }

    /// Appends `instr` if the validator accepts the program with it, every
    /// intermediate fits its modulus (`Δ^e` on at least `e` limbs — `Mult`
    /// and `BsgsMatVec` hold one more `Δ` before their merged rescale) and
    /// the result stays inside [`MAX_MAGNITUDE`]; otherwise leaves the
    /// program as it was.
    fn try_push(&mut self, instr: Instr) -> bool {
        let dst = instr.dst().to_string();
        let value = step(&instr, &self.regs, &self.bound);
        let merged = matches!(instr, Instr::Mult { .. } | Instr::BsgsMatVec { .. });
        self.prog.instrs.push(instr);
        self.prog.outputs = vec![dst.clone()];
        let fits = self.prog.validate(&ENV).is_ok_and(|info| {
            let meta = info.instrs.last().expect("one per instruction");
            (meta.out_scale_exp + u32::from(merged)) as usize <= meta.ell
                && meta.out_scale_exp as usize <= meta.out_level
        });
        if fits && magnitude(&value) <= MAX_MAGNITUDE {
            self.regs.insert(dst, value);
            true
        } else {
            self.prog.instrs.pop();
            false
        }
    }

    /// One instruction of soup (dropped if it does not fit).
    fn soup(&mut self) {
        let (a, b, dst) = (self.pick(), self.pick(), self.dst());
        let declared = self.prog.matrices.len();
        let instr = match self.rng.gen_range(0..12) {
            0 | 1 => Instr::Add { dst, a, b },
            2 => Instr::Sub { dst, a, b },
            3 | 4 => Instr::Mult { dst, a, b },
            5 => Instr::PtMult {
                dst,
                a,
                pt: "p".into(),
            },
            6 => Instr::MulConst {
                dst,
                a,
                value: self.rng.gen_range(-0.9..0.9),
            },
            7 => Instr::AddConst {
                dst,
                a,
                value: self.rng.gen_range(-1.0..1.0),
            },
            8 => Instr::Rotate {
                dst,
                a,
                steps: self.rng.gen_range(-20..20),
            },
            9 | 10 => Instr::Rescale { dst, a },
            _ => {
                let mat = self.matrix();
                Instr::BsgsMatVec { dst, a, mat }
            }
        };
        // A scaled value usually comes straight back down.
        let scaled = matches!(instr, Instr::PtMult { .. } | Instr::MulConst { .. });
        let dst = instr.dst().to_string();
        let pushed = self.try_push(instr);
        if pushed && scaled && self.rng.gen_bool(0.7) {
            self.try_push(Instr::Rescale {
                dst: dst.clone(),
                a: dst,
            });
        } else if !pushed && self.prog.matrices.len() > declared {
            let unused = self.prog.matrices.pop().expect("just declared");
            self.bound.mats.remove(&unused.name);
        }
    }

    /// A matrix for one `BsgsMatVec`: often one already declared, so a
    /// transform is applied at several levels, otherwise a new one over a
    /// sparse diagonal set — a few offsets anywhere in the ring.
    fn matrix(&mut self) -> String {
        if !self.prog.matrices.is_empty() && self.rng.gen_bool(0.8) {
            let at = self.rng.gen_range(0..self.prog.matrices.len());
            return self.prog.matrices[at].name.clone();
        }
        let mut offsets: Vec<usize> = (0..SLOTS).filter(|_| self.rng.gen_bool(0.25)).collect();
        if offsets.is_empty() {
            offsets.push(self.rng.gen_range(0..SLOTS));
        }
        let name = self.fresh("m");
        let diagonals = offsets
            .iter()
            .map(|&d| (d, Self::values(&mut self.rng, 0.4)))
            .collect();
        self.bound.mats.insert(name.clone(), diagonals);
        self.prog.matrices.push(MatDecl {
            name: name.clone(),
            slots: SLOTS,
            offsets,
        });
        name
    }

    /// A hoisted run: two or three rotations of one register back to back.
    fn rotations(&mut self) {
        let a = self.pick();
        for _ in 0..self.rng.gen_range(2..4) {
            let dst = self.fresh("h");
            let steps = self.rng.gen_range(1..SLOTS as i64);
            self.try_push(Instr::Rotate {
                dst,
                a: a.clone(),
                steps,
            });
        }
    }

    /// A rotate-and-add ladder of 2–6 rungs on a drawn register, in one of
    /// the shapes the recogniser must tell apart.
    fn ladder(&mut self, acc: String) {
        let rungs = self.rng.gen_range(2..=6usize);
        let slots = SLOTS as i64;
        let steps: Vec<i64> = match self.rng.gen_range(0..5) {
            0 | 1 => {
                self.shapes.note("doubling", true);
                (0..rungs).map(|i| 1i64 << i).collect()
            }
            2 => {
                self.shapes.note("non_doubling", true);
                (0..rungs).map(|_| self.rng.gen_range(1..slots)).collect()
            }
            3 => {
                self.shapes.note("negative", true);
                (0..rungs).map(|_| -self.rng.gen_range(1..slots)).collect()
            }
            _ => {
                // Pairs whose combined step is a multiple of the slot count.
                self.shapes.note("cancelling", true);
                let mut steps = Vec::new();
                while steps.len() < rungs {
                    let a = self.rng.gen_range(1..slots);
                    let b = if self.rng.gen_bool(0.5) {
                        slots - a
                    } else {
                        -a
                    };
                    steps.extend([a, b]);
                }
                steps
            }
        };
        let t = match self.rng.gen_range(0..8) {
            0 => {
                self.shapes.note("t_is_acc", true);
                acc.clone()
            }
            1 => self.pick(),
            _ => self.fresh("t"),
        };
        if self.rng.gen_bool(0.15) {
            // A rotation of `acc` just before the first rung shares its
            // ModUp with it: the ladder then starts at the second rung.
            let dst = self.fresh("h");
            let steps = self.rng.gen_range(1..slots);
            let shared = self.try_push(Instr::Rotate {
                dst,
                a: acc.clone(),
                steps,
            });
            self.shapes.note("shares_modup", shared);
        }
        let cut = self
            .rng
            .gen_bool(0.2)
            .then(|| self.rng.gen_range(1..steps.len()));
        for (i, &step) in steps.iter().enumerate() {
            if cut == Some(i) {
                let cut = self.try_push(Instr::AddConst {
                    dst: acc.clone(),
                    a: acc.clone(),
                    value: 0.25,
                });
                self.shapes.note("interrupted", cut);
            }
            let rotate = Instr::Rotate {
                dst: t.clone(),
                a: acc.clone(),
                steps: step,
            };
            let swapped = self.rng.gen_bool(0.3);
            let (a, b) = if swapped { (&t, &acc) } else { (&acc, &t) };
            let add = Instr::Add {
                dst: acc.clone(),
                a: a.clone(),
                b: b.clone(),
            };
            if !self.try_push(rotate) {
                break;
            }
            if !self.try_push(add) {
                // The rotation alone stays: valid, and not a rung.
                break;
            }
            self.shapes.note("swapped_add", swapped);
        }
        match self.rng.gen_range(0..6) {
            0 => {
                let dst = self.fresh("r");
                let read = self.try_push(Instr::Sub { dst, a: acc, b: t });
                self.shapes.note("read_after", read);
            }
            1 => {
                self.shapes.note("t_output", true);
                self.keep.push(t);
            }
            _ => {}
        }
    }

    fn finish(mut self) -> Drawn {
        let mut outputs = std::mem::take(&mut self.keep);
        for _ in 0..self.rng.gen_range(1..4) {
            outputs.push(self.pick());
        }
        if self.rng.gen_bool(0.15) {
            outputs.push(outputs[0].clone());
        }
        self.prog.outputs = outputs;
        let info = self
            .prog
            .validate(&ENV)
            .expect("the generator emits valid programs");

        let prog = &self.prog;
        let shapes = &mut self.shapes;
        shapes.note("folded", !info.ladders.is_empty());
        shapes.note(
            "hoisted_run",
            !simfhe::program::hoisted_runs(&prog.instrs, SLOTS).is_empty(),
        );
        let sparse = prog.matrices.iter().any(|m| {
            prog.instrs
                .iter()
                .any(|i| matches!(i, Instr::BsgsMatVec { mat, .. } if *mat == m.name))
                && m.offsets.windows(2).any(|w| w[1] - w[0] > 1)
        });
        shapes.note("sparse_diagonals", sparse);
        let mut levels: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
        for (instr, meta) in prog.instrs.iter().zip(&info.instrs) {
            if let Instr::BsgsMatVec { mat, .. } = instr {
                levels.entry(mat).or_default().insert(meta.ell);
            }
        }
        shapes.note(
            "matrix_at_two_levels",
            levels.values().any(|at| at.len() > 1),
        );
        let unequal = |idx: usize| {
            // `Mult` operands at different levels: the working level is
            // below one of them.
            let Instr::Mult { a, b, .. } = &prog.instrs[idx] else {
                return false;
            };
            let level_of = |name: &String| {
                let written = prog.instrs[..idx].iter().rposition(|i| i.dst() == name);
                match written {
                    Some(at) => info.instrs[at].out_level,
                    None => {
                        prog.ct_inputs
                            .iter()
                            .find(|d| d.name == *name)
                            .expect("an input")
                            .level
                    }
                }
            };
            level_of(a) != level_of(b)
        };
        shapes.note("unequal_mult", (0..prog.instrs.len()).any(unequal));
        let mut seen = BTreeSet::new();
        shapes.note("output_twice", !prog.outputs.iter().all(|o| seen.insert(o)));
        let still_an_input = |o: &String| {
            prog.ct_inputs.iter().any(|d| d.name == *o) && prog.instrs.iter().all(|i| i.dst() != o)
        };
        shapes.note("output_is_input", prog.outputs.iter().any(still_an_input));
        // Two ladders with nothing between them.
        let adjacent = |w: &[Ladder]| w[0].start + 2 * w[0].rungs == w[1].start;
        shapes.note("back_to_back", info.ladders.windows(2).any(adjacent));
        Drawn {
            prog: self.prog,
            info,
            bound: self.bound,
            shapes: self.shapes,
        }
    }
}

/// The program of one seed.
fn draw(seed: u64) -> Drawn {
    let mut draft = Draft::new(seed);
    for _ in 0..draft.rng.gen_range(1..6) {
        draft.soup();
    }
    if draft.rng.gen_bool(0.3) {
        draft.rotations();
    }
    for _ in 0..draft.rng.gen_range(1..3) {
        let acc = draft.pick();
        draft.ladder(acc.clone());
        if draft.rng.gen_bool(0.3) {
            // A second ladder right behind the first, on another register.
            let mut other = draft.pick();
            if other == acc {
                other = draft.fresh("r");
                draft.try_push(Instr::Rotate {
                    dst: other.clone(),
                    a: acc,
                    steps: 0,
                });
            }
            if draft.regs.contains_key(&other) {
                draft.ladder(other);
            }
        }
        for _ in 0..draft.rng.gen_range(0..3) {
            draft.soup();
        }
    }
    draft.finish()
}

// ---------------------------------------------------------------------------
// Encrypted execution
// ---------------------------------------------------------------------------

fn encrypt_inputs(prog: &Program, bound: &Bindings, seed: u64) -> ExecInputs {
    let f = fixture();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc1f3);
    let encryptor = Encryptor::new(f.ctx.clone());
    let mut inputs = ExecInputs::default();
    for decl in &prog.ct_inputs {
        let pt = f
            .encoder
            .encode(&bound.cts[&decl.name], decl.level, f.ctx.params().scale())
            .expect("input encodes");
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &f.sk);
        inputs.cts.insert(decl.name.clone(), ct);
    }
    inputs.pts = bound.pts.clone();
    for (name, diagonals) in &bound.mats {
        let lt = LinearTransform::from_diagonals(diagonals.clone(), SLOTS);
        inputs.mats.insert(name.clone(), lt);
    }
    inputs
}

fn run(prog: &Program, info: &ProgramInfo, inputs: &ExecInputs) -> Vec<Ciphertext> {
    let f = fixture();
    let keys = ExecKeys {
        relin: Some(f.relin.switching_key()),
        galois: Some(&f.galois),
    };
    execute_validated(&f.ev, &f.encoder, prog, info, inputs, keys)
        .expect("a valid program executes")
        .into_iter()
        .map(|(_, ct)| ct)
        .collect()
}

fn decrypt(outputs: &[Ciphertext]) -> Vec<Slots> {
    let f = fixture();
    let decryptor = Decryptor::new(f.ctx.clone());
    outputs
        .iter()
        .map(|ct| f.encoder.decode(&decryptor.decrypt(ct, &f.sk)))
        .collect()
}

/// `prog` with an `AddConst 0.0` on the running sum after every rung but
/// the last of each folded ladder: the same function, no ladder left.
fn unfolded(prog: &Program, info: &ProgramInfo) -> Program {
    let mut instrs = Vec::with_capacity(prog.instrs.len());
    let mut ladders = info.ladders.iter().peekable();
    for (idx, instr) in prog.instrs.iter().enumerate() {
        instrs.push(instr.clone());
        let Some(ladder) = ladders.peek() else {
            continue;
        };
        let end = ladder.start + 2 * ladder.rungs;
        let closes_a_rung = idx > ladder.start && (idx - ladder.start) % 2 == 1;
        if closes_a_rung && idx + 1 < end {
            instrs.push(Instr::AddConst {
                dst: instr.dst().to_string(),
                a: instr.dst().to_string(),
                value: 0.0,
            });
        }
        if idx + 1 == end {
            ladders.next();
        }
    }
    Program {
        instrs,
        ..prog.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(PROPTEST_CASES))]

    fn encrypted_runs_match_the_reference_and_the_priced_transform_counts(seed in any::<u64>()) {
        let _guard = serial();
        let Drawn { prog, info, bound, .. } = draw(seed);
        let inputs = encrypt_inputs(&prog, &bound, seed);
        let want = interpret(&prog, &bound);

        // The first run encodes each transform's diagonals; the second is
        // what the model prices, and must repeat the first byte for byte.
        let warm = run(&prog, &info, &inputs);
        telemetry::reset();
        let outputs = run(&prog, &info, &inputs);
        let s = telemetry::snapshot();
        let c = fixture().model.program_cost(&prog, &info).cost;
        prop_assert_eq!(
            (s.ntt_fwd, s.ntt_inv, s.mults, s.adds),
            (c.ntt_fwd, c.ntt_inv, c.executed_mults(), c.executed_adds()),
            "{:#?}",
            prog.instrs
        );
        for (first, second) in warm.iter().zip(&outputs) {
            prop_assert!(first.c0().flat() == second.c0().flat());
            prop_assert!(first.c1().flat() == second.c1().flat());
        }

        let got = decrypt(&outputs);
        prop_assert_eq!(got.len(), want.len());
        for ((got, want), (level, _)) in got.iter().zip(&want).zip(&info.outputs) {
            let error = distance(got, want);
            prop_assert!(
                error < SLOT_ERROR_BOUND,
                "slot error {error} at {level} limbs\n{:#?}",
                prog.instrs
            );
        }
        for (ct, (level, _)) in outputs.iter().zip(&info.outputs) {
            prop_assert_eq!(ct.limb_count(), *level);
        }
    }

    fn folding_a_ladder_changes_nothing_but_rounding_noise(seed in any::<u64>()) {
        let _guard = serial();
        let Drawn { prog, info, bound, .. } = draw(seed);
        prop_assume!(!info.ladders.is_empty());
        let rung_by_rung = unfolded(&prog, &info);
        let plain_info = rung_by_rung.validate(&ENV).expect("still valid");
        prop_assert!(plain_info.ladders.is_empty(), "{:#?}", rung_by_rung.instrs);
        prop_assert_eq!(&plain_info.outputs, &info.outputs);
        // The fold's combined steps are the only keys it adds.
        let rungs = &plain_info.manifest.galois_steps;
        prop_assert!(rungs.iter().all(|s| info.manifest.galois_steps.contains(s)));

        let inputs = encrypt_inputs(&prog, &bound, seed);
        let folded = decrypt(&run(&prog, &info, &inputs));
        let plain = decrypt(&run(&rung_by_rung, &plain_info, &inputs));
        for (folded, plain) in folded.iter().zip(&plain) {
            let noise = distance(folded, plain);
            prop_assert!(noise < FUSION_NOISE_BOUND, "{noise}\n{:#?}", prog.instrs);
        }
    }
}

#[test]
fn the_generator_draws_every_shape() {
    let mut seen: BTreeMap<&str, usize> = SHAPES.iter().map(|&shape| (shape, 0)).collect();
    let (mut ladders, mut unfolded_programs) = (0, 0);
    for seed in 0..400u64 {
        let drawn = draw(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for shape in &drawn.shapes.0 {
            *seen.get_mut(shape).expect("a name from SHAPES") += 1;
        }
        ladders += drawn.info.ladders.len();
        unfolded_programs += usize::from(drawn.info.ladders.is_empty());
    }
    assert!(
        seen.values().all(|&count| count >= 5),
        "a shape is (almost) never drawn: {seen:?}"
    );
    assert!(ladders > 200 && unfolded_programs > 20);
}

// ---------------------------------------------------------------------------
// A whole number of turns is a copy
// ---------------------------------------------------------------------------

#[test]
fn a_whole_turn_needs_no_key_and_copies_bit_for_bit() {
    let _guard = serial();
    let f = fixture();
    let prog = Program {
        name: "turn".into(),
        ct_inputs: vec![CtDecl {
            name: "x".into(),
            level: 4,
        }],
        instrs: [SLOTS as i64, -2 * SLOTS as i64, 0]
            .iter()
            .enumerate()
            .map(|(i, &steps)| Instr::Rotate {
                dst: format!("y{i}"),
                a: "x".into(),
                steps,
            })
            .collect(),
        outputs: vec!["y0".into(), "y1".into(), "y2".into()],
        ..Program::default()
    };
    let info = prog.validate(&ENV).unwrap();
    assert!(info.manifest.galois_steps.is_empty());
    let mut bound = Bindings::default();
    bound.cts.insert(
        "x".into(),
        Draft::values(&mut StdRng::seed_from_u64(6), 0.5),
    );
    let inputs = encrypt_inputs(&prog, &bound, 6);
    let keys = ExecKeys {
        relin: None,
        galois: None,
    };
    let outs = execute_validated(&f.ev, &f.encoder, &prog, &info, &inputs, keys).unwrap();
    let x = &inputs.cts["x"];
    for (_, y) in &outs {
        assert!(y.c0().flat() == x.c0().flat() && y.c1().flat() == x.c1().flat());
    }
    assert_eq!(f.model.program_cost(&prog, &info).cost.ops(), 0);
}

// ---------------------------------------------------------------------------
// The manifest against the keys the fold looks up
// ---------------------------------------------------------------------------

/// The subset of the fixture's Galois keys covering `steps`.
fn keys_for(steps: &[i64]) -> GaloisKeys {
    let f = fixture();
    let mut keys = GaloisKeys::new();
    for &s in steps {
        let element = f.ctx.rotation_element(s);
        let key = f
            .galois
            .get_shared(element)
            .expect("every rotation is keyed");
        keys.insert_shared(element, key.clone());
    }
    keys
}

#[test]
fn the_manifest_lists_exactly_the_keys_the_fold_looks_up() {
    let _guard = serial();
    let f = fixture();
    let pt = f
        .encoder
        .encode(
            &Draft::values(&mut StdRng::seed_from_u64(3), 0.1),
            4,
            f.ctx.params().scale(),
        )
        .unwrap();
    let ct =
        Encryptor::new(f.ctx.clone()).encrypt_symmetric(&mut StdRng::seed_from_u64(4), &pt, &f.sk);

    for rungs in [
        vec![1, 2, 4, 8],
        vec![1, 2, 4],
        vec![-1, -2, 5],
        vec![3, 13, 7, 7],
        vec![i64::MAX, 1],
    ] {
        let prog = Program {
            name: "ladder".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 4,
            }],
            instrs: rungs
                .iter()
                .flat_map(|&steps| {
                    [
                        Instr::Rotate {
                            dst: "t".into(),
                            a: "x".into(),
                            steps,
                        },
                        Instr::Add {
                            dst: "x".into(),
                            a: "x".into(),
                            b: "t".into(),
                        },
                    ]
                })
                .collect(),
            outputs: vec!["x".into()],
            ..Program::default()
        };
        let info = prog.validate(&ENV).unwrap();
        let stages = &info.ladders[0].stages;
        assert_eq!(stages, &ladder_stages(&rungs, SLOTS));
        let manifest = &info.manifest.galois_steps;

        // The two layers' pairing rules name the same rotations …
        if rungs.iter().all(|s| s.abs() < 1 << 20) {
            let element = |s: &i64| f.ctx.rotation_element(*s);
            let by_element = |stages: &[Vec<i64>]| -> Vec<Vec<u64>> {
                stages
                    .iter()
                    .map(|s| s.iter().map(element).collect())
                    .collect()
            };
            assert_eq!(by_element(stages), by_element(&fold_stages(&rungs)));
        }
        // … the fold runs on the manifest's keys and nothing else …
        rotate_fold(&f.ev, &ct, stages, &keys_for(manifest));
        // … and looks up every one of them.
        for missing in manifest {
            let rest: Vec<i64> = manifest.iter().copied().filter(|s| s != missing).collect();
            let keys = keys_for(&rest);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rotate_fold(&f.ev, &ct, stages, &keys)
            }));
            assert!(
                outcome.is_err(),
                "step {missing} of {rungs:?} is never looked up"
            );
        }
    }

    // The shipped ladder program: its manifest is the fold's steps at 16
    // slots, and it runs on exactly those keys.
    let agg = workloads::aggregate_program(SLOTS, LEVELS);
    let info = agg.validate(&ENV).unwrap();
    assert_eq!(info.manifest.galois_steps, vec![1, 2, 3, 4, 8, 12]);
    let mut inputs = ExecInputs::default();
    let mut rng = StdRng::seed_from_u64(5);
    for decl in &agg.ct_inputs {
        let pt = f
            .encoder
            .encode(
                &Draft::values(&mut rng, 0.4),
                decl.level,
                f.ctx.params().scale(),
            )
            .unwrap();
        let ct = Encryptor::new(f.ctx.clone()).encrypt_symmetric(&mut rng, &pt, &f.sk);
        inputs.cts.insert(decl.name.clone(), ct);
    }
    let keys = ExecKeys {
        relin: Some(f.relin.switching_key()),
        galois: Some(&keys_for(&info.manifest.galois_steps)),
    };
    execute_validated(&f.ev, &f.encoder, &agg, &info, &inputs, keys).expect("runs on its manifest");
}
