#![warn(missing_docs)]
//! Functional executor for the [`simfhe::program`] encrypted-program IR.
//!
//! [`execute`] interprets a validated [`Program`] against a
//! [`CkksContext`], mapping each instruction onto the `ckks` crate's
//! `Evaluator` exactly the way the hand-written application schedules do —
//! so a workload expressed as a `Program` is *byte-identical* to its
//! hard-coded counterpart (asserted for the HELR step in this crate's
//! tests). Four schedule-level behaviors are shared contracts with the
//! analytical pricer ([`simfhe::CostModel::program_cost`]):
//!
//! - **Rotation hoisting** — the maximal consecutive-rotation runs
//!   computed by [`simfhe::program::hoisted_runs`] execute through
//!   [`ckks::hoisting::rotate_hoisted`], sharing one Decomp+ModUp across
//!   the run. The pricer charges the same schedule.
//! - **ModDown merge** — `Mult` is [`ckks::Evaluator::mul_with_key`], the
//!   paper's Figure 4c sequence (one `ModDown` over `{q_{ℓ-1}} ∪ P`), and
//!   is priced as `CostModel::mult_merged`.
//! - **Double-hoisted BSGS** — `BsgsMatVec` is
//!   [`ckks::hoisting::apply_bsgs`] at [`simfhe::program::bsgs_baby_dim`],
//!   priced as `CostModel::matvec_bsgs_double_hoisted` over the declared
//!   offsets, so the required Galois steps (only baby steps a diagonal
//!   lands on), the transform count and the execution agree. The bound
//!   [`LinearTransform`] encodes its diagonals on first use and keeps
//!   them: a transform executed again pays no encode, and none is priced.
//! - **Folded ladders** — a rotate-and-add ladder
//!   `t ← rot(acc, s); acc ← acc + t` of two or more rungs whose `t` is
//!   dead afterwards ([`simfhe::program::folded_ladders`] — recognised in
//!   the instruction stream, not declared) executes as one
//!   [`ckks::hoisting::rotate_fold`] over the stages the validator derived
//!   ([`simfhe::program::ladder_stages`]: two rungs to a `ModUp`, `c0`
//!   raised until the ladder ends), never writing `t`; the manifest lists
//!   the combined steps and the pricer charges `CostModel::rotate_fold`.
//!
//! Registers borrow the caller's input ciphertexts until an instruction
//! overwrites the name: a run copies a ciphertext only where the program
//! says so (a `Rotate` by a multiple of the slot count) and on the way out
//! for an output named twice or still holding a caller's input. Every
//! other output is moved out of the register file and its pool lease
//! shrunk to its length in place.
//! A register lives until its last read: the validator's death table
//! ([`simfhe::program::InstrMeta::dies`], one backward liveness pass) names
//! the values each instruction reads for the last time and its dead store,
//! and the executor drops them to the allocator once the instruction — or
//! the hoisted run or folded ladder it belongs to — has run. Outputs never
//! die.
//!
//! Every instruction runs inside a `Prog.<Mnemonic>` telemetry span; the
//! serving runtime's request timelines surface these as per-instruction
//! time attribution for `RunProgram` jobs.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use ckks::hoisting::{apply_bsgs, rotate_fold, rotate_hoisted, LinearTransform};
use ckks::{Ciphertext, CkksContext, Encoder, Evaluator, GaloisKeys, SwitchingKey};
use fhe_math::cfft::Complex;
use fhe_math::telemetry;
use simfhe::program::{
    bsgs_baby_dim, FoldRole, HoistRole, Instr, KeyManifest, Program, ProgramEnv, ProgramInfo,
    ValidateError,
};

pub mod ledger;
pub mod replay;
pub mod report;
pub mod workloads;

pub use simfhe::program;

/// Relative tolerance for input-ciphertext scales against the scheme
/// scale Δ (fresh encryptions are exact; the bound leaves room for
/// clients that re-encode).
pub const INPUT_SCALE_TOLERANCE: f64 = 1e-3;

/// Keys available to an execution; checked against the program's
/// [`KeyManifest`] before any instruction runs.
#[derive(Clone, Copy)]
pub struct ExecKeys<'a> {
    /// Relinearization (`s² → s`) switching key, required iff the program
    /// contains a `Mult`.
    pub relin: Option<&'a SwitchingKey>,
    /// Galois key set covering the manifest's rotation steps.
    pub galois: Option<&'a GaloisKeys>,
}

/// Named operand bindings for one execution.
#[derive(Clone, Default)]
pub struct ExecInputs {
    /// Ciphertext registers, one per `ct_inputs` declaration.
    pub cts: BTreeMap<String, Ciphertext>,
    /// Plaintext slot vectors, one per `pt_inputs` declaration (encoded
    /// on the fly at the consuming instruction's level).
    pub pts: BTreeMap<String, Vec<Complex>>,
    /// Diagonal matrices, one per `matrices` declaration; the transform's
    /// slot count and offsets must match the declaration exactly.
    pub mats: BTreeMap<String, LinearTransform>,
}

/// Structured execution failure. The executor never panics on bad
/// programs or bindings: everything a client could get wrong surfaces
/// here (the serving runtime maps these onto protocol error replies).
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The program failed static validation.
    Invalid(ValidateError),
    /// A declared ciphertext input was not bound.
    MissingInput(String),
    /// A bound ciphertext arrived at the wrong level.
    InputLevel {
        /// Input name.
        name: String,
        /// Declared limb count.
        want: usize,
        /// Bound limb count.
        got: usize,
    },
    /// A bound ciphertext's scale is not the scheme scale Δ.
    InputScale(String),
    /// A declared plaintext operand was not bound.
    MissingPlaintext(String),
    /// A declared matrix operand was not bound.
    MissingMatrix(String),
    /// A bound matrix disagrees with its declared slot count or offsets.
    MatrixShape(String),
    /// The program multiplies but no relinearization key was supplied.
    MissingRelinKey,
    /// A manifest rotation step has no Galois key.
    MissingGaloisKey(i64),
    /// The instruction is priced by the model but not executable by the
    /// functional library (`Bootstrap`).
    Unsupported(&'static str),
    /// A plaintext operand failed to encode.
    Encode(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Invalid(e) => write!(f, "invalid program: {e}"),
            ExecError::MissingInput(n) => write!(f, "ciphertext input `{n}` not bound"),
            ExecError::InputLevel { name, want, got } => {
                write!(f, "input `{name}` at {got} limbs, declared {want}")
            }
            ExecError::InputScale(n) => write!(f, "input `{n}` not at the scheme scale"),
            ExecError::MissingPlaintext(n) => write!(f, "plaintext `{n}` not bound"),
            ExecError::MissingMatrix(n) => write!(f, "matrix `{n}` not bound"),
            ExecError::MatrixShape(n) => write!(f, "matrix `{n}` shape mismatch"),
            ExecError::MissingRelinKey => write!(f, "program needs a relinearization key"),
            ExecError::MissingGaloisKey(s) => write!(f, "missing Galois key for step {s}"),
            ExecError::Unsupported(what) => write!(f, "{what} is not executable"),
            ExecError::Encode(n) => write!(f, "plaintext `{n}` failed to encode"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ValidateError> for ExecError {
    fn from(e: ValidateError) -> Self {
        ExecError::Invalid(e)
    }
}

/// Checks that `keys` cover `manifest` under the given context (Galois
/// steps resolve through `rotation_element`, matching how the serving
/// runtime's key cache indexes them).
pub fn check_keys(
    ctx: &CkksContext,
    manifest: &KeyManifest,
    keys: &ExecKeys<'_>,
) -> Result<(), ExecError> {
    if manifest.relin && keys.relin.is_none() {
        return Err(ExecError::MissingRelinKey);
    }
    if !manifest.galois_steps.is_empty() {
        let gk = keys.galois.ok_or(ExecError::MissingGaloisKey(
            *manifest.galois_steps.first().expect("non-empty"),
        ))?;
        for &step in &manifest.galois_steps {
            if gk.get(ctx.rotation_element(step)).is_none() {
                return Err(ExecError::MissingGaloisKey(step));
            }
        }
    }
    Ok(())
}

/// Static telemetry span name for one instruction (spans require
/// `&'static str`).
fn span_name(instr: &Instr) -> &'static str {
    match instr {
        Instr::Add { .. } => "Prog.Add",
        Instr::Sub { .. } => "Prog.Sub",
        Instr::PtMult { .. } => "Prog.PtMult",
        Instr::MulConst { .. } => "Prog.MulConst",
        Instr::AddConst { .. } => "Prog.AddConst",
        Instr::Mult { .. } => "Prog.Mult",
        Instr::Rotate { .. } => "Prog.Rotate",
        Instr::Rescale { .. } => "Prog.Rescale",
        Instr::BsgsMatVec { .. } => "Prog.BsgsMatVec",
        Instr::Bootstrap { .. } => "Prog.Bootstrap",
    }
}

/// Validates `program` against the context, checks the bindings and keys,
/// and interprets the instruction stream. Returns the output ciphertexts
/// in `program.outputs` order.
///
/// Deterministic: the same program, bindings, and keys produce
/// byte-identical outputs on every call (the serving runtime's
/// `RunProgram` opcode relies on this for its loopback identity
/// guarantee).
pub fn execute(
    ev: &Evaluator,
    encoder: &Encoder,
    prog: &Program,
    inputs: &ExecInputs,
    keys: ExecKeys<'_>,
) -> Result<Vec<(String, Ciphertext)>, ExecError> {
    let ctx = ev.context();
    let env = ProgramEnv {
        levels: ctx.params().levels(),
        slots: encoder.slots(),
    };
    let info = prog.validate(&env)?;
    execute_validated(ev, encoder, prog, &info, inputs, keys)
}

/// [`execute`] for a program already validated against the same context
/// (the serving runtime validates once at upload and reuses the
/// [`ProgramInfo`] on every run).
pub fn execute_validated(
    ev: &Evaluator,
    encoder: &Encoder,
    prog: &Program,
    info: &ProgramInfo,
    inputs: &ExecInputs,
    keys: ExecKeys<'_>,
) -> Result<Vec<(String, Ciphertext)>, ExecError> {
    let ctx = ev.context();
    let scale = ctx.params().scale();

    // Fail closed before touching any ciphertext: unsupported ops, key
    // coverage, binding presence, levels, scales, matrix shapes.
    if prog
        .instrs
        .iter()
        .any(|i| matches!(i, Instr::Bootstrap { .. }))
    {
        return Err(ExecError::Unsupported("Bootstrap"));
    }
    check_keys(ctx, &info.manifest, &keys)?;
    for decl in &prog.ct_inputs {
        let ct = inputs
            .cts
            .get(&decl.name)
            .ok_or_else(|| ExecError::MissingInput(decl.name.clone()))?;
        if ct.limb_count() != decl.level {
            return Err(ExecError::InputLevel {
                name: decl.name.clone(),
                want: decl.level,
                got: ct.limb_count(),
            });
        }
        if (ct.scale() / scale - 1.0).abs() > INPUT_SCALE_TOLERANCE {
            return Err(ExecError::InputScale(decl.name.clone()));
        }
    }
    for decl in &prog.pt_inputs {
        if !inputs.pts.contains_key(&decl.name) {
            return Err(ExecError::MissingPlaintext(decl.name.clone()));
        }
    }
    for decl in &prog.matrices {
        let lt = inputs
            .mats
            .get(&decl.name)
            .ok_or_else(|| ExecError::MissingMatrix(decl.name.clone()))?;
        if lt.slots() != decl.slots || lt.offsets() != decl.offsets {
            return Err(ExecError::MatrixShape(decl.name.clone()));
        }
    }

    let mut regs = Registers(
        prog.ct_inputs
            .iter()
            .map(|decl| (decl.name.as_str(), Cow::Borrowed(&inputs.cts[&decl.name])))
            .collect(),
    );

    // With an empty manifest nothing looks a key up: a rotation by a
    // multiple of the slot count is a copy.
    let no_keys = GaloisKeys::new();
    let gk = keys.galois.unwrap_or(&no_keys);
    let mut idx = 0;
    while idx < prog.instrs.len() {
        let instr = &prog.instrs[idx];
        let meta = &info.instrs[idx];

        // A hoisted run executes as one rotate_hoisted call sharing the
        // Decomp+ModUp; its members then fill their destinations in order.
        if let HoistRole::Leader(len) = meta.hoist {
            let _span = telemetry::span("Prog.RotateHoisted");
            let src = match instr {
                Instr::Rotate { a, .. } => a.as_str(),
                _ => unreachable!("hoist leaders are rotations"),
            };
            let steps: Vec<i64> = prog.instrs[idx..idx + len]
                .iter()
                .map(|i| match i {
                    Instr::Rotate { steps, .. } => *steps,
                    _ => unreachable!("hoisted runs contain only rotations"),
                })
                .collect();
            let rotated = rotate_hoisted(ev, regs.get(src), &steps, gk);
            for (at, out) in (idx..idx + len).zip(rotated) {
                regs.set(prog.instrs[at].dst(), out);
                regs.free(&info.instrs[at].dies);
            }
            idx += len;
            continue;
        }

        // A folded ladder executes as one rotate_fold call over the stages
        // the validator derived; only its running sum is written.
        if let FoldRole::Leader(ladder) = meta.fold {
            let _span = telemetry::span("Prog.RotateFold");
            let ladder = &info.ladders[ladder];
            let acc = match instr {
                Instr::Rotate { a, .. } => a.as_str(),
                _ => unreachable!("fold leaders are rotations"),
            };
            let folded = rotate_fold(ev, regs.get(acc), &ladder.stages, gk);
            regs.set(acc, folded);
            let end = idx + 2 * ladder.rungs;
            for member in &info.instrs[idx..end] {
                regs.free(&member.dies);
            }
            idx = end;
            continue;
        }

        let _span = telemetry::span(span_name(instr));
        let out = match instr {
            Instr::Add { a, b, .. } => ev.add(regs.get(a), regs.get(b)),
            Instr::Sub { a, b, .. } => ev.sub(regs.get(a), regs.get(b)),
            Instr::PtMult { a, pt, .. } => {
                let ct = regs.get(a);
                let encoded = encoder
                    .encode(&inputs.pts[pt], ct.limb_count(), scale)
                    .map_err(|_| ExecError::Encode(pt.clone()))?;
                ev.mul_plain_no_rescale(ct, &encoded)
            }
            Instr::MulConst { a, value, .. } => {
                ev.mul_scalar_no_rescale(regs.get(a), *value, scale)
            }
            Instr::AddConst { a, value, .. } => ev.add_scalar(regs.get(a), *value),
            Instr::Mult { a, b, .. } => {
                let rlk = keys.relin.expect("checked against the manifest");
                ev.mul_with_key(regs.get(a), regs.get(b), rlk)
            }
            Instr::Rotate { a, steps, .. } => ev.rotate(regs.get(a), *steps, gk),
            Instr::Rescale { a, .. } => ev.rescale(regs.get(a)),
            Instr::BsgsMatVec { a, mat, .. } => {
                let lt = &inputs.mats[mat.as_str()];
                let n1 = bsgs_baby_dim(lt.diagonal_count());
                apply_bsgs(ev, encoder, regs.get(a), lt, gk, n1)
            }
            Instr::Bootstrap { .. } => unreachable!("rejected above"),
        };
        regs.set(instr.dst(), out);
        regs.free(&meta.dies);
        idx += 1;
    }

    // Moved out, not cloned; only an output named twice is copied. An
    // output never dies, so it is still a pool lease here, whose capacity
    // can be several times its length: it is shrunk to its length before
    // the caller keeps it.
    let outputs = &prog.outputs;
    Ok(outputs
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let ct = if outputs[i + 1..].contains(name) {
                regs.get(name).clone()
            } else {
                let mut ct = regs.take(name);
                ct.shrink_to_fit();
                ct
            };
            (name.clone(), ct)
        })
        .collect())
}

/// The register file of one run: a name holds the caller's input ciphertext
/// by reference until an instruction writes it, and nothing once its value
/// has died.
struct Registers<'a>(BTreeMap<&'a str, Cow<'a, Ciphertext>>);

impl<'a> Registers<'a> {
    /// The current value of a register the validator saw written.
    fn get(&self, name: &str) -> &Ciphertext {
        &self.0[name]
    }

    /// The value of a register nothing reads again, moved out (a caller's
    /// input it never overwrote is copied).
    fn take(&mut self, name: &str) -> Ciphertext {
        self.0
            .remove(name)
            .expect("an output is written")
            .into_owned()
    }

    fn set(&mut self, name: &'a str, value: Ciphertext) {
        self.0.insert(name, Cow::Owned(value));
    }

    /// Drops the values the death table says are never read again. They go
    /// back to the allocator, not to the scratch pool: a lease's capacity
    /// can be several times its length, and the pool would keep it.
    fn free(&mut self, dead: &[String]) {
        for name in dead {
            self.0.remove(name.as_str());
        }
    }
}
