//! A compact encrypted-program IR shared by the analytical cost model,
//! the functional executor (`fhe-program`), and the serving runtime.
//!
//! A [`Program`] is a straight-line sequence of CKKS primitive
//! instructions over *named ciphertext registers*, with read-only
//! plaintext-vector and diagonal-matrix operands declared up front. The
//! same definition serves three consumers:
//!
//! 1. **Pricing** — [`CostModel::program_cost`] folds the per-primitive
//!    costs of [`crate::primitives`] over the instruction stream,
//!    producing modular-op, DRAM, and whole-limb NTT predictions that the
//!    `validate` binary (`fhe-program`) diffs against the counters and the
//!    memory trace of one real execution, replayed through
//!    `fhe_program::replay`.
//! 2. **Execution** — the `fhe-program` crate interprets the same
//!    instruction stream against a `CkksContext`, sharing the hoisted
//!    ModUp path for consecutive rotations of one register (the
//!    [`hoisted_runs`] schedule below is the contract between the model
//!    and the executor: both price/execute exactly these runs).
//! 3. **Serving** — `fhe-serve` uploads a serialized program once per
//!    session (`UploadProgram`) and runs it as a single `RunProgram`
//!    opcode, deriving the switching keys to pin from the program's
//!    [`KeyManifest`].
//!
//! # Level and scale rules
//!
//! [`Program::validate`] tracks, per register, the limb count (level) and
//! the *nominal scale exponent* — the power of the scheme scale Δ the
//! ciphertext carries. Inputs arrive at Δ¹. The checker rejects, before
//! any ciphertext is touched:
//!
//! - **level underflow** — `Mult`, `Rescale`, and `BsgsMatVec` need a
//!   limb to drop (ℓ ≥ 2); every instruction needs a defined source;
//! - **scale mismatch** — `Add`/`Sub` require both operands at the same
//!   exponent (the functional `Evaluator` enforces the same invariant at
//!   runtime with a relative tolerance; the static exponent model is
//!   exact because every scale in a valid program is a product of Δ
//!   powers divided by rescale primes that track Δ);
//! - **rescale of a Δ¹ ciphertext** — the result would drop below the
//!   encoding scale and decrypt to noise.
//!
//! The wire format (`MADP`, [`Program::to_bytes`] / [`Program::from_bytes`])
//! is bounded and fail-closed: truncation, bad magic, unknown opcodes, and
//! oversized counts all surface as structured [`WireError`]s, never panics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::cost::Cost;
use crate::matvec::{BsgsSchedule, MatVecShape};
use crate::opts::CachingLevel;
use crate::primitives::CostModel;

/// Upper bound on register/operand name length (bytes).
pub const MAX_NAME_LEN: usize = 64;
/// Upper bound on declared inputs/outputs of each kind.
pub const MAX_DECLS: usize = 1024;
/// Upper bound on instruction count.
pub const MAX_INSTRS: usize = 65_536;
/// Upper bound on matrix slot count and diagonal offsets.
pub const MAX_SLOTS: usize = 1 << 20;

/// One CKKS primitive instruction over named registers.
///
/// `dst` may shadow an existing register (straight-line re-assignment);
/// sources always read the *current* value.
#[derive(Clone, Debug, PartialEq)]
pub enum Instr {
    /// `dst = a + b` (levels aligned to the minimum, scales must match).
    Add {
        /// Destination register.
        dst: String,
        /// Left source register.
        a: String,
        /// Right source register.
        b: String,
    },
    /// `dst = a - b`.
    Sub {
        /// Destination register.
        dst: String,
        /// Left source register.
        a: String,
        /// Right source register.
        b: String,
    },
    /// `dst = a ⊙ pt` — plaintext multiply *without* rescale; the
    /// executor encodes the named plaintext vector at `a`'s level and the
    /// scheme scale Δ, so the result carries one extra Δ factor.
    PtMult {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Declared plaintext-vector operand.
        pt: String,
    },
    /// `dst = a · value` at auxiliary scale Δ, without rescale.
    MulConst {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Real scalar factor.
        value: f64,
    },
    /// `dst = a + value` (same value in every slot; scale-preserving).
    AddConst {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Real scalar addend.
        value: f64,
    },
    /// `dst = a ⊗ b` with relinearization and the trailing rescale
    /// (`Evaluator::mul_with_key`): one level consumed.
    Mult {
        /// Destination register.
        dst: String,
        /// Left source register.
        a: String,
        /// Right source register.
        b: String,
    },
    /// `dst = rot(a, steps)`; a multiple of the slot count (0 among them)
    /// is an explicit copy and needs no key. Consecutive rotations of one
    /// unmodified register form a hoisted run sharing a single ModUp (see
    /// [`hoisted_runs`]).
    Rotate {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Slot-rotation step count (a multiple of the slot count copies).
        steps: i64,
    },
    /// `dst = rescale(a)`: drop the last limb, dividing the scale by it.
    Rescale {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
    },
    /// `dst = M · a` via the double-hoisted BSGS diagonal schedule
    /// (`apply_bsgs`) with `n1 = bsgs_baby_dim(diagonals)`; consumes one
    /// level (the rescale is merged into the schedule's last `ModDown`).
    BsgsMatVec {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Declared diagonal-matrix operand.
        mat: String,
    },
    /// `dst = bootstrap(a)` to `to_level` limbs. Priced by the model's
    /// bootstrapping pipeline; the functional executor rejects it with a
    /// structured error (the reduced-parameter library has no functional
    /// bootstrap).
    Bootstrap {
        /// Destination register.
        dst: String,
        /// Source register.
        a: String,
        /// Limb count of the refreshed output.
        to_level: usize,
    },
}

impl Instr {
    /// Instruction mnemonic, used in reports and per-instruction labels.
    pub fn name(&self) -> &'static str {
        match self {
            Instr::Add { .. } => "Add",
            Instr::Sub { .. } => "Sub",
            Instr::PtMult { .. } => "PtMult",
            Instr::MulConst { .. } => "MulConst",
            Instr::AddConst { .. } => "AddConst",
            Instr::Mult { .. } => "Mult",
            Instr::Rotate { .. } => "Rotate",
            Instr::Rescale { .. } => "Rescale",
            Instr::BsgsMatVec { .. } => "BsgsMatVec",
            Instr::Bootstrap { .. } => "Bootstrap",
        }
    }

    /// Destination register name.
    pub fn dst(&self) -> &str {
        match self {
            Instr::Add { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::PtMult { dst, .. }
            | Instr::MulConst { dst, .. }
            | Instr::AddConst { dst, .. }
            | Instr::Mult { dst, .. }
            | Instr::Rotate { dst, .. }
            | Instr::Rescale { dst, .. }
            | Instr::BsgsMatVec { dst, .. }
            | Instr::Bootstrap { dst, .. } => dst,
        }
    }

    /// The ciphertext registers the instruction reads.
    fn sources(&self) -> (&str, Option<&str>) {
        match self {
            Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } | Instr::Mult { a, b, .. } => {
                (a, Some(b))
            }
            Instr::PtMult { a, .. }
            | Instr::MulConst { a, .. }
            | Instr::AddConst { a, .. }
            | Instr::Rotate { a, .. }
            | Instr::Rescale { a, .. }
            | Instr::BsgsMatVec { a, .. }
            | Instr::Bootstrap { a, .. } => (a, None),
        }
    }
}

/// A declared ciphertext input: name plus the limb count it arrives at
/// (the nominal scale is always Δ — fresh encryptions).
#[derive(Clone, Debug, PartialEq)]
pub struct CtDecl {
    /// Register name.
    pub name: String,
    /// Limb count the ciphertext must arrive with.
    pub level: usize,
}

/// A declared read-only plaintext-vector operand (encoded on the fly at
/// the consuming instruction's level).
#[derive(Clone, Debug, PartialEq)]
pub struct PtDecl {
    /// Operand name.
    pub name: String,
}

/// A declared diagonal matrix for `BsgsMatVec`: the *shape* (slot count
/// and non-zero diagonal offsets) lives in the program so the key
/// manifest and the price are derivable statically; the diagonal values
/// are bound at execution time.
#[derive(Clone, Debug, PartialEq)]
pub struct MatDecl {
    /// Operand name.
    pub name: String,
    /// Slot count of the transform (must match the context).
    pub slots: usize,
    /// Sorted non-zero-diagonal offsets, each `< slots`.
    pub offsets: Vec<usize>,
}

/// A straight-line encrypted program.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Human-readable program name (reported, not semantic).
    pub name: String,
    /// Ciphertext inputs.
    pub ct_inputs: Vec<CtDecl>,
    /// Plaintext-vector operands.
    pub pt_inputs: Vec<PtDecl>,
    /// Diagonal-matrix operands.
    pub matrices: Vec<MatDecl>,
    /// Instruction stream.
    pub instrs: Vec<Instr>,
    /// Output register names, in reply order.
    pub outputs: Vec<String>,
}

/// Validation environment: the parameter facts the static checker needs.
#[derive(Clone, Copy, Debug)]
pub struct ProgramEnv {
    /// Limb-chain length of the target context (`CkksParams::levels`).
    pub levels: usize,
    /// Slot count of the target context.
    pub slots: usize,
}

/// Keys a program needs: relinearization and the exact Galois step set,
/// each key with the level it is read at.
///
/// `BsgsMatVec` contributes the same steps `apply_bsgs` rotates by: each
/// non-zero baby step `offset mod n1` some diagonal lands on plus each
/// distinct non-zero giant step `(offset / n1) · n1`. A folded ladder
/// ([`folded_ladders`]) contributes, beside its rungs, each paired stage's
/// combined step ([`ladder_stages`]).
///
/// A key's level is the largest working limb count ([`InstrMeta::ell`])
/// among the instructions that read it: a `Mult` reads the relin key, a
/// `Rotate` its step's key, a `BsgsMatVec` its baby and giant steps' keys,
/// and a folded ladder — at the largest `ell` of its rungs — every stage
/// step, combined steps included.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyManifest {
    /// True when any `Mult` appears (relinearization key required).
    pub relin: bool,
    /// Sorted, de-duplicated rotation steps (step 0 never appears).
    pub galois_steps: Vec<i64>,
    /// The relin key's level, 0 when `relin` is false.
    pub relin_level: usize,
    /// Each of `galois_steps`' key levels, in the same order.
    pub galois_levels: Vec<usize>,
}

/// Role of an instruction in the rotation-hoisting schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HoistRole {
    /// Not part of a hoisted run (priced/executed standalone).
    Single,
    /// A `Rotate` by a multiple of the slot count: a key-free copy, priced
    /// at zero.
    Copy,
    /// First rotation of a hoisted run of the given length (≥ 2): the
    /// shared Decomp+ModUp is charged here.
    Leader(usize),
    /// Subsequent rotation of a hoisted run: inner product + ModDown
    /// only.
    Follower,
}

/// Role of an instruction in the ladder-folding schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FoldRole {
    /// Not part of a folded ladder.
    Single,
    /// First `Rotate` of the folded ladder at this index of
    /// [`ProgramInfo::ladders`]: the whole fold is charged and executed
    /// here.
    Leader(usize),
    /// Any later instruction of a folded ladder: nothing left to do.
    Member,
}

/// A rotate-and-add ladder the executor runs as one double-hoisted fold
/// (see [`folded_ladders`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ladder {
    /// Index of the first rung's `Rotate`; the ladder is the
    /// `2 · rungs` instructions from there.
    pub start: usize,
    /// Number of `Rotate` + `Add` rungs (≥ 2).
    pub rungs: usize,
    /// The stages the fold runs in ([`ladder_stages`] of the rung steps).
    pub stages: Vec<Vec<i64>>,
}

/// Per-instruction facts the validator derives for the pricer and the
/// executor.
#[derive(Clone, Debug)]
pub struct InstrMeta {
    /// Working limb count: the level the primitive's arithmetic runs at
    /// (the minimum of the ciphertext operands at entry).
    pub ell: usize,
    /// Destination level after the instruction.
    pub out_level: usize,
    /// Destination nominal scale exponent (power of Δ).
    pub out_scale_exp: u32,
    /// Hoisting role of this instruction.
    pub hoist: HoistRole,
    /// Ladder-folding role of this instruction.
    pub fold: FoldRole,
    /// Registers whose value dies here: the sources this instruction reads
    /// for the last time, and its destination if nothing reads it (a dead
    /// store). An output's final value never dies. An executor may free
    /// them once the instruction has run — for a member of a hoisted run
    /// or a folded ladder, once the whole run or ladder has.
    pub dies: Vec<String>,
}

/// Result of [`Program::validate`].
#[derive(Clone, Debug)]
pub struct ProgramInfo {
    /// Keys the program requires.
    pub manifest: KeyManifest,
    /// One entry per instruction.
    pub instrs: Vec<InstrMeta>,
    /// The folded ladders, in program order.
    pub ladders: Vec<Ladder>,
    /// `(level, scale_exp)` of each output, in `outputs` order.
    pub outputs: Vec<(usize, u32)>,
}

/// Static-validation failure: the program would underflow a level chain,
/// mix scales, or reference an undeclared operand.
#[derive(Clone, Debug, PartialEq)]
pub enum ValidateError {
    /// Two declarations share a name, or a name is empty/oversized.
    BadName(String),
    /// A declared input level is outside `1..=levels`.
    BadInputLevel {
        /// Offending input name.
        name: String,
        /// Declared level.
        level: usize,
    },
    /// A matrix declaration is empty, unsorted, or out of range.
    BadMatrix(String),
    /// An instruction reads a register never written.
    UnknownRegister {
        /// Instruction index.
        instr: usize,
        /// Missing register name.
        name: String,
    },
    /// An instruction references an undeclared plaintext operand.
    UnknownPlaintext {
        /// Instruction index.
        instr: usize,
        /// Missing operand name.
        name: String,
    },
    /// An instruction references an undeclared matrix operand.
    UnknownMatrix {
        /// Instruction index.
        instr: usize,
        /// Missing operand name.
        name: String,
    },
    /// An instruction needs more limbs than its operand has.
    LevelUnderflow {
        /// Instruction index.
        instr: usize,
        /// Limbs available.
        have: usize,
        /// Limbs required.
        need: usize,
    },
    /// `Add`/`Sub` operands carry different nominal scale exponents.
    ScaleMismatch {
        /// Instruction index.
        instr: usize,
        /// Left operand's Δ exponent.
        a: u32,
        /// Right operand's Δ exponent.
        b: u32,
    },
    /// Rescaling would drop the nominal scale below Δ.
    ScaleUnderflow {
        /// Instruction index.
        instr: usize,
    },
    /// A scalar constant is NaN or infinite.
    NonFiniteConst {
        /// Instruction index.
        instr: usize,
    },
    /// A `Bootstrap` target level is outside `1..=levels`.
    BadBootstrapTarget {
        /// Instruction index.
        instr: usize,
        /// Requested target level.
        to_level: usize,
    },
    /// The program has no instructions or no outputs.
    Empty,
    /// An output names a register never written.
    UnknownOutput(String),
    /// A structural bound (instruction/declaration count) is exceeded.
    TooLarge(&'static str),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::BadName(n) => write!(f, "bad operand name `{n}`"),
            ValidateError::BadInputLevel { name, level } => {
                write!(f, "input `{name}` declares invalid level {level}")
            }
            ValidateError::BadMatrix(n) => write!(f, "matrix `{n}` has a bad shape"),
            ValidateError::UnknownRegister { instr, name } => {
                write!(f, "instr {instr}: unknown register `{name}`")
            }
            ValidateError::UnknownPlaintext { instr, name } => {
                write!(f, "instr {instr}: unknown plaintext `{name}`")
            }
            ValidateError::UnknownMatrix { instr, name } => {
                write!(f, "instr {instr}: unknown matrix `{name}`")
            }
            ValidateError::LevelUnderflow { instr, have, need } => {
                write!(
                    f,
                    "instr {instr}: level underflow ({have} limbs, need {need})"
                )
            }
            ValidateError::ScaleMismatch { instr, a, b } => {
                write!(f, "instr {instr}: scale mismatch (Δ^{a} vs Δ^{b})")
            }
            ValidateError::ScaleUnderflow { instr } => {
                write!(f, "instr {instr}: rescale would drop below Δ")
            }
            ValidateError::NonFiniteConst { instr } => {
                write!(f, "instr {instr}: non-finite constant")
            }
            ValidateError::BadBootstrapTarget { instr, to_level } => {
                write!(f, "instr {instr}: bad bootstrap target level {to_level}")
            }
            ValidateError::Empty => write!(f, "program has no instructions or no outputs"),
            ValidateError::UnknownOutput(n) => write!(f, "output `{n}` never written"),
            ValidateError::TooLarge(what) => write!(f, "program exceeds the {what} bound"),
        }
    }
}

impl std::error::Error for ValidateError {}

/// Baby-step dimension of the BSGS schedule for `diagonals` non-zero
/// diagonals: the smallest power of two whose square covers the count —
/// the power of two nearest `√r`, biased large, as the paper chooses the
/// larger baby step (more key reads, fewer ciphertext reads). The one
/// rule: the manifest, every price and the executor call it.
pub fn bsgs_baby_dim(diagonals: usize) -> usize {
    let mut n1 = 1usize;
    while n1 * n1 < diagonals {
        n1 <<= 1;
    }
    n1.max(1)
}

/// The baby dimensions a BSGS schedule over `slots` slots runs at:
/// `1..=slots`. [`bsgs_baby_dim`] of at most `slots` diagonals is always
/// one; a served `Bsgs`, which names its own `n1`, is held to this.
pub fn valid_baby_dim(n1: usize, slots: usize) -> bool {
    (1..=slots).contains(&n1)
}

/// Galois steps `apply_bsgs` needs for a diagonal set under baby
/// dimension `n1`: the baby steps `d mod n1` some diagonal lands on plus
/// each distinct giant step `⌊d/n1⌋·n1`, non-zero ones only, sorted — the
/// rotations of the schedule the pricer charges ([`BsgsSchedule`]).
pub fn bsgs_galois_steps(offsets: &[usize], n1: usize) -> Vec<i64> {
    BsgsSchedule::of(offsets, n1).galois_steps()
}

/// The rotation-hoisting schedule on a ring of `slots` slots: maximal runs
/// (start index, length ≥ 2) of consecutive `Rotate` instructions that read
/// the same register with steps that rotate (not a multiple of the slot
/// count), where no rotation before the last overwrites the source. The
/// executor shares one Decomp+ModUp per run (`rotate_hoisted`); the pricer
/// charges the run the same way.
pub fn hoisted_runs(instrs: &[Instr], slots: usize) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut i = 0;
    while i < instrs.len() {
        let (src, dst0) = match &instrs[i] {
            Instr::Rotate { a, steps, dst } if rotates(*steps, slots) => (a.clone(), dst.clone()),
            _ => {
                i += 1;
                continue;
            }
        };
        let mut len = 1;
        let mut source_overwritten = dst0 == src;
        while !source_overwritten {
            match instrs.get(i + len) {
                Some(Instr::Rotate { a, steps, dst }) if *a == src && rotates(*steps, slots) => {
                    source_overwritten = *dst == src;
                    len += 1;
                }
                _ => break,
            }
        }
        if len >= 2 {
            runs.push((i, len));
        }
        i += len;
    }
    runs
}

/// The rung at `at`, as `(acc, t, steps)`: `Rotate{dst: t, a: acc, steps}`
/// with `steps` rotating on `slots` slots and `t ≠ acc`, then
/// `Add{dst: acc, {a, b} = {acc, t}}`.
fn rung_at(instrs: &[Instr], at: usize, slots: usize) -> Option<(&str, &str, i64)> {
    let (
        Instr::Rotate {
            dst: t,
            a: acc,
            steps,
        },
        Instr::Add { dst, a, b },
    ) = (instrs.get(at)?, instrs.get(at + 1)?)
    else {
        return None;
    };
    let adds_the_rotation = (a == acc && b == t) || (a == t && b == acc);
    (rotates(*steps, slots) && t != acc && dst == acc && adds_the_rotation).then_some((
        acc.as_str(),
        t.as_str(),
        *steps,
    ))
}

/// The death table: per instruction, the registers whose value dies there
/// ([`InstrMeta::dies`]) — every name it touches that is not live after
/// it. The one backward liveness pass of [`Program::validate`]; the
/// registers named in `outputs` are live at the end.
fn deaths(instrs: &[Instr], outputs: &[String]) -> Vec<Vec<String>> {
    let mut live: BTreeSet<&str> = outputs.iter().map(String::as_str).collect();
    let mut table = vec![Vec::new(); instrs.len()];
    for (dies, instr) in table.iter_mut().zip(instrs).rev() {
        let (dst, (a, b)) = (instr.dst(), instr.sources());
        for name in [Some(dst), Some(a), b].into_iter().flatten() {
            if !live.contains(name) && !dies.iter().any(|d| d == name) {
                dies.push(name.to_string());
            }
        }
        live.remove(dst);
        live.insert(a);
        live.extend(b);
    }
    table
}

/// The ladder-folding schedule on a ring of `slots` slots: maximal runs
/// `(start index, rungs ≥ 2)` of consecutive rungs `t ← rot(acc, s);
/// acc ← acc + t` (operands in either order, `s` not a multiple of the slot
/// count) with `t ≠ acc`, the same `acc` and `t` throughout, and `t`
/// **dead** after the run — not an output, and not read before it is next
/// written; a folded ladder never materialises `t`. Whether it is dead is
/// the death table's answer (`dies`, one entry per instruction, as
/// [`Program::validate`] derives it): `t` dies at the run's last `Add`. A
/// `Rotate` that belongs to a hoisted run ([`hoisted_runs`]) stays there: a
/// ladder starts at the first rung that does not. The executor runs each
/// ladder as one double-hoisted fold over [`ladder_stages`]; the pricer
/// charges it the same way. Linear in the instruction count.
pub fn folded_ladders(instrs: &[Instr], dies: &[Vec<String>], slots: usize) -> Vec<(usize, usize)> {
    let mut hoisted = vec![false; instrs.len()];
    for (start, len) in hoisted_runs(instrs, slots) {
        hoisted[start..start + len].fill(true);
    }
    let rung_at = |at| rung_at(instrs, at, slots);
    let mut ladders = Vec::new();
    let mut i = 0;
    while i < instrs.len() {
        let Some((acc, t, _)) = rung_at(i).filter(|_| !hoisted[i]) else {
            i += 1;
            continue;
        };
        let mut rungs = 1;
        while rung_at(i + 2 * rungs).is_some_and(|(a, r, _)| (a, r) == (acc, t)) {
            rungs += 1;
        }
        if rungs >= 2 && dies[i + 2 * rungs - 1].iter().any(|d| d == t) {
            ladders.push((i, rungs));
        }
        i += 2 * rungs;
    }
    ladders
}

/// The stages a folded ladder over `rungs` runs in, for a ring of `slots`
/// slots — the one pairing rule: rungs two at a time from the first,
/// `(1 + σ_a)(1 + σ_b) = 1 + σ_a + σ_b + σ_{a+b}` making `[a, b]` the stage
/// `{a, b, a + b}`, an odd last rung a stage of its own. Radix 4 is a
/// constant: radix 8 would need seven keys a stage. The combined step is
/// formed from the rungs' remainders, so it cannot overflow.
pub fn ladder_stages(rungs: &[i64], slots: usize) -> Vec<Vec<i64>> {
    let s = slots.max(1) as i64;
    rungs
        .chunks(2)
        .map(|pair| match *pair {
            [a, b] => vec![a, b, a % s + b % s],
            _ => pair.to_vec(),
        })
        .collect()
}

/// Whether rotating by `step` moves anything on a ring of `slots` slots: a
/// multiple of the slot count is the identity and needs no key.
fn rotates(step: i64, slots: usize) -> bool {
    step.rem_euclid(slots.max(1) as i64) != 0
}

impl Program {
    fn check_name(name: &str) -> Result<(), ValidateError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(ValidateError::BadName(name.to_string()));
        }
        Ok(())
    }

    /// Statically checks the program and derives the per-instruction
    /// levels, scales, hoisting and folding schedules, death table, and key
    /// manifest.
    pub fn validate(&self, env: &ProgramEnv) -> Result<ProgramInfo, ValidateError> {
        if self.instrs.is_empty() || self.outputs.is_empty() {
            return Err(ValidateError::Empty);
        }
        if self.instrs.len() > MAX_INSTRS {
            return Err(ValidateError::TooLarge("instruction-count"));
        }
        if self.ct_inputs.len() > MAX_DECLS
            || self.pt_inputs.len() > MAX_DECLS
            || self.matrices.len() > MAX_DECLS
            || self.outputs.len() > MAX_DECLS
        {
            return Err(ValidateError::TooLarge("declaration-count"));
        }

        // Declarations: unique names per namespace, sane shapes.
        let mut regs: BTreeMap<String, (usize, u32)> = BTreeMap::new();
        for d in &self.ct_inputs {
            Self::check_name(&d.name)?;
            if d.level == 0 || d.level > env.levels {
                return Err(ValidateError::BadInputLevel {
                    name: d.name.clone(),
                    level: d.level,
                });
            }
            if regs.insert(d.name.clone(), (d.level, 1)).is_some() {
                return Err(ValidateError::BadName(d.name.clone()));
            }
        }
        let mut pts = BTreeSet::new();
        for d in &self.pt_inputs {
            Self::check_name(&d.name)?;
            if !pts.insert(d.name.as_str()) {
                return Err(ValidateError::BadName(d.name.clone()));
            }
        }
        let mut mats: BTreeMap<&str, &MatDecl> = BTreeMap::new();
        for d in &self.matrices {
            Self::check_name(&d.name)?;
            let sorted = d.offsets.windows(2).all(|w| w[0] < w[1]);
            if d.offsets.is_empty()
                || !sorted
                || d.slots == 0
                || d.slots > MAX_SLOTS
                || d.slots != env.slots
                || d.offsets.iter().any(|&o| o >= d.slots)
            {
                return Err(ValidateError::BadMatrix(d.name.clone()));
            }
            if mats.insert(&d.name, d).is_some() {
                return Err(ValidateError::BadName(d.name.clone()));
            }
        }

        let mut manifest = KeyManifest::default();
        // Each rotating step with its key's level so far.
        let mut galois: BTreeMap<i64, usize> = BTreeMap::new();
        let read_at = |galois: &mut BTreeMap<i64, usize>, step: i64, ell: usize| {
            let level = galois.entry(step).or_default();
            *level = (*level).max(ell);
        };
        let mut metas = Vec::with_capacity(self.instrs.len());

        let read = |regs: &BTreeMap<String, (usize, u32)>,
                    idx: usize,
                    name: &str|
         -> Result<(usize, u32), ValidateError> {
            regs.get(name)
                .copied()
                .ok_or_else(|| ValidateError::UnknownRegister {
                    instr: idx,
                    name: name.to_string(),
                })
        };

        for (idx, instr) in self.instrs.iter().enumerate() {
            Self::check_name(instr.dst())?;
            let mut hoist = HoistRole::Single;
            let (ell, out_level, out_exp) = match instr {
                Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    let (lb, eb) = read(&regs, idx, b)?;
                    if ea != eb {
                        return Err(ValidateError::ScaleMismatch {
                            instr: idx,
                            a: ea,
                            b: eb,
                        });
                    }
                    let ell = la.min(lb);
                    (ell, ell, ea)
                }
                Instr::PtMult { a, pt, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    if !pts.contains(pt.as_str()) {
                        return Err(ValidateError::UnknownPlaintext {
                            instr: idx,
                            name: pt.clone(),
                        });
                    }
                    (la, la, ea + 1)
                }
                Instr::MulConst { a, value, .. } => {
                    if !value.is_finite() {
                        return Err(ValidateError::NonFiniteConst { instr: idx });
                    }
                    let (la, ea) = read(&regs, idx, a)?;
                    (la, la, ea + 1)
                }
                Instr::AddConst { a, value, .. } => {
                    if !value.is_finite() {
                        return Err(ValidateError::NonFiniteConst { instr: idx });
                    }
                    let (la, ea) = read(&regs, idx, a)?;
                    (la, la, ea)
                }
                Instr::Mult { a, b, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    let (lb, eb) = read(&regs, idx, b)?;
                    let ell = la.min(lb);
                    if ell < 2 {
                        return Err(ValidateError::LevelUnderflow {
                            instr: idx,
                            have: ell,
                            need: 2,
                        });
                    }
                    manifest.relin = true;
                    manifest.relin_level = manifest.relin_level.max(ell);
                    (ell, ell - 1, ea + eb - 1)
                }
                Instr::Rotate { a, steps, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    if rotates(*steps, env.slots) {
                        read_at(&mut galois, *steps, la);
                    } else {
                        hoist = HoistRole::Copy;
                    }
                    (la, la, ea)
                }
                Instr::Rescale { a, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    if la < 2 {
                        return Err(ValidateError::LevelUnderflow {
                            instr: idx,
                            have: la,
                            need: 2,
                        });
                    }
                    if ea < 2 {
                        return Err(ValidateError::ScaleUnderflow { instr: idx });
                    }
                    (la, la - 1, ea - 1)
                }
                Instr::BsgsMatVec { a, mat, .. } => {
                    let (la, ea) = read(&regs, idx, a)?;
                    let decl =
                        *mats
                            .get(mat.as_str())
                            .ok_or_else(|| ValidateError::UnknownMatrix {
                                instr: idx,
                                name: mat.clone(),
                            })?;
                    if la < 2 {
                        return Err(ValidateError::LevelUnderflow {
                            instr: idx,
                            have: la,
                            need: 2,
                        });
                    }
                    let n1 = bsgs_baby_dim(decl.offsets.len());
                    for step in bsgs_galois_steps(&decl.offsets, n1) {
                        read_at(&mut galois, step, la);
                    }
                    (la, la - 1, ea)
                }
                Instr::Bootstrap { a, to_level, .. } => {
                    let (la, _) = read(&regs, idx, a)?;
                    if *to_level == 0 || *to_level > env.levels {
                        return Err(ValidateError::BadBootstrapTarget {
                            instr: idx,
                            to_level: *to_level,
                        });
                    }
                    (la, *to_level, 1)
                }
            };
            regs.insert(instr.dst().to_string(), (out_level, out_exp));
            metas.push(InstrMeta {
                ell,
                out_level,
                out_scale_exp: out_exp,
                hoist,
                fold: FoldRole::Single,
                dies: Vec::new(),
            });
        }

        let dies = deaths(&self.instrs, &self.outputs);
        for (start, len) in hoisted_runs(&self.instrs, env.slots) {
            metas[start].hoist = HoistRole::Leader(len);
            for m in metas.iter_mut().skip(start + 1).take(len - 1) {
                m.hoist = HoistRole::Follower;
            }
        }
        let mut ladders = Vec::new();
        for (start, rungs) in folded_ladders(&self.instrs, &dies, env.slots) {
            let steps: Vec<i64> = (0..rungs)
                .map(|r| {
                    rung_at(&self.instrs, start + 2 * r, env.slots)
                        .expect("a rung")
                        .2
                })
                .collect();
            let stages = ladder_stages(&steps, env.slots);
            let ell = metas[start..start + 2 * rungs].iter().map(|m| m.ell).max();
            for &step in stages.iter().flatten().filter(|&&s| rotates(s, env.slots)) {
                read_at(&mut galois, step, ell.expect("a ladder has rungs"));
            }
            metas[start].fold = FoldRole::Leader(ladders.len());
            for m in &mut metas[start + 1..start + 2 * rungs] {
                m.fold = FoldRole::Member;
            }
            ladders.push(Ladder {
                start,
                rungs,
                stages,
            });
        }
        for (meta, dies) in metas.iter_mut().zip(dies) {
            meta.dies = dies;
        }

        let mut outputs = Vec::with_capacity(self.outputs.len());
        for name in &self.outputs {
            let state = regs
                .get(name)
                .copied()
                .ok_or_else(|| ValidateError::UnknownOutput(name.clone()))?;
            outputs.push(state);
        }

        (manifest.galois_steps, manifest.galois_levels) = galois.into_iter().unzip();
        Ok(ProgramInfo {
            manifest,
            instrs: metas,
            ladders,
            outputs,
        })
    }
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

/// Modeled price of a whole program: the fold of the per-primitive costs
/// over the instruction stream, including the executor's on-the-fly
/// encodes of `PtMult` operands (each one `ell` forward limb NTTs; a
/// `BsgsMatVec`'s diagonals are encoded once per transform, not per run,
/// and are priced as pre-encoded).
#[derive(Clone, Debug, Default)]
pub struct ProgramCost {
    /// Total modeled cost, transforms included.
    pub cost: Cost,
    /// A copy of `cost.ntt_fwd`, kept only because the benchmark harness
    /// (`benchmark/src/probes.rs`) reads this field.
    pub ntt_fwd: u64,
    /// A copy of `cost.ntt_inv`, kept for the same reader.
    pub ntt_inv: u64,
    /// Per-instruction breakdown, one entry per instruction.
    pub per_instr: Vec<Cost>,
}

/// The non-empty digits at `ell` limbs.
fn digit_widths(m: &CostModel, ell: usize) -> impl Iterator<Item = usize> + '_ {
    (0..m.params.beta_at(ell))
        .map(move |j| m.digit_width(ell, j))
        .filter(|&width| width > 0)
}

/// Model of the `Decomp` + `ModUp` phase (everything in a key switch
/// before the inner product).
pub fn modup_cost(m: &CostModel, ell: usize) -> Cost {
    let mut c = m.decomp(ell);
    for width in digit_widths(m, ell) {
        c += m.mod_up_digit(ell, width);
    }
    c
}

impl CostModel {
    /// Prices a validated program by folding the per-primitive costs of
    /// Table 2 over the instruction stream, with the algorithms this
    /// model's [`crate::opts::AlgoOpts`] select: a `Mult` is
    /// [`CostModel::mult`]; under `modup_hoist` a hoisted rotation run
    /// charges the shared Decomp+ModUp once (the leader) and only the inner
    /// product, ModDown pair, and final addition per member; under
    /// `moddown_hoist` a folded ladder is one [`CostModel::rotate_fold`]
    /// charged to its first `Rotate` and a `BsgsMatVec` is the
    /// double-hoisted schedule over pre-encoded diagonals, and otherwise
    /// each rung is priced as written and a `BsgsMatVec` is
    /// [`CostModel::pt_mat_vec_mult`]. At [`crate::opts::AlgoOpts::all`]
    /// this is exactly the schedule the `fhe-program` executor runs.
    pub fn program_cost(&self, program: &Program, info: &ProgramInfo) -> ProgramCost {
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let algo = self.config.algo;
        // One operand encoded on the fly at `ell` limbs.
        let encode = |ell: usize| -> Cost {
            let mut c = self.ntt_limb_ops() * ell as u64;
            c.pt_read += ell as u64 * limb;
            c
        };
        let mats: BTreeMap<&str, &MatDecl> = program
            .matrices
            .iter()
            .map(|d| (d.name.as_str(), d))
            .collect();
        let mut total = ProgramCost::default();
        for (instr, meta) in program.instrs.iter().zip(&info.instrs) {
            let ell = meta.ell;
            let mut cost = Cost::ZERO;
            let fold = if algo.moddown_hoist {
                meta.fold
            } else {
                FoldRole::Single
            };
            if let FoldRole::Leader(ladder) = fold {
                cost += self.rotate_fold(ell, &info.ladders[ladder].stages);
            }
            match instr {
                // A folded ladder is charged whole, above, to its leader.
                _ if fold != FoldRole::Single => {}
                Instr::Add { .. } | Instr::Sub { .. } => cost += self.add(ell),
                Instr::PtMult { .. } => {
                    // On-the-fly encode of the plaintext operand, then the
                    // pointwise product (no rescale).
                    cost += encode(ell) + self.pt_mult_no_rescale(ell);
                }
                Instr::MulConst { .. } => cost += self.pt_mult_no_rescale(ell),
                Instr::AddConst { .. } => {
                    // Scalar add touches c0 only: N·ℓ modular adds.
                    cost += Cost {
                        adds: n * ell as u64,
                        ct_read: ell as u64 * limb,
                        ct_write: ell as u64 * limb,
                        ..Cost::ZERO
                    };
                }
                Instr::Mult { .. } => cost += self.mult(ell),
                Instr::Rotate { .. } => {
                    cost += match meta.hoist {
                        HoistRole::Copy => Cost::ZERO,
                        HoistRole::Leader(_) if algo.modup_hoist => {
                            modup_cost(self, ell) + self.hoisted_member_cost(ell)
                        }
                        HoistRole::Follower if algo.modup_hoist => self.hoisted_member_cost(ell),
                        _ => self.rotate(ell),
                    };
                }
                Instr::Rescale { .. } => cost += self.rescale(ell),
                Instr::BsgsMatVec { mat, .. } => {
                    let offsets = &mats[mat.as_str()].offsets;
                    cost += if algo.moddown_hoist {
                        let schedule = BsgsSchedule::of(offsets, bsgs_baby_dim(offsets.len()));
                        self.matvec_bsgs_double_hoisted(ell, &schedule)
                    } else {
                        let diagonals = offsets.len();
                        self.pt_mat_vec_mult(MatVecShape { ell, diagonals }).cost
                    };
                }
                Instr::Bootstrap { .. } => {
                    // The bootstrap pipeline needs a chain deeper than its
                    // own depth; shallower parameter sets price it at zero
                    // rather than panicking (the functional executor
                    // rejects `Bootstrap` outright either way).
                    let depth = 2 * self.params.fft_iter + 2 + crate::bootstrap::EVAL_MOD_DEPTH;
                    if self.params.limbs > depth {
                        cost += self.bootstrap_from(ell).cost;
                    }
                }
            }
            total.cost += cost;
            total.per_instr.push(cost);
        }
        total.ntt_fwd = total.cost.ntt_fwd;
        total.ntt_inv = total.cost.ntt_inv;
        total
    }

    /// Per-rotation cost inside a hoisted run: the digit automorphism
    /// (fused, compute-free), the KSK inner product, the ModDown pair,
    /// and the final `σ(c0)` addition — everything in `rotate` except the
    /// shared Decomp+ModUp.
    fn hoisted_member_cost(&self, ell: usize) -> Cost {
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let beta = self.params.beta_at(ell);
        let mut c = self.automorph(ell, false);
        c += self.ksk_inner_product(ell, beta, true, true);
        c += self.mod_down(ell, self.params.special_limbs()) * 2;
        c + Cost {
            adds: n * ell as u64,
            ct_read: 2 * ell as u64 * limb,
            ct_write: ell as u64 * limb,
            ..Cost::ZERO
        }
    }

    /// A rotate-and-add ladder run as the library's `rotate_fold` runs it,
    /// stage by stage (`acc ← acc + Σ_{s ∈ stage} rot(acc, s)`), from the
    /// parts priced exactly elsewhere: `c0` lifted once by `PModUp` into a
    /// raised polynomial that lives until the ladder ends; per stage one
    /// Decomp+ModUp of `c1`, per step `σ_s(c0)` permuted in the raised
    /// basis (the permutations summed aside, then added to `c0`), a digit
    /// automorphism and an inner product (one key read) whose `v` side
    /// joins `c0` there, the `u` sides summed and brought down by one
    /// `ModDown` onto `c1`; one `ModDown` of `c0` at the end. A step that
    /// is a multiple of the slot count rotates nothing: it scales the
    /// raised `c0` and adds `c1` once more.
    ///
    /// Each pass streams through DRAM below `BetaLimbs` caching. From
    /// there a stage runs limb-major, as `matvec_fully_hoisted` does: its
    /// digits are read once, each step's inner product and permutation
    /// feed the stage's accumulators on-chip, and the raised `c0` and the
    /// summed `u` cross DRAM once per stage. Caching moves bytes only.
    pub fn rotate_fold(&self, ell: usize, stages: &[Vec<i64>]) -> Cost {
        if stages.is_empty() {
            return Cost::ZERO;
        }
        let k = self.params.special_limbs();
        let (l, w) = (ell as u64, (ell + k) as u64);
        let n = self.params.degree();
        let limb = self.params.limb_bytes();
        let beta = self.params.beta_at(ell);
        let slots = self.params.slots() as usize;
        let limb_major = self.config.caches_at_least(CachingLevel::BetaLimbs);
        // `acc += x` and a permutation into a new polynomial over `limbs`.
        let add = |limbs: u64| Cost {
            adds: n * limbs,
            ct_read: 2 * limbs * limb,
            ct_write: limbs * limb,
            ..Cost::ZERO
        };
        let permute = Cost {
            ct_read: w * limb,
            ct_write: w * limb,
            ..Cost::ZERO
        };
        // PModUp of `c0` into a new raised polynomial.
        let mut c = Cost {
            mults: n * l,
            ct_read: l * limb,
            ct_write: w * limb,
            ..Cost::ZERO
        };
        for stage in stages {
            let keyed = stage.iter().filter(|&&s| rotates(s, slots)).count() as u64;
            let whole = stage.len() as u64 - keyed;
            if keyed > 0 {
                c += modup_cost(self, ell);
                for i in 0..keyed {
                    c += self.automorph(ell, false);
                    c += self.ksk_inner_product(ell, beta, !limb_major || i == 0, !limb_major);
                }
                // Each step's permutation and its `v` side joining `c0`;
                // the summed permutations joining once; every step after
                // the first joining that sum and the sum of the `u` sides.
                let joins = permute * keyed + add(w) * (keyed + 1 + 2 * (keyed - 1));
                c += if limb_major {
                    // The raised `c0` read and written once, the summed
                    // `u` written once.
                    Cost {
                        ct_read: w * limb,
                        ct_write: 2 * w * limb,
                        ..Cost::compute(joins.mults, joins.adds)
                    }
                } else {
                    joins
                };
                c += self.mod_down(ell, k);
            } else {
                // Nothing was raised: `c1` restarts from a zeroed lease.
                c.ct_write += l * limb;
            }
            if whole > 0 {
                c += Cost {
                    mults: n * w,
                    ct_read: w * limb,
                    ct_write: w * limb,
                    ..Cost::ZERO
                };
            }
            c += add(l) * (1 + whole);
        }
        c + self.mod_down(ell, k)
    }
}

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Wire-format magic: `MADP` (program), companion to the ciphertext
/// format's `MADf`.
pub const WIRE_MAGIC: [u8; 4] = *b"MADP";
/// Wire-format version.
pub const WIRE_VERSION: u16 = 1;

/// Structured decode failure. Decoding never panics: every malformed,
/// truncated, or oversized input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Leading magic was not `MADP`.
    BadMagic,
    /// Unknown format version.
    Version(u16),
    /// Unknown instruction opcode.
    Opcode(u8),
    /// A name was empty, oversized, or not UTF-8.
    BadString,
    /// A count or offset exceeded its structural bound.
    Limit(&'static str),
    /// Bytes remained after the complete structure.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated program"),
            WireError::BadMagic => write!(f, "bad program magic"),
            WireError::Version(v) => write!(f, "unsupported program version {v}"),
            WireError::Opcode(op) => write!(f, "unknown program opcode {op:#04x}"),
            WireError::BadString => write!(f, "bad name string"),
            WireError::Limit(what) => write!(f, "{what} bound exceeded"),
            WireError::TrailingBytes => write!(f, "trailing bytes after program"),
        }
    }
}

impl std::error::Error for WireError {}

const OP_ADD: u8 = 1;
const OP_SUB: u8 = 2;
const OP_PT_MULT: u8 = 3;
const OP_MUL_CONST: u8 = 4;
const OP_ADD_CONST: u8 = 5;
const OP_MULT: u8 = 6;
const OP_ROTATE: u8 = 7;
const OP_RESCALE: u8 = 8;
const OP_BSGS: u8 = 9;
const OP_BOOTSTRAP: u8 = 10;

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(!s.is_empty() && s.len() <= MAX_NAME_LEN);
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u8()? as usize;
        if len == 0 || len > MAX_NAME_LEN {
            return Err(WireError::BadString);
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }
}

impl Program {
    /// Serializes the program (`MADP` v1, little-endian, bounded).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.instrs.len() * 16);
        out.extend_from_slice(&WIRE_MAGIC);
        out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        put_str(
            &mut out,
            if self.name.is_empty() {
                "p"
            } else {
                &self.name
            },
        );
        out.extend_from_slice(&(self.ct_inputs.len() as u16).to_le_bytes());
        for d in &self.ct_inputs {
            put_str(&mut out, &d.name);
            out.push(d.level as u8);
        }
        out.extend_from_slice(&(self.pt_inputs.len() as u16).to_le_bytes());
        for d in &self.pt_inputs {
            put_str(&mut out, &d.name);
        }
        out.extend_from_slice(&(self.matrices.len() as u16).to_le_bytes());
        for d in &self.matrices {
            put_str(&mut out, &d.name);
            out.extend_from_slice(&(d.slots as u32).to_le_bytes());
            out.extend_from_slice(&(d.offsets.len() as u16).to_le_bytes());
            for &o in &d.offsets {
                out.extend_from_slice(&(o as u32).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.instrs.len() as u32).to_le_bytes());
        for instr in &self.instrs {
            match instr {
                Instr::Add { dst, a, b } => {
                    out.push(OP_ADD);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    put_str(&mut out, b);
                }
                Instr::Sub { dst, a, b } => {
                    out.push(OP_SUB);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    put_str(&mut out, b);
                }
                Instr::PtMult { dst, a, pt } => {
                    out.push(OP_PT_MULT);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    put_str(&mut out, pt);
                }
                Instr::MulConst { dst, a, value } => {
                    out.push(OP_MUL_CONST);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    out.extend_from_slice(&value.to_bits().to_le_bytes());
                }
                Instr::AddConst { dst, a, value } => {
                    out.push(OP_ADD_CONST);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    out.extend_from_slice(&value.to_bits().to_le_bytes());
                }
                Instr::Mult { dst, a, b } => {
                    out.push(OP_MULT);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    put_str(&mut out, b);
                }
                Instr::Rotate { dst, a, steps } => {
                    out.push(OP_ROTATE);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    out.extend_from_slice(&steps.to_le_bytes());
                }
                Instr::Rescale { dst, a } => {
                    out.push(OP_RESCALE);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                }
                Instr::BsgsMatVec { dst, a, mat } => {
                    out.push(OP_BSGS);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    put_str(&mut out, mat);
                }
                Instr::Bootstrap { dst, a, to_level } => {
                    out.push(OP_BOOTSTRAP);
                    put_str(&mut out, dst);
                    put_str(&mut out, a);
                    out.push(*to_level as u8);
                }
            }
        }
        out.extend_from_slice(&(self.outputs.len() as u16).to_le_bytes());
        for o in &self.outputs {
            put_str(&mut out, o);
        }
        out
    }

    /// Decodes a program, rejecting every malformed input with a
    /// structured [`WireError`]. The decoded program is *structurally*
    /// sound; semantic soundness (levels, scales, operand references) is
    /// [`Program::validate`]'s job.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != WIRE_MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = r.u16()?;
        if version != WIRE_VERSION {
            return Err(WireError::Version(version));
        }
        let name = r.string()?;
        let n_ct = r.u16()? as usize;
        if n_ct > MAX_DECLS {
            return Err(WireError::Limit("ciphertext-input count"));
        }
        let mut ct_inputs = Vec::with_capacity(n_ct);
        for _ in 0..n_ct {
            let name = r.string()?;
            let level = r.u8()? as usize;
            ct_inputs.push(CtDecl { name, level });
        }
        let n_pt = r.u16()? as usize;
        if n_pt > MAX_DECLS {
            return Err(WireError::Limit("plaintext-input count"));
        }
        let mut pt_inputs = Vec::with_capacity(n_pt);
        for _ in 0..n_pt {
            pt_inputs.push(PtDecl { name: r.string()? });
        }
        let n_mat = r.u16()? as usize;
        if n_mat > MAX_DECLS {
            return Err(WireError::Limit("matrix count"));
        }
        let mut matrices = Vec::with_capacity(n_mat);
        for _ in 0..n_mat {
            let name = r.string()?;
            let slots = r.u32()? as usize;
            if slots == 0 || slots > MAX_SLOTS {
                return Err(WireError::Limit("matrix slot"));
            }
            let n_off = r.u16()? as usize;
            if n_off > MAX_SLOTS {
                return Err(WireError::Limit("matrix diagonal count"));
            }
            let mut offsets = Vec::with_capacity(n_off);
            for _ in 0..n_off {
                let o = r.u32()? as usize;
                if o >= MAX_SLOTS {
                    return Err(WireError::Limit("matrix diagonal offset"));
                }
                offsets.push(o);
            }
            matrices.push(MatDecl {
                name,
                slots,
                offsets,
            });
        }
        let n_instr = r.u32()? as usize;
        if n_instr > MAX_INSTRS {
            return Err(WireError::Limit("instruction count"));
        }
        let mut instrs = Vec::with_capacity(n_instr.min(4096));
        for _ in 0..n_instr {
            let op = r.u8()?;
            let dst = r.string()?;
            let a = r.string()?;
            let instr = match op {
                OP_ADD => Instr::Add {
                    dst,
                    a,
                    b: r.string()?,
                },
                OP_SUB => Instr::Sub {
                    dst,
                    a,
                    b: r.string()?,
                },
                OP_PT_MULT => Instr::PtMult {
                    dst,
                    a,
                    pt: r.string()?,
                },
                OP_MUL_CONST => Instr::MulConst {
                    dst,
                    a,
                    value: f64::from_bits(r.u64()?),
                },
                OP_ADD_CONST => Instr::AddConst {
                    dst,
                    a,
                    value: f64::from_bits(r.u64()?),
                },
                OP_MULT => Instr::Mult {
                    dst,
                    a,
                    b: r.string()?,
                },
                OP_ROTATE => Instr::Rotate {
                    dst,
                    a,
                    steps: r.u64()? as i64,
                },
                OP_RESCALE => Instr::Rescale { dst, a },
                OP_BSGS => Instr::BsgsMatVec {
                    dst,
                    a,
                    mat: r.string()?,
                },
                OP_BOOTSTRAP => Instr::Bootstrap {
                    dst,
                    a,
                    to_level: r.u8()? as usize,
                },
                other => return Err(WireError::Opcode(other)),
            };
            instrs.push(instr);
        }
        let n_out = r.u16()? as usize;
        if n_out > MAX_DECLS {
            return Err(WireError::Limit("output count"));
        }
        let mut outputs = Vec::with_capacity(n_out);
        for _ in 0..n_out {
            outputs.push(r.string()?);
        }
        if r.pos != bytes.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(Program {
            name,
            ct_inputs,
            pt_inputs,
            matrices,
            instrs,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::{AlgoOpts, CachingLevel, MadConfig};
    use crate::params::SchemeParams;

    fn env() -> ProgramEnv {
        ProgramEnv {
            levels: 5,
            slots: 32,
        }
    }

    fn small_program() -> Program {
        Program {
            name: "demo".into(),
            ct_inputs: vec![
                CtDecl {
                    name: "x".into(),
                    level: 5,
                },
                CtDecl {
                    name: "y".into(),
                    level: 5,
                },
            ],
            pt_inputs: vec![],
            matrices: vec![MatDecl {
                name: "M".into(),
                slots: 32,
                offsets: vec![0, 1, 5],
            }],
            instrs: vec![
                Instr::Mult {
                    dst: "p".into(),
                    a: "x".into(),
                    b: "y".into(),
                },
                Instr::Rotate {
                    dst: "r1".into(),
                    a: "p".into(),
                    steps: 2,
                },
                Instr::Rotate {
                    dst: "r2".into(),
                    a: "p".into(),
                    steps: 13,
                },
                Instr::Add {
                    dst: "s".into(),
                    a: "r1".into(),
                    b: "r2".into(),
                },
                Instr::BsgsMatVec {
                    dst: "t".into(),
                    a: "s".into(),
                    mat: "M".into(),
                },
                Instr::MulConst {
                    dst: "u".into(),
                    a: "t".into(),
                    value: 0.5,
                },
                Instr::Rescale {
                    dst: "out".into(),
                    a: "u".into(),
                },
            ],
            outputs: vec!["out".into()],
        }
    }

    #[test]
    fn validates_levels_scales_and_manifest() {
        let p = small_program();
        let info = p.validate(&env()).expect("valid program");
        // Mult burns one level; BSGS another; final rescale a third.
        assert_eq!(info.outputs, vec![(2, 1)]);
        assert!(info.manifest.relin);
        // Rotations 2, 13 plus BSGS (3 diagonals → n1 = 2): baby 1,
        // giant 4 (offset 5 → (5/2)·2 = 4).
        assert_eq!(info.manifest.galois_steps, vec![1, 2, 4, 13]);
        // The two consecutive rotations of `p` form one hoisted run.
        assert_eq!(info.instrs[1].hoist, HoistRole::Leader(2));
        assert_eq!(info.instrs[2].hoist, HoistRole::Follower);
        assert_eq!(info.instrs[0].hoist, HoistRole::Single);
    }

    #[test]
    fn a_rotation_by_a_multiple_of_the_slot_count_is_a_free_copy() {
        let p = Program {
            name: "turn".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 5,
            }],
            instrs: vec![
                rot("a", "x", 32),
                rot("b", "x", -64),
                rot("c", "x", 0),
                add("s", "a", "b"),
                add("s", "s", "c"),
            ],
            outputs: names(&["s"]),
            ..Program::default()
        };
        let info = p.validate(&env()).expect("valid");
        assert!(info.manifest.galois_steps.is_empty());
        let roles: Vec<_> = info.instrs.iter().map(|m| m.hoist).collect();
        assert_eq!(roles[..3], [HoistRole::Copy; 3]);
        // Nor is one a rung: a ladder of whole turns folds nothing.
        assert_eq!(ladders_of(&ladder("x", "t", &[32, 64]), &names(&["x"])), []);
        // The price follows the validator's decision, even on a model of
        // another ring (64 slots, where 32 would rotate).
        let params = SchemeParams {
            log_n: 7,
            log_q: 30,
            limbs: 5,
            dnum: 2,
            fft_iter: 1,
        };
        let priced = CostModel::new(params, MadConfig::baseline()).program_cost(&p, &info);
        assert!(priced.per_instr[..3].iter().all(|&c| c == Cost::ZERO));
    }

    #[test]
    fn rejects_level_underflow() {
        let mut p = small_program();
        p.ct_inputs[0].level = 2;
        p.ct_inputs[1].level = 2;
        // Mult drops to 1; BSGS then underflows.
        let err = p.validate(&env()).unwrap_err();
        assert!(matches!(err, ValidateError::LevelUnderflow { .. }), "{err}");
    }

    #[test]
    fn rejects_scale_mismatch() {
        let p = Program {
            name: "bad".into(),
            ct_inputs: vec![
                CtDecl {
                    name: "x".into(),
                    level: 5,
                },
                CtDecl {
                    name: "y".into(),
                    level: 5,
                },
            ],
            instrs: vec![
                Instr::MulConst {
                    dst: "x2".into(),
                    a: "x".into(),
                    value: 2.0,
                },
                // x2 is at Δ², y at Δ¹: adding them is a scale bug.
                Instr::Add {
                    dst: "s".into(),
                    a: "x2".into(),
                    b: "y".into(),
                },
            ],
            outputs: vec!["s".into()],
            ..Program::default()
        };
        let err = p.validate(&env()).unwrap_err();
        assert_eq!(
            err,
            ValidateError::ScaleMismatch {
                instr: 1,
                a: 2,
                b: 1
            }
        );
    }

    #[test]
    fn rejects_rescale_below_delta() {
        let p = Program {
            name: "bad".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 5,
            }],
            instrs: vec![Instr::Rescale {
                dst: "y".into(),
                a: "x".into(),
            }],
            outputs: vec!["y".into()],
            ..Program::default()
        };
        assert_eq!(
            p.validate(&env()).unwrap_err(),
            ValidateError::ScaleUnderflow { instr: 0 }
        );
    }

    #[test]
    fn rejects_unknown_operands() {
        let mut p = small_program();
        p.instrs.push(Instr::Add {
            dst: "z".into(),
            a: "nope".into(),
            b: "out".into(),
        });
        assert!(matches!(
            p.validate(&env()).unwrap_err(),
            ValidateError::UnknownRegister { .. }
        ));
        let mut p = small_program();
        p.outputs = vec!["missing".into()];
        assert!(matches!(
            p.validate(&env()).unwrap_err(),
            ValidateError::UnknownOutput(_)
        ));
    }

    #[test]
    fn hoisted_runs_break_on_source_overwrite() {
        let rot = |dst: &str, a: &str, steps: i64| Instr::Rotate {
            dst: dst.into(),
            a: a.into(),
            steps,
        };
        // Three rotations of x, but the second overwrites x: the run is
        // the first two only.
        let instrs = vec![rot("a", "x", 1), rot("x", "x", 2), rot("b", "x", 4)];
        assert_eq!(hoisted_runs(&instrs, 32), vec![(0, 2)]);
        // Copies — zero steps, whole turns — never join a run.
        for copy in [0, 32, -96] {
            let instrs = vec![rot("a", "x", 1), rot("b", "x", copy), rot("c", "x", 4)];
            assert_eq!(hoisted_runs(&instrs, 32), vec![]);
        }
        // Interleaving a non-rotate breaks the run.
        let instrs = vec![
            rot("a", "x", 1),
            Instr::Add {
                dst: "s".into(),
                a: "a".into(),
                b: "a".into(),
            },
            rot("b", "x", 4),
        ];
        assert_eq!(hoisted_runs(&instrs, 32), vec![]);
    }

    fn rot(dst: &str, a: &str, steps: i64) -> Instr {
        Instr::Rotate {
            dst: dst.into(),
            a: a.into(),
            steps,
        }
    }

    fn add(dst: &str, a: &str, b: &str) -> Instr {
        Instr::Add {
            dst: dst.into(),
            a: a.into(),
            b: b.into(),
        }
    }

    /// The rungs `t ← rot(acc, s); acc ← acc + t` for each step.
    fn ladder(acc: &str, t: &str, steps: &[i64]) -> Vec<Instr> {
        steps
            .iter()
            .flat_map(|&s| [rot(t, acc, s), add(acc, acc, t)])
            .collect()
    }

    fn names(names: &[&str]) -> Vec<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    /// The ladders of `instrs` under the death table `outputs` leaves it.
    fn ladders_of(instrs: &[Instr], outputs: &[String]) -> Vec<(usize, usize)> {
        folded_ladders(instrs, &deaths(instrs, outputs), env().slots)
    }

    /// `program`'s death table as validated, one name list per instruction.
    fn death_table(program: &Program) -> Vec<Vec<String>> {
        let info = program.validate(&env()).expect("valid program");
        info.instrs.into_iter().map(|m| m.dies).collect()
    }

    #[test]
    fn the_death_table_frees_each_value_after_its_last_read() {
        // `d` is never read: a dead store dies where it is written. `x`
        // dies at its last read; `s` is an output and never dies, though
        // it is read along the way; `y` is read by the instruction that
        // overwrites it, which frees the old value by itself.
        let p = Program {
            name: "deaths".into(),
            ct_inputs: vec![
                CtDecl {
                    name: "x".into(),
                    level: 5,
                },
                CtDecl {
                    name: "y".into(),
                    level: 5,
                },
            ],
            instrs: vec![
                add("s", "x", "y"),
                add("d", "s", "s"),
                add("y", "y", "x"),
                add("s", "s", "y"),
            ],
            outputs: names(&["s"]),
            ..Program::default()
        };
        let dies = death_table(&p);
        assert_eq!(
            dies,
            [names(&[]), names(&["d"]), names(&["x"]), names(&["y"])]
        );
        // Only an output's final value is kept: an earlier one dies at its
        // last read like any other, and `y`, now never read, is a dead store.
        let mut twice = p.clone();
        twice.instrs[3] = add("s", "x", "x");
        assert_eq!(
            death_table(&twice),
            [names(&[]), names(&["d", "s"]), names(&["y"]), names(&["x"])]
        );
        // An output that is an input, never written, never dies.
        let mut input_out = p.clone();
        input_out.outputs.push("x".into());
        assert!(death_table(&input_out).iter().flatten().all(|d| d != "x"));
    }

    #[test]
    fn a_hoisted_runs_source_dies_at_its_last_member() {
        let p = Program {
            name: "hoist".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 5,
            }],
            instrs: vec![
                Instr::MulConst {
                    dst: "p".into(),
                    a: "x".into(),
                    value: 1.0,
                },
                rot("r1", "p", 1),
                rot("r2", "p", 2),
                rot("r3", "p", 3),
                add("s", "r1", "r2"),
                add("s", "s", "r3"),
            ],
            outputs: names(&["s"]),
            ..Program::default()
        };
        let info = p.validate(&env()).expect("valid");
        assert_eq!(info.instrs[1].hoist, HoistRole::Leader(3));
        assert_eq!(
            death_table(&p),
            [
                names(&["x"]),
                names(&[]),
                names(&[]),
                names(&["p"]),
                names(&["r1", "r2"]),
                names(&["r3"]),
            ]
        );
    }

    #[test]
    fn a_folded_ladders_temporary_dies_at_every_add() {
        let mut instrs = ladder("x", "t", &[1, 2, 4]);
        instrs.push(Instr::MulConst {
            dst: "y".into(),
            a: "x".into(),
            value: 0.5,
        });
        let p = Program {
            name: "fold".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 5,
            }],
            instrs,
            outputs: names(&["y"]),
            ..Program::default()
        };
        let info = p.validate(&env()).expect("valid");
        assert_eq!(info.ladders.len(), 1);
        let dies = death_table(&p);
        let rung = [names(&[]), names(&["t"])];
        assert_eq!(dies[..6], [rung.clone(), rung.clone(), rung].concat());
        // The running sum is live until the instruction after the ladder.
        assert_eq!(dies[6], names(&["x"]));
    }

    #[test]
    fn ladders_are_maximal_runs_of_rungs_on_one_pair_of_registers() {
        let out = names(&["x"]);
        // Doubling, non-doubling and negative steps alike; one rung is none.
        assert_eq!(ladders_of(&ladder("x", "t", &[1, 2, 4, 8]), &out), [(0, 4)]);
        assert_eq!(ladders_of(&ladder("x", "t", &[5, -3, 7]), &out), [(0, 3)]);
        assert_eq!(ladders_of(&ladder("x", "t", &[1]), &out), []);
        // The `Add` may name its operands in either order.
        let mut swapped = ladder("x", "t", &[1, 2]);
        swapped[1] = add("x", "t", "x");
        assert_eq!(ladders_of(&swapped, &out), [(0, 2)]);
        // `t = acc`, a copy (step 0), a `Sub`, a sum written elsewhere: no rung.
        assert_eq!(ladders_of(&ladder("x", "x", &[1, 2]), &out), []);
        assert_eq!(ladders_of(&ladder("x", "t", &[1, 0, 2]), &out), []);
        let mut other = ladder("x", "t", &[1, 2]);
        other[3] = Instr::Sub {
            dst: "x".into(),
            a: "x".into(),
            b: "t".into(),
        };
        assert_eq!(ladders_of(&other, &out), []);
        let mut elsewhere = ladder("x", "t", &[1, 2]);
        elsewhere[1] = add("y", "x", "t");
        assert_eq!(ladders_of(&elsewhere, &names(&["y"])), []);
        // An instruction that writes `acc` between two rungs ends the run
        // there; what is left on either side folds if it is long enough.
        let mut cut = ladder("x", "t", &[1, 2, 4, 8, 16]);
        cut.insert(
            4,
            Instr::AddConst {
                dst: "x".into(),
                a: "x".into(),
                value: 0.0,
            },
        );
        assert_eq!(ladders_of(&cut, &out), [(0, 2), (5, 3)]);
        // Two ladders back to back, on different registers or through
        // different temporaries, are two ladders.
        let mut two = ladder("x", "t", &[1, 2]);
        two.extend(ladder("y", "t", &[4, 8, 16]));
        two.extend(ladder("y", "u", &[1, 2]));
        assert_eq!(
            ladders_of(&two, &names(&["x", "y"])),
            [(0, 2), (4, 3), (10, 2)]
        );
    }

    #[test]
    fn a_ladder_folds_only_if_its_temporary_is_dead_afterwards() {
        let rungs = ladder("x", "t", &[1, 2]);
        // Read afterwards, or an output: the rungs run as written.
        let mut read = rungs.clone();
        read.push(add("y", "x", "t"));
        assert_eq!(ladders_of(&read, &names(&["y"])), []);
        assert_eq!(ladders_of(&rungs, &names(&["x", "t"])), []);
        // Written again before it is next read: dead.
        let mut rewritten = rungs.clone();
        rewritten.push(rot("t", "x", 0));
        rewritten.push(add("y", "x", "t"));
        assert_eq!(ladders_of(&rewritten, &names(&["y", "t"])), [(0, 2)]);
        // A later ladder through the same temporary overwrites it first.
        let mut again = rungs.clone();
        again.push(rot("z", "x", 0));
        again.extend(ladder("x", "t", &[4, 8]));
        assert_eq!(ladders_of(&again, &names(&["x"])), [(0, 2), (5, 2)]);
        // Only the last of two is read afterwards.
        again.push(add("y", "z", "t"));
        assert_eq!(ladders_of(&again, &names(&["y"])), [(0, 2)]);
    }

    #[test]
    fn a_rotation_in_a_hoisted_run_stays_there() {
        // `r ← rot(x, 3)` and the first rung's rotation read the same
        // unmodified register back to back: they share a ModUp, and the
        // ladder starts at the second rung.
        let mut instrs = vec![rot("r", "x", 3)];
        instrs.extend(ladder("x", "t", &[1, 2, 4]));
        instrs.push(add("x", "x", "r"));
        assert_eq!(hoisted_runs(&instrs, 32), [(0, 2)]);
        assert_eq!(ladders_of(&instrs, &names(&["x"])), [(3, 2)]);
        instrs.truncate(5);
        assert_eq!(ladders_of(&instrs, &names(&["x", "r"])), []);
    }

    /// Each manifest key's level is the largest `ell` among the
    /// instructions that read it — a folded ladder's stage steps, its
    /// combined step among them, at the ladder's — and a copy reads none.
    #[test]
    fn the_manifest_levels_each_key_at_the_highest_read() {
        let slots = 16;
        let p = Program {
            name: "levels".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 3,
            }],
            instrs: [
                vec![
                    Instr::Mult {
                        dst: "m".into(),
                        a: "x".into(),
                        b: "x".into(),
                    },
                    rot("a", "x", 1),
                    rot("b", "m", 1),
                    rot("c", "m", 2),
                    rot("d", "m", slots),
                ],
                // A ladder on `m` (level 2): one stage {4, 8, 12}.
                ladder("m", "t", &[4, 8]),
            ]
            .concat(),
            outputs: names(&["m", "a", "b", "c", "d"]),
            ..Program::default()
        };
        let env = ProgramEnv {
            levels: 3,
            slots: slots as usize,
        };
        let manifest = p.validate(&env).unwrap().manifest;
        assert!(manifest.relin);
        assert_eq!(manifest.relin_level, 3);
        assert_eq!(manifest.galois_steps, [1, 2, 4, 8, 12]);
        // Step 1 is read at level 3 (of `x`) and at 2: its key is at 3.
        assert_eq!(manifest.galois_levels, [3, 2, 2, 2, 2]);
        // BSGS reads its baby and giant steps at its operand's level.
        let manifest = small_program().validate(&self::env()).unwrap().manifest;
        assert_eq!(manifest.galois_steps, [1, 2, 4, 13]);
        assert_eq!(manifest.relin_level, 5);
        assert_eq!(manifest.galois_levels, [4, 4, 4, 4]);
    }

    #[test]
    fn validate_pairs_the_rungs_and_lists_the_combined_steps() {
        let ladder_program = |steps: &[i64]| Program {
            name: "fold".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 4,
            }],
            instrs: ladder("x", "t", steps),
            outputs: names(&["x"]),
            ..Program::default()
        };
        let info = ladder_program(&[1, 2, 4, 8, 16]).validate(&env()).unwrap();
        assert_eq!(info.manifest.galois_steps, vec![1, 2, 3, 4, 8, 12, 16]);
        assert_eq!(
            info.ladders,
            vec![Ladder {
                start: 0,
                rungs: 5,
                stages: vec![vec![1, 2, 3], vec![4, 8, 12], vec![16]],
            }]
        );
        assert_eq!(info.instrs[0].fold, FoldRole::Leader(0));
        assert!(info.instrs[1..].iter().all(|m| m.fold == FoldRole::Member));
        assert!(info.instrs.iter().all(|m| m.hoist == HoistRole::Single));
        // Negative steps pair like any other; a combined step that is a
        // multiple of the slot count rotates nothing and needs no key.
        let info = ladder_program(&[-1, -2, 5, 27]).validate(&env()).unwrap();
        assert_eq!(
            info.ladders[0].stages,
            vec![vec![-1, -2, -3], vec![5, 27, 32]]
        );
        assert_eq!(info.manifest.galois_steps, vec![-3, -2, -1, 5, 27]);
        // Steps at the edge of the wire format's range pair without overflow
        // (`i64::MIN` itself is a whole number of turns: a copy, no rung).
        let info = ladder_program(&[i64::MAX, i64::MAX, i64::MIN + 1, -1])
            .validate(&env())
            .unwrap();
        assert_eq!(info.ladders[0].stages[0][2], 2 * (i64::MAX % 32));
        assert_eq!(info.ladders[0].stages[1][2], -32);
        let info = ladder_program(&[i64::MAX, i64::MAX, i64::MIN, -1])
            .validate(&env())
            .unwrap();
        assert_eq!(info.ladders[0].rungs, 2);
        // An unfolded ladder adds nothing to the manifest.
        let mut kept = ladder_program(&[1, 2]);
        kept.outputs.push("t".into());
        let info = kept.validate(&env()).unwrap();
        assert!(info.ladders.is_empty());
        assert_eq!(info.manifest.galois_steps, vec![1, 2]);
        assert!(info.instrs.iter().all(|m| m.fold == FoldRole::Single));
    }

    #[test]
    fn a_folded_ladder_is_priced_as_it_runs() {
        // The `lib_programs` ring's digit geometry: L = 8, dnum = 3.
        let params = SchemeParams {
            log_n: 14,
            log_q: 40,
            limbs: 8,
            dnum: 3,
            fft_iter: 1,
        };
        let library = MadConfig {
            caching: CachingLevel::Baseline,
            algo: AlgoOpts::all(),
        };
        let m = CostModel::new(params, library);
        let rungs: Vec<i64> = (0..13).map(|i| 1i64 << i).collect();
        let stages = ladder_stages(&rungs, 1 << 13);
        assert_eq!(stages.len(), 7);
        // Seven stages: 7·(ModUp + ModDown) + ModDown, where thirteen lone
        // rotations make 13·(ModUp + 2 ModDown).
        let transforms = |c: Cost| c.ntt_fwd + c.ntt_inv;
        for (ell, fold, lone) in [(7, 7 * (30 + 10) + 10, 50), (3, 7 * (6 + 6) + 6, 18)] {
            assert_eq!(transforms(m.rotate_fold(ell, &stages)), fold, "ℓ = {ell}");
            assert_eq!(transforms(m.keyswitch(ell)), lone, "ℓ = {ell}");
        }
        // Three key reads per paired stage, one for the odd rung: 19 where
        // the rungs read 13 — and far fewer operations.
        let key = m.ksk_inner_product(7, 3, true, true).key_read;
        let fold = m.rotate_fold(7, &stages);
        assert_eq!(fold.key_read, 19 * key);
        let rung = m.rotate(7) + m.add(7);
        assert_eq!(rung.key_read, key);
        assert!(fold.ops() < rung.ops() * 13 * 2 / 3);
        // A stage that rotates nothing raises nothing.
        let whole = vec![vec![1 << 13]];
        let whole_fold = m.rotate_fold(7, &whole);
        let down = m.mod_down(7, 3);
        assert_eq!(
            (whole_fold.ntt_fwd, whole_fold.ntt_inv),
            (down.ntt_fwd, down.ntt_inv)
        );
        assert_eq!(whole_fold.key_read, 0);
        // In a program the whole fold is charged to the ladder's first
        // `Rotate`, and the total is the rows' sum.
        let p = Program {
            name: "fold".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 7,
            }],
            instrs: ladder("x", "t", &rungs),
            outputs: names(&["x"]),
            ..Program::default()
        };
        let info = p
            .validate(&ProgramEnv {
                levels: 8,
                slots: 1 << 13,
            })
            .unwrap();
        let combined = [3, 12, 48, 192, 768, 3072];
        assert!(combined
            .iter()
            .all(|s| info.manifest.galois_steps.contains(s)));
        assert_eq!(info.manifest.galois_steps.len(), 13 + 6);
        let priced = m.program_cost(&p, &info);
        assert_eq!(transforms(priced.cost), 290);
        assert_eq!(priced.per_instr[0], fold);
        assert!(priced.per_instr[1..].iter().all(|&r| r == Cost::ZERO));
        assert_eq!(priced.cost, fold);
    }

    #[test]
    fn a_fold_runs_limb_major_from_beta_limb_caching() {
        // The `lib_programs` ring's digit geometry, the thirteen-rung fold
        // plus a stage that rotates nothing and one that is partly a copy.
        let params = SchemeParams {
            log_n: 14,
            log_q: 40,
            limbs: 8,
            dnum: 3,
            fft_iter: 1,
        };
        let rungs: Vec<i64> = (0..13).map(|i| 1i64 << i).collect();
        let mut stages = ladder_stages(&rungs, 1 << 13);
        stages.push(vec![1 << 13]);
        stages.push(vec![5, 1 << 13, 5 + (1 << 13)]);
        let fold = |caching| {
            let algo = AlgoOpts::all();
            CostModel::new(params, MadConfig { caching, algo }).rotate_fold(7, &stages)
        };
        let one_limb = fold(CachingLevel::OneLimb);
        for caching in CachingLevel::ALL {
            let c = fold(caching);
            // Caching moves bytes, never operations or key reads.
            assert_eq!(c.ops(), one_limb.ops(), "{caching}");
            assert_eq!((c.ntt_fwd, c.ntt_inv), (one_limb.ntt_fwd, one_limb.ntt_inv));
            assert_eq!(c.key_read, one_limb.key_read, "{caching}");
            if caching >= CachingLevel::BetaLimbs {
                assert!(c.ct_read < one_limb.ct_read, "{caching}");
                assert!(c.ct_write < one_limb.ct_write, "{caching}");
            }
        }
        // Below `BetaLimbs` every pass streams, as it always has: the bytes
        // the stream-everything pricing gave.
        let bytes = |c: Cost| (c.ct_read, c.ct_write, c.key_read, c.pt_read);
        assert_eq!(
            bytes(fold(CachingLevel::Baseline)),
            (394_526_720, 299_368_448, 82_575_360, 0)
        );
        assert_eq!(bytes(one_limb), (340_393_984, 245_235_712, 82_575_360, 0));
    }

    #[test]
    fn bsgs_step_derivation_matches_schedule() {
        // 8 diagonals 0..8 → n1 = 4 (the nearest power of two with
        // n1² ≥ 8 biased large): babies 1..4, giants {4} (offsets 4..8).
        let offsets: Vec<usize> = (0..8).collect();
        let n1 = bsgs_baby_dim(8);
        assert_eq!(n1, 4);
        assert_eq!(bsgs_galois_steps(&offsets, n1), vec![1, 2, 3, 4]);
        // Only the baby steps a diagonal lands on: {0, 5} at n1 = 4 is
        // baby 1 and giant 4 — steps 2 and 3 rotate nothing.
        assert_eq!(bsgs_galois_steps(&[0, 5], 4), vec![1, 4]);
        assert_eq!(bsgs_galois_steps(&[5, 0], 4), vec![1, 4]);
        assert_eq!(bsgs_galois_steps(&[0], 4), Vec::<i64>::new());
    }

    #[test]
    fn wire_round_trip() {
        let p = small_program();
        let bytes = p.to_bytes();
        let back = Program::from_bytes(&bytes).expect("round-trips");
        assert_eq!(p, back);
    }

    #[test]
    fn wire_rejects_malformed_inputs() {
        let bytes = small_program().to_bytes();
        // Truncation at every prefix is a structured error, never a panic.
        for cut in 0..bytes.len() {
            let err = Program::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::Truncated | WireError::BadString | WireError::BadMagic
                ),
                "cut {cut}: {err:?}"
            );
        }
        // Garbage tail.
        let mut tail = bytes.clone();
        tail.extend_from_slice(b"junk");
        assert_eq!(
            Program::from_bytes(&tail).unwrap_err(),
            WireError::TrailingBytes
        );
        // Bad magic / version / opcode.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(Program::from_bytes(&bad).unwrap_err(), WireError::BadMagic);
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            Program::from_bytes(&bad).unwrap_err(),
            WireError::Version(9)
        );
        assert!(Program::from_bytes(&[]).is_err());
    }

    #[test]
    fn pricing_folds_per_primitive_costs() {
        let p = small_program();
        let info = p.validate(&env()).expect("valid");
        let params = SchemeParams {
            log_n: 6,
            log_q: 30,
            limbs: 5,
            dnum: 2,
            fft_iter: 1,
        };
        let at = |algo| {
            let caching = CachingLevel::OneLimb;
            CostModel::new(params, MadConfig { caching, algo })
        };
        let m = at(AlgoOpts::all());
        let priced = m.program_cost(&p, &info);
        assert_eq!(priced.per_instr.len(), p.instrs.len());
        // The fold equals the sum of the per-instruction rows.
        let sum: Cost = priced.per_instr.iter().copied().sum();
        assert_eq!(sum, priced.cost);
        assert_eq!((priced.ntt_fwd, priced.ntt_inv), (sum.ntt_fwd, sum.ntt_inv));
        // A hoisted pair prices strictly below two standalone rotates, and
        // at them without ModUp hoisting.
        let two_rotates = m.rotate(4) * 2;
        let pair: Cost = priced.per_instr[1..3].iter().copied().sum();
        assert!(pair.ops() < two_rotates.ops(), "hoisting must save compute");
        let unhoisted = at(AlgoOpts {
            key_compression: true,
            ..AlgoOpts::none()
        })
        .program_cost(&p, &info);
        assert_eq!(unhoisted.per_instr[1..3], [m.rotate(4); 2]);
        // The price is what the configuration's algorithms say. At the
        // library's schedule a `Mult` is the merged sequence and a
        // `BsgsMatVec` the double-hoisted one; at the paper's baseline,
        // the standard sequence and the ModUp-hoisted BSGS.
        let schedule = BsgsSchedule::of(&[0, 1, 5], bsgs_baby_dim(3));
        assert_eq!(priced.per_instr[0], m.mult_merged(5));
        assert_eq!(
            priced.per_instr[4],
            m.matvec_bsgs_double_hoisted(4, &schedule)
        );
        let base = CostModel::new(params, MadConfig::baseline());
        let plain = base.program_cost(&p, &info);
        assert_eq!(plain.per_instr[0], base.mult_standard(5));
        let shape = MatVecShape {
            ell: 4,
            diagonals: 3,
        };
        assert_eq!(plain.per_instr[4], base.pt_mat_vec_mult(shape).cost);
        // A folded ladder is one fold under ModDown hoisting, and its rungs
        // as written otherwise.
        let lp = Program {
            name: "fold".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 5,
            }],
            instrs: ladder("x", "t", &[1, 2]),
            outputs: names(&["x"]),
            ..Program::default()
        };
        let linfo = lp.validate(&env()).expect("valid");
        let stages = &linfo.ladders[0].stages;
        assert_eq!(m.program_cost(&lp, &linfo).cost, m.rotate_fold(5, stages));
        let rungs = base.program_cost(&lp, &linfo);
        assert_eq!(rungs.per_instr, [base.rotate(5), base.add(5)].repeat(2));
        assert_eq!(rungs.cost, (base.rotate(5) + base.add(5)) * 2);
        // Bootstrap prices through the model's pipeline on a chain deep
        // enough to cover it (and at zero on shallow chains, without
        // panicking).
        let pb = Program {
            name: "boot".into(),
            ct_inputs: vec![CtDecl {
                name: "x".into(),
                level: 2,
            }],
            instrs: vec![Instr::Bootstrap {
                dst: "fresh".into(),
                a: "x".into(),
                to_level: 12,
            }],
            outputs: vec!["fresh".into()],
            ..Program::default()
        };
        let deep_env = ProgramEnv {
            levels: 24,
            slots: 32,
        };
        let info_b = pb.validate(&deep_env).expect("valid");
        assert_eq!(info_b.outputs, vec![(12, 1)]);
        let deep = CostModel::new(
            SchemeParams {
                limbs: 24,
                ..params
            },
            base.config,
        );
        let boot = deep.program_cost(&pb, &info_b).cost;
        assert!(boot.ops() > 0);
        // Its transforms are the ones its priced ops contain.
        assert_eq!(boot, deep.bootstrap_from(2).cost);
        assert_eq!((boot.ntt_fwd, boot.ntt_inv), (6937, 3031));
        assert_eq!(m.program_cost(&pb, &info_b).cost, Cost::ZERO);
    }
}
