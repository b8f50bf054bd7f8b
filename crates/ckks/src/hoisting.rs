//! Hoisted rotations and plaintext matrix–vector products (`PtMatVecMult`).
//!
//! `PtMatVecMult` — `⟦y⟧ ← Σ_i PtMult(Rotate(⟦m⟧, i), x_i)` — dominates the
//! CoeffToSlot/SlotToCoeff phases of bootstrapping. This module implements
//! the paper's Figure 5 ladder:
//!
//! - [`apply_naive`]: each rotation runs a full `KeySwitch` (β `ModUp`s and
//!   2 `ModDown`s per rotation — Figure 5a).
//! - [`rotate_hoisted`]: **ModUp hoisting** (Halevi–Shoup): decompose and
//!   raise the ciphertext once, permute the raised digits per rotation.
//! - [`apply_hoisted`]: ModUp hoisting **plus ModDown hoisting** (the
//!   paper's contribution): plaintext multiplications and additions happen
//!   in the raised basis `R_{PQ}`, so the entire product needs exactly one
//!   `ModUp` and two `ModDown`s regardless of the number of rotations
//!   (Figure 5c).
//! - [`apply_bsgs`]: the baby-step/giant-step decomposition used at scale,
//!   with both hoistings applied to the baby steps of every giant group
//!   and the last `ModDown` merged with the rescale.
//!
//! The same two hoistings apply to the other sum of rotations the paper's
//! workloads are built on, the log-step slot fold: [`rotate_fold`] runs a
//! rotate-and-add ladder two rungs to a `ModUp`, with `c0` raised until the
//! ladder ends.
//!
//! A [`LinearTransform`] encodes its diagonals once per level and baby
//! dimension it is applied at and keeps them, so a transform applied
//! repeatedly (a database scored against every query, a bootstrap's DFT
//! stages) pays the encoding FFT and limb NTTs on first use only.

use crate::context::CkksContext;
use crate::encoding::Encoder;
use crate::keys::{GaloisKeys, SwitchingKey};
use crate::keyswitch::{
    automorph_digits_with, complete, complete_merged, decompose_and_raise, inner_product, pair_sum,
    RaisedKeySwitch,
};
use crate::ops::Evaluator;
use crate::plaintext::Ciphertext;
use fhe_math::automorph::Automorphism;
use fhe_math::cfft::Complex;
use fhe_math::poly::{mod_down_with, pmod_up_add_assign, pmod_up_with, Representation, RnsPoly};
use fhe_math::rns::RnsBasis;
use fhe_math::telemetry;
use fhe_math::ScratchPool;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::{Arc, Mutex};

/// A transform's diagonals as plaintext polynomials over one raised basis
/// `Q_ℓ ∪ P` (whose `Q_ℓ` prefix is the base-basis encoding, bit for bit),
/// each pre-rotated for the giant step baby dimension `n1` puts it in.
struct EncodedDiagonals {
    basis: Arc<RnsBasis>,
    n1: usize,
    /// One polynomial per diagonal, in offset order.
    polys: Vec<RnsPoly>,
}

/// A linear map on slot vectors, stored as its nonzero generalized
/// diagonals: `y_j = Σ_d diag_d[j] · v_{(j+d) mod n}`.
pub struct LinearTransform {
    diagonals: BTreeMap<usize, Vec<Complex>>,
    slots: usize,
    /// One encoding per (context, level, baby dimension) the transform has
    /// been applied at, reused by every later application there.
    encoded: Mutex<Vec<Arc<EncodedDiagonals>>>,
}

impl Clone for LinearTransform {
    /// The clone starts with nothing encoded.
    fn clone(&self) -> Self {
        Self::from_diagonals(self.diagonals.clone(), self.slots)
    }
}

impl fmt::Debug for LinearTransform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinearTransform")
            .field("slots", &self.slots)
            .field("diagonals", &self.diagonals.len())
            .finish()
    }
}

impl LinearTransform {
    /// Builds the transform from a dense `n × n` matrix, keeping only
    /// nonzero diagonals.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square of slot-count size.
    pub fn from_matrix(matrix: &[Vec<Complex>]) -> Self {
        let n = matrix.len();
        assert!(n.is_power_of_two(), "matrix size must be a power of two");
        for row in matrix {
            assert_eq!(row.len(), n, "matrix must be square");
        }
        let mut diagonals = BTreeMap::new();
        for d in 0..n {
            let diag: Vec<Complex> = (0..n).map(|j| matrix[j][(j + d) % n]).collect();
            if diag.iter().any(|c| c.abs() > 1e-12) {
                diagonals.insert(d, diag);
            }
        }
        Self::from_diagonals(diagonals, n)
    }

    /// Builds directly from a diagonal map.
    ///
    /// # Panics
    ///
    /// Panics if any diagonal has the wrong length or index.
    pub fn from_diagonals(diagonals: BTreeMap<usize, Vec<Complex>>, slots: usize) -> Self {
        for (&d, diag) in &diagonals {
            assert!(d < slots, "diagonal index {d} out of range");
            assert_eq!(diag.len(), slots, "diagonal {d} has wrong length");
        }
        Self {
            diagonals,
            slots,
            encoded: Mutex::new(Vec::new()),
        }
    }

    /// Number of nonzero diagonals (the paper's rotation count `r`).
    pub fn diagonal_count(&self) -> usize {
        self.diagonals.len()
    }

    /// The rotation offsets with nonzero diagonals.
    pub fn offsets(&self) -> Vec<usize> {
        self.diagonals.keys().copied().collect()
    }

    /// The stored diagonal at offset `d`, if nonzero — lets a wire
    /// protocol re-serialize the transform without densifying it.
    pub fn diagonal(&self, d: usize) -> Option<&[Complex]> {
        self.diagonals.get(&d).map(|v| v.as_slice())
    }

    /// Slot dimension.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Reference (plaintext) application of the transform.
    pub fn apply_plain(&self, v: &[Complex]) -> Vec<Complex> {
        let n = self.slots;
        let mut out = vec![Complex::default(); n];
        for (&d, diag) in &self.diagonals {
            for j in 0..n {
                out[j] = out[j] + diag[j] * v[(j + d) % n];
            }
        }
        out
    }

    /// The diagonals encoded over `ctx`'s raised basis at `ell` limbs,
    /// diagonal `d` rotated right by its giant step `⌊d/n1⌋·n1` so the
    /// giant rotation aligns it: the encoding kept for this basis and `n1`
    /// if there is one, otherwise encoded now (one FFT and `ℓ + k` limb
    /// NTTs per diagonal) and kept beside the others for the transform's
    /// life.
    fn encoded(
        &self,
        ctx: &CkksContext,
        encoder: &Encoder,
        ell: usize,
        n1: usize,
    ) -> Arc<EncodedDiagonals> {
        let basis = ctx.raised_basis(ell);
        // Encoding runs outside the lock; the lock only ever covers a
        // scan and a push, so it cannot be poisoned.
        let held = || self.encoded.lock().expect("no panic under this lock");
        let found = held()
            .iter()
            .find(|e| Arc::ptr_eq(&e.basis, basis) && e.n1 == n1)
            .cloned();
        if let Some(found) = found {
            return found;
        }
        let scale = ctx.params().scale();
        let polys = self
            .diagonals
            .iter()
            .map(|(&d, diag)| {
                let mut pre = diag.clone();
                pre.rotate_right(d / n1 * n1);
                let pt = encoder.encode_raised(&pre, ell, scale);
                pt.expect("diagonal encodes").poly
            })
            .collect();
        let fresh = Arc::new(EncodedDiagonals {
            basis: basis.clone(),
            n1,
            polys,
        });
        held().push(fresh.clone());
        fresh
    }
}

/// `PtMatVecMult`, naive schedule (Figure 5a): one full `Rotate` (with its
/// own `ModUp`s and `ModDown`s) per nonzero diagonal, every diagonal
/// encoded on the way. The bottom rung of the ladder the hoisted schedules
/// are tested against.
///
/// # Panics
///
/// Panics if a required Galois key is missing.
pub fn apply_naive(
    evaluator: &Evaluator,
    encoder: &Encoder,
    ct: &Ciphertext,
    lt: &LinearTransform,
    gk: &GaloisKeys,
) -> Ciphertext {
    let ell = ct.limb_count();
    let scale = evaluator.context().params().scale();
    let mut acc: Option<Ciphertext> = None;
    for (&d, diag) in &lt.diagonals {
        let rotated = evaluator.rotate(ct, d as i64, gk);
        let pt = encoder.encode(diag, ell, scale).expect("diagonal encodes");
        let term = evaluator.mul_plain_no_rescale(&rotated, &pt);
        acc = Some(match acc {
            None => term,
            Some(a) => evaluator.add(&a, &term),
        });
    }
    evaluator.rescale(&acc.expect("transform has at least one diagonal"))
}

/// The automorphism table and switching key of a slot rotation.
///
/// # Panics
///
/// Panics if `gk` holds no key for it.
fn rotation<'k>(
    ctx: &CkksContext,
    gk: &'k GaloisKeys,
    steps: i64,
) -> (Arc<Automorphism>, &'k SwitchingKey) {
    let k = ctx.rotation_element(steps);
    let ksk = gk
        .get(k)
        .unwrap_or_else(|| panic!("missing Galois key for rotation {steps}"));
    (ctx.automorphism(k), ksk)
}

/// One rotation's share of a hoisted decomposition: the shared raised
/// digits permuted and folded against that rotation's key, left in the
/// raised basis.
fn hoisted_inner_product(
    ctx: &CkksContext,
    digits: &[RnsPoly],
    auto: &Automorphism,
    ksk: &SwitchingKey,
) -> RaisedKeySwitch {
    let pool = ctx.scratch();
    let rotated = automorph_digits_with(digits, auto, pool);
    let raised = inner_product(ctx, &rotated, ksk);
    recycle_all(rotated, pool);
    raised
}

fn recycle_all(polys: Vec<RnsPoly>, pool: &ScratchPool) {
    for p in polys {
        p.recycle(pool);
    }
}

/// The library's one key-switched automorphism, for each of `maps` off one
/// decomposition of `ct.c1`: the raised digits permuted and folded against
/// the map's key, a `ModDown` pair, `σ(c0)` added. A `None` map is a copy
/// and raises nothing. Every rotation and conjugation runs here, so an
/// automorphism has the same bits alone or hoisted.
pub(crate) fn switch_automorphisms<'k>(
    ctx: &CkksContext,
    ct: &Ciphertext,
    maps: impl IntoIterator<Item = Option<(Arc<Automorphism>, &'k SwitchingKey)>>,
) -> Vec<Ciphertext> {
    let pool = ctx.scratch();
    let mut digits = None;
    let out = maps
        .into_iter()
        .map(|map| {
            let Some((auto, ksk)) = map else {
                return ct.clone();
            };
            let digits = digits.get_or_insert_with(|| decompose_and_raise(ctx, ct.c1()));
            let raised = hoisted_inner_product(ctx, digits, &auto, ksk);
            let (v, u) = complete(ctx, &raised);
            raised.recycle(pool);
            let mut c0 = ct.c0.automorphism_with(&auto, pool);
            c0.add_assign(&v);
            v.recycle(pool);
            Ciphertext::new(c0, u, ct.scale)
        })
        .collect();
    recycle_all(digits.unwrap_or_default(), pool);
    out
}

/// Rotations sharing one decomposition (**ModUp hoisting**): returns the
/// rotation of `ct` by each step, at the cost of a single `Decomp`/`ModUp`
/// and one inner product + `ModDown` pair per step (none for a step that
/// is a multiple of the slot count: a copy, with no key).
///
/// # Panics
///
/// Panics if a required Galois key is missing.
pub fn rotate_hoisted(
    evaluator: &Evaluator,
    ct: &Ciphertext,
    steps: &[i64],
    gk: &GaloisKeys,
) -> Vec<Ciphertext> {
    let ctx = evaluator.context();
    let maps = steps
        .iter()
        .map(|&s| (ctx.rotation_element(s) != 1).then(|| rotation(ctx, gk, s)));
    switch_automorphisms(ctx, ct, maps)
}

/// The stages a rotate-and-add ladder `acc ← acc + rot(acc, r)` over `rungs`
/// runs in under [`rotate_fold`]: rungs two at a time from the first,
/// `(1 + σ_a)(1 + σ_b) = 1 + σ_a + σ_b + σ_{a+b}` making `[a, b]` the one
/// stage `{a, b, a + b}`, an odd last rung a stage of its own.
pub fn fold_stages(rungs: &[i64]) -> Vec<Vec<i64>> {
    rungs
        .chunks(2)
        .map(|pair| match *pair {
            [a, b] => vec![a, b, a + b],
            _ => pair.to_vec(),
        })
        .collect()
}

/// A rotate-and-add ladder, double-hoisted: for each stage in turn,
/// `acc ← acc + Σ_{s ∈ stage} rot(acc, s)`, starting from `ct`.
///
/// Per stage `c1` is decomposed and raised **once**; a step is a digit
/// automorphism and an inner product, the `u` sides summed in the raised
/// basis and brought down by **one** `ModDown` onto `c1`. `c0` is never key
/// switched again, so it enters the raised basis once (`PModUp` is free),
/// takes each stage's `σ_s(c0) + v_s` there, and comes back by **one**
/// `ModDown` when the ladder ends: `stages · (ModUp + ModDown) + ModDown`
/// where a `Rotate` per step runs `ModUp + 2 ModDown` each. A step that is a
/// multiple of the slot count adds the running sum itself and needs no key.
///
/// # Panics
///
/// Panics if a required Galois key is missing.
pub fn rotate_fold(
    evaluator: &Evaluator,
    ct: &Ciphertext,
    stages: &[Vec<i64>],
    gk: &GaloisKeys,
) -> Ciphertext {
    if stages.is_empty() {
        return ct.clone();
    }
    let _span = telemetry::span("RotateFold");
    let ctx = evaluator.context();
    let pool = ctx.scratch();
    let ell = ct.limb_count();
    let md = ctx.moddown_context(ell, false);
    let lower = |raised: RnsPoly| {
        let _span = telemetry::span("ModDown");
        let lowered = mod_down_with(&raised, &md, pool);
        raised.recycle(pool);
        lowered
    };

    let mut c0 = {
        let _span = telemetry::span("PModUp");
        pmod_up_with(&ct.c0, ctx.raised_basis(ell).clone(), pool)
    };
    // `None` while the running `c1` is still the caller's.
    let mut c1: Option<RnsPoly> = None;
    for stage in stages {
        let current = c1.as_ref().unwrap_or(ct.c1());
        // The steps that rotate, each with its table and key; every other
        // step adds the running sum to itself.
        let keyed: Vec<_> = stage
            .iter()
            .filter(|&&s| ctx.rotation_element(s) != 1)
            .map(|&s| rotation(ctx, gk, s))
            .collect();
        let copies = 1 + (stage.len() - keyed.len()) as u64;
        // c0 ← copies·c0 + Σ_s σ_s(c0): every rotation reads the stage's
        // incoming c0, so they are summed aside first.
        let mut rotations: Option<RnsPoly> = None;
        for (auto, _) in &keyed {
            merge(&mut rotations, c0.automorphism_with(auto, pool), pool);
        }
        if copies > 1 {
            c0.mul_scalar_assign(copies);
        }
        // Then, off one ModUp of c1, each step's v̂_s joins c0 and the û_s
        // are summed to come down together.
        let mut sum_u: Option<RnsPoly> = None;
        if let Some(rotations) = rotations {
            c0.add_assign(&rotations);
            rotations.recycle(pool);
            let digits = decompose_and_raise(ctx, current);
            for (auto, ksk) in &keyed {
                let RaisedKeySwitch { u, v } = hoisted_inner_product(ctx, &digits, auto, ksk);
                c0.add_assign(&v);
                v.recycle(pool);
                merge(&mut sum_u, u, pool);
            }
            recycle_all(digits, pool);
        }
        let mut next = match sum_u {
            Some(u) => lower(u),
            None => RnsPoly::zero_pooled(
                ctx.level_basis(ell).clone(),
                Representation::Evaluation,
                pool,
            ),
        };
        for _ in 0..copies {
            next.add_assign(current);
        }
        if let Some(previous) = c1.replace(next) {
            previous.recycle(pool);
        }
    }
    let c1 = c1.expect("at least one stage ran");
    Ciphertext::new(lower(c0), c1, ct.scale)
}

/// `acc += a ⊙ b` over `basis` (`a` and `b` read through their prefixes
/// when longer), the accumulator leased by the first product.
fn accumulate(
    acc: &mut Option<RnsPoly>,
    a: &RnsPoly,
    b: &RnsPoly,
    basis: &Arc<RnsBasis>,
    pool: &ScratchPool,
) {
    match acc {
        Some(acc) => acc.mul_add_assign_pointwise(a, b),
        None => {
            let mut first = RnsPoly::leased(basis.clone(), Representation::Evaluation, pool);
            a.mul_pointwise_into(b, &mut first);
            *acc = Some(first);
        }
    }
}

/// `acc += term`, taking `term` itself as the first one.
fn merge(acc: &mut Option<RnsPoly>, term: RnsPoly, pool: &ScratchPool) {
    match acc {
        None => *acc = Some(term),
        Some(a) => {
            a.add_assign(&term);
            term.recycle(pool);
        }
    }
}

/// `PtMatVecMult` with ModUp **and** ModDown hoisting (Figure 5c): one
/// `ModUp`, two `ModDown`s, independent of the diagonal count.
///
/// The plaintext diagonals are encoded directly in the raised basis
/// `Q_ℓ ∪ P` (once per transform — see [`LinearTransform`]); products and
/// sums accumulate there, one diagonal at a time, and a single `ModDown`
/// per component finishes the job.
///
/// # Panics
///
/// Panics if a required Galois key is missing.
pub fn apply_hoisted(
    evaluator: &Evaluator,
    encoder: &Encoder,
    ct: &Ciphertext,
    lt: &LinearTransform,
    gk: &GaloisKeys,
) -> Ciphertext {
    let _span = telemetry::span("HoistedMatVec");
    let ctx = evaluator.context();
    let pool = ctx.scratch();
    let ell = ct.limb_count();
    let (base, raised) = (ctx.level_basis(ell), ctx.raised_basis(ell));
    // A baby dimension of `slots` makes every diagonal a baby step: no
    // giant steps, nothing pre-rotated.
    let encoded = lt.encoded(ctx, encoder, ell, lt.slots);
    let digits = decompose_and_raise(ctx, ct.c1());

    // Raised-basis accumulators for the keyswitched parts, base-basis ones
    // for the σ(c0)·pt parts and the unrotated diagonal (the Q-prefix of a
    // raised encoding is the base-basis encoding).
    let (mut acc_u, mut acc_v, mut acc_c0, mut acc_c1) = (None, None, None, None);
    for (&d, pt) in lt.diagonals.keys().zip(&encoded.polys) {
        if d == 0 {
            accumulate(&mut acc_c0, &ct.c0, pt, base, pool);
            accumulate(&mut acc_c1, ct.c1(), pt, base, pool);
            continue;
        }
        let (auto, ksk) = rotation(ctx, gk, d as i64);
        let ks = hoisted_inner_product(ctx, &digits, &auto, ksk);
        accumulate(&mut acc_u, &ks.u, pt, raised, pool);
        accumulate(&mut acc_v, &ks.v, pt, raised, pool);
        ks.recycle(pool);
        let c0_rot = ct.c0.automorphism_with(&auto, pool);
        accumulate(&mut acc_c0, &c0_rot, pt, base, pool);
        c0_rot.recycle(pool);
    }
    recycle_all(digits, pool);

    let md = ctx.moddown_context(ell, false);
    let mut c0 = acc_c0.expect("at least one diagonal");
    if let Some(v) = acc_v {
        let lowered = mod_down_with(&v, &md, pool);
        c0.add_assign(&lowered);
        lowered.recycle(pool);
        v.recycle(pool);
    }
    if let Some(u) = acc_u {
        merge(&mut acc_c1, mod_down_with(&u, &md, pool), pool);
        u.recycle(pool);
    }
    let c1 = acc_c1.unwrap_or_else(|| RnsPoly::zero(base.clone(), Representation::Evaluation));
    let prod = Ciphertext::new(c0, c1, ct.scale * ctx.params().scale());
    let out = evaluator.rescale(&prod);
    prod.recycle(pool);
    out
}

/// The baby steps `steps` of `ct` as whole ciphertexts in the raised basis,
/// scaled by `P`, off one decomposition of `c1`: step `b ≠ 0` is the
/// key-switch intermediate of `σ_b(c1)` with `σ_b(c0)` lifted into it
/// (`PModUp` is free), step 0 the lifted ciphertext itself.
///
/// # Panics
///
/// Panics if a required Galois key is missing.
fn raised_baby_steps(
    ctx: &CkksContext,
    ct: &Ciphertext,
    gk: &GaloisKeys,
    steps: &BTreeSet<usize>,
) -> BTreeMap<usize, RaisedKeySwitch> {
    let pool = ctx.scratch();
    let mut babies = BTreeMap::new();
    if steps.is_empty() {
        return babies;
    }
    let digits = decompose_and_raise(ctx, ct.c1());
    for &b in steps {
        let baby = if b == 0 {
            let raised = ctx.raised_basis(ct.limb_count());
            RaisedKeySwitch {
                u: pmod_up_with(ct.c1(), raised.clone(), pool),
                v: pmod_up_with(&ct.c0, raised.clone(), pool),
            }
        } else {
            let (auto, ksk) = rotation(ctx, gk, b as i64);
            let mut ks = hoisted_inner_product(ctx, &digits, &auto, ksk);
            pmod_up_add_assign(&mut ks.v, ct.c0.automorphism_with(&auto, pool), pool);
            ks
        };
        babies.insert(b, baby);
    }
    recycle_all(digits, pool);
    babies
}

/// `PtMatVecMult` with the baby-step/giant-step schedule, double-hoisted:
/// diagonals `d = g·n1 + b` are grouped by giant index `g`, and
///
/// - `c1` is decomposed and raised **once**; a baby step `b` that occurs
///   is a digit automorphism and an inner product, nothing more — it stays
///   in the raised basis, `σ_b(c0)` lifted into it;
/// - a giant group's inner sum is one pass over those and the group's
///   (pre-rotated) diagonals, each slot's products summed before they are
///   reduced; a group of the unrotated diagonal alone stays in the base
///   basis;
/// - each non-zero giant group pays one `ModDown` pair for its inner sum
///   and the giant key switch, whose *raised* outputs accumulate across
///   groups; group 0 needs no rotation and joins them as it is;
/// - one `ModDown` pair, merged with the rescale, finishes:
///   `ModUp + (n₂−1)·(ModDown pair + ModUp) + merged pair` for `n₂` giant
///   groups, where a `ModDown` pair per baby step, a full `Rotate` per
///   giant step and a `Rescale` used to run.
///
/// The paper's §3.2 discusses the baby/giant trade-off (key reads vs
/// ciphertext reads); `n1` is the baby dimension.
///
/// # Panics
///
/// Panics if `n1` is zero, a required Galois key is missing or `ct` has a
/// single limb.
pub fn apply_bsgs(
    evaluator: &Evaluator,
    encoder: &Encoder,
    ct: &Ciphertext,
    lt: &LinearTransform,
    gk: &GaloisKeys,
    n1: usize,
) -> Ciphertext {
    assert!(n1 >= 1, "baby dimension must be positive");
    let _span = telemetry::span("BsgsMatVec");
    let ctx = evaluator.context();
    let pool = ctx.scratch();
    let ell = ct.limb_count();
    let (base, raised) = (ctx.level_basis(ell), ctx.raised_basis(ell));
    let encoded = lt.encoded(ctx, encoder, ell, n1);

    // A group of the unrotated diagonal alone is a plain product over Q_ℓ;
    // every other group sums in the raised basis.
    let groups = giant_groups(lt.diagonals.keys().copied().zip(&encoded.polys), n1);
    let unrotated_alone = |group: &[(usize, &RnsPoly)]| matches!(group, [(0, _)]);
    let raised_groups = groups.values().filter(|g| !unrotated_alone(g));
    let steps = raised_groups.flatten().map(|&(b, _)| b).collect();
    let babies = raised_baby_steps(ctx, ct, gk, &steps);

    // The running total: raised key-switch outputs, and base-basis legs
    // that never needed a key switch.
    let mut total: Option<RaisedKeySwitch> = None;
    let (mut total_c0, mut total_c1) = (None, None);
    for (&giant, group) in &groups {
        // The inner sum Σ_b pt_{g,b} ⊙ rot_b(ct); a raised one is the total
        // itself (group 0) or comes down to be rotated.
        let (c0, c1) = if unrotated_alone(group) {
            pair_sum(base, &[(group[0].1, &ct.c0, ct.c1())], pool)
        } else {
            let legs: Vec<_> = group
                .iter()
                .map(|&(b, pt)| (pt, &babies[&b].v, &babies[&b].u))
                .collect();
            let (v, u) = pair_sum(raised, &legs, pool);
            let inner = RaisedKeySwitch { u, v };
            if giant == 0 {
                total = Some(inner);
                continue;
            }
            let lowered = complete(ctx, &inner);
            inner.recycle(pool);
            lowered
        };
        if giant == 0 {
            (total_c0, total_c1) = (Some(c0), Some(c1));
            continue;
        }
        // Rotate the inner sum by the giant step, stopping short of the
        // key switch's own ModDown.
        let (auto, ksk) = rotation(ctx, gk, giant as i64);
        let rotated = c1.automorphism_with(&auto, pool);
        c1.recycle(pool);
        let digits = decompose_and_raise(ctx, &rotated);
        rotated.recycle(pool);
        let ks = inner_product(ctx, &digits, ksk);
        recycle_all(digits, pool);
        match &mut total {
            None => total = Some(ks),
            Some(total) => {
                total.u.add_assign(&ks.u);
                total.v.add_assign(&ks.v);
                ks.recycle(pool);
            }
        }
        merge(&mut total_c0, c0.automorphism_with(&auto, pool), pool);
        c0.recycle(pool);
    }
    for (_, baby) in babies {
        baby.recycle(pool);
    }

    let scale = ct.scale * ctx.params().scale();
    let Some(mut total) = total else {
        // Diagonal 0 alone: nothing was ever raised.
        let (c0, c1) = (total_c0, total_c1);
        let prod = Ciphertext::new(c0.expect("a diagonal"), c1.expect("its c1 leg"), scale);
        let out = evaluator.rescale(&prod);
        prod.recycle(pool);
        return out;
    };
    for (sum, leg) in [(&mut total.v, total_c0), (&mut total.u, total_c1)] {
        if let Some(leg) = leg {
            pmod_up_add_assign(sum, leg, pool);
        }
    }
    let (c0, c1) = complete_merged(ctx, &total);
    total.recycle(pool);
    let q_last = ctx.q_basis().modulus(ell - 1).value() as f64;
    Ciphertext::new(c0, c1, scale / q_last)
}

/// The one BSGS walk, of [`apply_bsgs`] and [`bsgs_required_steps`]: each
/// diagonal `d` (with its `item`) under its giant step `⌊d/n1⌋·n1`, beside
/// the baby step `d mod n1` it lands on, in offset order.
fn giant_groups<T>(
    diagonals: impl IntoIterator<Item = (usize, T)>,
    n1: usize,
) -> BTreeMap<usize, Vec<(usize, T)>> {
    let mut groups: BTreeMap<usize, Vec<(usize, T)>> = BTreeMap::new();
    for (d, item) in diagonals {
        groups.entry(d / n1 * n1).or_default().push((d % n1, item));
    }
    groups
}

/// The rotations [`apply_bsgs`] performs for a transform, and so the
/// Galois keys it needs: the baby steps `d mod n1` some diagonal lands on,
/// then the giant steps `⌊d/n1⌋·n1`, non-zero ones only, each ascending.
pub fn bsgs_required_steps(lt: &LinearTransform, n1: usize) -> Vec<i64> {
    let groups = giant_groups(lt.diagonals.keys().map(|&d| (d, ())), n1);
    let babies: BTreeSet<usize> = groups.values().flatten().map(|&(b, _)| b).collect();
    babies
        .into_iter()
        .chain(groups.into_keys())
        .filter(|&s| s != 0)
        .map(|s| s as i64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encrypt::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (
        Arc<CkksContext>,
        Encoder,
        Encryptor,
        Decryptor,
        Evaluator,
        KeyGenerator,
        StdRng,
    ) {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(6)
                .levels(4)
                .scale_bits(32)
                .first_modulus_bits(40)
                .special_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        );
        (
            ctx.clone(),
            Encoder::new(ctx.clone()),
            Encryptor::new(ctx.clone()),
            Decryptor::new(ctx.clone()),
            Evaluator::new(ctx.clone()),
            KeyGenerator::new(ctx),
            StdRng::seed_from_u64(99),
        )
    }

    fn test_matrix(n: usize) -> Vec<Vec<Complex>> {
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        // Banded matrix: a few nonzero diagonals.
                        let d = (j + n - i) % n;
                        if d == 0 || d == 1 || d == 5 {
                            Complex::new(
                                0.1 + ((i * 7 + j * 3) % 11) as f64 * 0.05,
                                ((i + 2 * j) % 5) as f64 * 0.03 - 0.06,
                            )
                        } else {
                            Complex::default()
                        }
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn diagonal_extraction_matches_dense_product() {
        let n = 8;
        let m = test_matrix(n);
        let lt = LinearTransform::from_matrix(&m);
        assert_eq!(lt.diagonal_count(), 3);
        let v: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, -0.5)).collect();
        let via_diag = lt.apply_plain(&v);
        for i in 0..n {
            let mut dense = Complex::default();
            for j in 0..n {
                dense = dense + m[i][j] * v[j];
            }
            assert!((via_diag[i] - dense).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn hoisted_rotations_match_plain_rotations() {
        let (ctx, encoder, encryptor, decryptor, evaluator, keygen, mut rng) = setup();
        let sk = keygen.secret_key(&mut rng);
        let gk = keygen.galois_keys(&mut rng, &sk, &[1, -3, 7], true);
        let slots = encoder.slots();
        let v: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), 0.1))
            .collect();
        let pt = encoder.encode(&v, 3, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let bytes = |ct: &Ciphertext| [ct.c0.flat(), ct.c1().flat()].concat();

        // One rotation: alone or hoisted, the same bits; a multiple of the
        // slot count is a copy.
        let steps = [0i64, 1, -3, 7, slots as i64];
        let hoisted = rotate_hoisted(&evaluator, &ct, &steps, &gk);
        for (rotated, &s) in hoisted.iter().zip(&steps) {
            assert_eq!(bytes(rotated), bytes(&evaluator.rotate(&ct, s, &gk)), "{s}");
            let want: Vec<Complex> = (0..slots)
                .map(|j| v[(j as i64 + s).rem_euclid(slots as i64) as usize])
                .collect();
            let got = encoder.decode(&decryptor.decrypt(rotated, &sk));
            for (x, y) in got.iter().zip(&want) {
                assert!((*x - *y).abs() < 1e-4, "steps {s}");
            }
        }
        assert_eq!(bytes(&hoisted[4]), bytes(&ct));

        // Conjugation is the same body at another element, and shares a
        // decomposition with rotations bit for bit.
        let conj = ctx.conjugation_element();
        let maps = [
            Some(rotation(&ctx, &gk, 1)),
            Some((ctx.automorphism(conj), gk.get(conj).unwrap())),
        ];
        let shared = switch_automorphisms(&ctx, &ct, maps);
        assert_eq!(bytes(&shared[0]), bytes(&hoisted[1]));
        let conjugated = evaluator.conjugate(&ct, &gk);
        assert_eq!(bytes(&shared[1]), bytes(&conjugated));
        let got = encoder.decode(&decryptor.decrypt(&conjugated, &sk));
        for (x, y) in got.iter().zip(&v) {
            assert!((*x - y.conj()).abs() < 1e-4);
        }
    }

    #[test]
    fn all_three_matvec_schedules_agree() {
        let (ctx, encoder, encryptor, decryptor, evaluator, keygen, mut rng) = setup();
        let slots = encoder.slots();
        let m = test_matrix(slots);
        let lt = LinearTransform::from_matrix(&m);
        let sk = keygen.secret_key(&mut rng);
        let mut steps: Vec<i64> = lt.offsets().iter().map(|&d| d as i64).collect();
        steps.extend(bsgs_required_steps(&lt, 4));
        let gk = keygen.galois_keys(&mut rng, &sk, &steps, false);

        let v: Vec<Complex> = (0..slots)
            .map(|i| Complex::new(0.02 * i as f64 - 0.3, (i as f64 * 0.4).cos() * 0.2))
            .collect();
        let pt = encoder.encode(&v, 3, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let want = lt.apply_plain(&v);

        let naive = apply_naive(&evaluator, &encoder, &ct, &lt, &gk);
        let hoisted = apply_hoisted(&evaluator, &encoder, &ct, &lt, &gk);
        let bsgs = apply_bsgs(&evaluator, &encoder, &ct, &lt, &gk, 4);

        for (name, result) in [("naive", naive), ("hoisted", hoisted), ("bsgs", bsgs)] {
            let got = encoder.decode(&decryptor.decrypt(&result, &sk));
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((*g - *w).abs() < 5e-4, "{name}: slot {i}: {g:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn hoisted_matvec_consumes_one_level() {
        let (ctx, encoder, encryptor, _decryptor, evaluator, keygen, mut rng) = setup();
        let slots = encoder.slots();
        let lt = LinearTransform::from_matrix(&test_matrix(slots));
        let sk = keygen.secret_key(&mut rng);
        let steps: Vec<i64> = lt.offsets().iter().map(|&d| d as i64).collect();
        let gk = keygen.galois_keys(&mut rng, &sk, &steps, false);
        let pt = encoder
            .encode(
                &vec![Complex::new(0.5, 0.0); slots],
                3,
                ctx.params().scale(),
            )
            .unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let out = apply_hoisted(&evaluator, &encoder, &ct, &lt, &gk);
        assert_eq!(out.limb_count(), 2);
        assert!((out.scale() / ct.scale() - 1.0).abs() < 0.01);
    }
}
