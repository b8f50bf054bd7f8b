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
//!   with hoisting applied to the baby steps.

use crate::encoding::Encoder;
use crate::keys::GaloisKeys;
use crate::keyswitch::{automorph_digits_with, complete, decompose_and_raise, inner_product};
use crate::ops::Evaluator;
use crate::plaintext::Ciphertext;
use fhe_math::cfft::Complex;
use fhe_math::poly::mod_down_with;
use fhe_math::telemetry;
use fhe_math::ScratchPool;
use std::collections::BTreeMap;
use std::fmt;

/// A linear map on slot vectors, stored as its nonzero generalized
/// diagonals: `y_j = Σ_d diag_d[j] · v_{(j+d) mod n}`.
#[derive(Clone)]
pub struct LinearTransform {
    diagonals: BTreeMap<usize, Vec<Complex>>,
    slots: usize,
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
        Self {
            diagonals,
            slots: n,
        }
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
        Self { diagonals, slots }
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
}

/// `PtMatVecMult`, naive schedule (Figure 5a): one full `Rotate` (with its
/// own `ModUp`s and `ModDown`s) per nonzero diagonal.
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

/// Rotations sharing one decomposition (**ModUp hoisting**): returns the
/// rotation of `ct` by each step, at the cost of a single `Decomp`/`ModUp`
/// and one inner product + `ModDown` pair per step.
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
    let pool = ctx.scratch();
    let digits = decompose_and_raise(ctx, &ct.c1);
    let out = steps
        .iter()
        .map(|&s| {
            if s == 0 {
                return ct.clone();
            }
            let k = ctx.rotation_element(s);
            let ksk = gk
                .get(k)
                .unwrap_or_else(|| panic!("missing Galois key for rotation {s}"));
            let auto = ctx.automorphism(k);
            let rotated_digits = automorph_digits_with(&digits, &auto, pool);
            let raised = inner_product(ctx, &rotated_digits, ksk);
            for d in rotated_digits {
                d.recycle(pool);
            }
            let (v, u) = complete(ctx, &raised);
            raised.recycle(pool);
            let mut c0 = ct.c0.automorphism_with(&auto, pool);
            c0.add_assign(&v);
            v.recycle(pool);
            Ciphertext::new(c0, u, ct.scale)
        })
        .collect();
    for d in digits {
        d.recycle(pool);
    }
    out
}

/// `PtMatVecMult` with ModUp **and** ModDown hoisting (Figure 5c): one
/// `ModUp`, two `ModDown`s, independent of the diagonal count.
///
/// The plaintext diagonals are encoded directly in the raised basis
/// `Q_ℓ ∪ P`; products and sums accumulate there, and a single `ModDown`
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
    let scale = ctx.params().scale();
    let digits = decompose_and_raise(ctx, &ct.c1);

    // Raised-basis accumulators for the keyswitched parts, base-basis
    // accumulator for the σ(c0)·pt parts.
    let mut acc_u: Option<fhe_math::poly::RnsPoly> = None;
    let mut acc_v: Option<fhe_math::poly::RnsPoly> = None;
    let mut acc_c0: Option<fhe_math::poly::RnsPoly> = None;
    let mut acc_c1_base: Option<fhe_math::poly::RnsPoly> = None;

    for (&d, diag) in &lt.diagonals {
        let pt_base = encoder.encode(diag, ell, scale).expect("diagonal encodes");
        if d == 0 {
            // No rotation: multiply both components in the base basis.
            let mut t0 = ct.c0.clone();
            t0.mul_assign_pointwise(&pt_base.poly);
            merge(&mut acc_c0, t0, pool);
            let mut t1 = ct.c1.clone();
            t1.mul_assign_pointwise(&pt_base.poly);
            merge(&mut acc_c1_base, t1, pool);
            continue;
        }
        let k = ctx.rotation_element(d as i64);
        let ksk = gk
            .get(k)
            .unwrap_or_else(|| panic!("missing Galois key for rotation {d}"));
        let auto = ctx.automorphism(k);
        let rotated_digits = automorph_digits_with(&digits, &auto, pool);
        let raised = inner_product(ctx, &rotated_digits, ksk);
        for rd in rotated_digits {
            rd.recycle(pool);
        }
        // Plaintext in the raised basis (ModDown hoisting).
        let pt_raised = encoder
            .encode_raised(diag, ell, scale)
            .expect("diagonal encodes");
        let mut u = raised.u;
        u.mul_assign_pointwise(&pt_raised.poly);
        merge(&mut acc_u, u, pool);
        let mut v = raised.v;
        v.mul_assign_pointwise(&pt_raised.poly);
        merge(&mut acc_v, v, pool);
        // σ(c0) part stays in the base basis.
        let mut c0_rot = ct.c0.automorphism_with(&auto, pool);
        c0_rot.mul_assign_pointwise(&pt_base.poly);
        merge(&mut acc_c0, c0_rot, pool);
    }
    for d in digits {
        d.recycle(pool);
    }

    let md = ctx.moddown_context(ell, false);
    let mut c0 = acc_c0.expect("at least one diagonal");
    if let Some(v) = acc_v {
        let lowered = mod_down_with(&v, &md, pool);
        c0.add_assign(&lowered);
        lowered.recycle(pool);
        v.recycle(pool);
    }
    let mut c1 = match acc_u {
        Some(u) => {
            let lowered = mod_down_with(&u, &md, pool);
            u.recycle(pool);
            lowered
        }
        None => fhe_math::poly::RnsPoly::zero(
            ctx.level_basis(ell).clone(),
            fhe_math::poly::Representation::Evaluation,
        ),
    };
    if let Some(b) = acc_c1_base {
        c1.add_assign(&b);
        b.recycle(pool);
    }
    evaluator.rescale(&Ciphertext::new(c0, c1, ct.scale * scale))
}

fn merge(
    acc: &mut Option<fhe_math::poly::RnsPoly>,
    term: fhe_math::poly::RnsPoly,
    pool: &ScratchPool,
) {
    match acc {
        None => *acc = Some(term),
        Some(a) => {
            a.add_assign(&term);
            term.recycle(pool);
        }
    }
}

/// `PtMatVecMult` with the baby-step/giant-step schedule: diagonals
/// `d = g·n1 + b` are grouped so only `n1` (hoisted) baby rotations and
/// `⌈r/n1⌉` giant rotations are needed. The paper's §3.2 discusses the
/// baby/giant trade-off (key reads vs ciphertext reads); `n1` is the baby
/// dimension.
///
/// # Panics
///
/// Panics if `n1` is zero or a required Galois key is missing.
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
    let ell = ct.limb_count();
    let scale = ctx.params().scale();
    let slots = lt.slots;

    // Group diagonals by giant index.
    let mut groups: BTreeMap<usize, Vec<(usize, &Vec<Complex>)>> = BTreeMap::new();
    for (&d, diag) in &lt.diagonals {
        groups.entry(d / n1).or_default().push((d % n1, diag));
    }
    // Baby rotations, hoisted.
    let baby_steps: Vec<i64> = (0..n1 as i64).collect();
    let babies = rotate_hoisted(evaluator, ct, &baby_steps, gk);

    let mut acc: Option<Ciphertext> = None;
    for (&g, entries) in &groups {
        let giant = g * n1;
        // Inner sum: Σ_b σ_{-giant}(diag_{giant+b}) ⊙ rot_b(ct).
        let mut inner: Option<Ciphertext> = None;
        for &(b, diag) in entries {
            // Pre-rotate the diagonal right by `giant` so the giant
            // rotation aligns it.
            let pre: Vec<Complex> = (0..slots)
                .map(|j| diag[(j + slots - giant % slots) % slots])
                .collect();
            let pt = encoder.encode(&pre, ell, scale).expect("diagonal encodes");
            let term = evaluator.mul_plain_no_rescale(&babies[b], &pt);
            inner = Some(match inner {
                None => term,
                Some(a) => evaluator.add(&a, &term),
            });
        }
        let inner = inner.expect("non-empty group");
        let rotated = if giant == 0 {
            inner
        } else {
            evaluator.rotate(&inner, giant as i64, gk)
        };
        acc = Some(match acc {
            None => rotated,
            Some(a) => evaluator.add(&a, &rotated),
        });
    }
    evaluator.rescale(&acc.expect("transform has at least one diagonal"))
}

/// The Galois keys required by [`apply_bsgs`] for a transform: baby steps
/// `1..n1` and giant steps `n1, 2n1, …`.
pub fn bsgs_required_steps(lt: &LinearTransform, n1: usize) -> Vec<i64> {
    let mut steps: Vec<i64> = (1..n1 as i64).collect();
    let mut giants: Vec<i64> = lt
        .diagonals
        .keys()
        .map(|&d| ((d / n1) * n1) as i64)
        .filter(|&g| g != 0)
        .collect();
    giants.sort_unstable();
    giants.dedup();
    steps.extend(giants);
    steps
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
        let gk = keygen.galois_keys(&mut rng, &sk, &[1, 2, 7], false);
        let slots = encoder.slots();
        let v: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), 0.1))
            .collect();
        let pt = encoder.encode(&v, 3, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);

        let hoisted = rotate_hoisted(&evaluator, &ct, &[0, 1, 2, 7], &gk);
        for (idx, &steps) in [0i64, 1, 2, 7].iter().enumerate() {
            let direct = evaluator.rotate(&ct, steps, &gk);
            let a = encoder.decode(&decryptor.decrypt(&hoisted[idx], &sk));
            let b = encoder.decode(&decryptor.decrypt(&direct, &sk));
            for (x, y) in a.iter().zip(&b) {
                assert!((*x - *y).abs() < 1e-4, "steps {steps}");
            }
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
