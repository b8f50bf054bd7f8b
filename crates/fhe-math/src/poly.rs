//! RNS polynomials over `Z_Q[x]/(x^N + 1)` with explicit representation
//! tracking, plus the RNS basis-change ring operations of the MAD paper:
//! `ModUp` (Algorithm 1), `ModDown` (Algorithm 2), `Rescale` (the
//! `ModDown` specialization that drops one limb), and `PModUp`
//! (Algorithm 5, the free lift `x ↦ P·x` enabling linear functions in the
//! raised basis).
//!
//! Storage is a single contiguous limb-major buffer: limb `i` occupies
//! `data[i·N .. (i+1)·N]`, so the in-memory layout literally is the
//! paper's limb-wise access pattern (Table 3) and limb-wise kernels stream
//! a flat array. Hot operations take a [`ScratchPool`] and perform no heap
//! allocation once the pool is warm; each `*_with` variant has a plain
//! wrapper for cold paths and tests. Pool leases have unspecified contents
//! (see [`crate::scratch`]): every operation here overwrites the whole of
//! each buffer it leases, and [`RnsPoly::zero_pooled`] is the one
//! constructor that zero-fills.
//!
//! Every operation documents its data-access pattern (limb-wise vs
//! slot-wise per Table 3); the `simfhe` crate charges costs for exactly
//! these patterns.

use crate::automorph::Automorphism;
use crate::backend::{ShoupPair, UnrolledBackend};
use crate::bigint::{IBig, UBig};
use crate::modular::Modulus;
use crate::rns::{BasisExtender, RnsBasis};
use crate::scratch::ScratchPool;
use crate::telemetry;
use std::fmt;
use std::sync::Arc;

/// Which domain a polynomial's limbs currently live in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Coefficient vector (required by slot-wise basis-change operations).
    Coefficient,
    /// NTT evaluations (required by pointwise multiplication).
    Evaluation,
}

/// A polynomial in `∏ Z_{q_i}[x]/(x^N + 1)`, stored as one contiguous
/// limb-major `Vec<u64>`.
pub struct RnsPoly {
    basis: Arc<RnsBasis>,
    rep: Representation,
    data: Vec<u64>,
    /// Memory-trace identity (stable id + paper traffic class).
    tag: telemetry::OperandTag,
}

impl Clone for RnsPoly {
    fn clone(&self) -> Self {
        Self {
            basis: self.basis.clone(),
            rep: self.rep,
            data: self.data.clone(),
            // A clone is a distinct buffer: same class, fresh identity.
            tag: telemetry::OperandTag {
                class: self.tag.class,
                id: telemetry::new_operand_id(),
            },
        }
    }
}

impl fmt::Debug for RnsPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RnsPoly")
            .field("limbs", &self.limb_count())
            .field("degree", &self.basis.degree())
            .field("rep", &self.rep)
            .finish()
    }
}

impl RnsPoly {
    /// The zero polynomial in the given representation.
    pub fn zero(basis: Arc<RnsBasis>, rep: Representation) -> Self {
        let len = basis.degree() * basis.len();
        Self {
            basis,
            rep,
            data: vec![0u64; len],
            tag: telemetry::OperandTag::scratch(),
        }
    }

    /// The zero polynomial with storage leased from `pool` (returned via
    /// [`RnsPoly::recycle`]).
    pub fn zero_pooled(basis: Arc<RnsBasis>, rep: Representation, pool: &ScratchPool) -> Self {
        let mut out = Self::leased(basis, rep, pool);
        out.data.fill(0);
        out
    }

    /// A polynomial of the given shape with storage leased from `pool` and
    /// **unspecified contents** — stale residues of whatever polynomial,
    /// over whatever basis, held the buffer last. For outputs the caller
    /// overwrites limb by limb (an automorphism target, an inner-product
    /// accumulator); anything else wants [`RnsPoly::zero_pooled`].
    pub fn leased(basis: Arc<RnsBasis>, rep: Representation, pool: &ScratchPool) -> Self {
        let len = basis.degree() * basis.len();
        Self {
            basis,
            rep,
            data: pool.take_vec(len),
            tag: telemetry::OperandTag::scratch(),
        }
    }

    /// Builds a polynomial from signed coefficients (coefficient
    /// representation), reducing each into every limb.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the ring degree.
    pub fn from_signed_coeffs(basis: Arc<RnsBasis>, coeffs: &[i64]) -> Self {
        let n = basis.degree();
        assert_eq!(coeffs.len(), n, "coefficient count mismatch");
        let mut data = vec![0u64; n * basis.len()];
        // Below every modulus the widest coefficient is under, a
        // coefficient's residue is itself, plus `q` where it is negative:
        // a loop without a branch. Other limbs reduce per coefficient.
        let widest = coeffs.iter().fold(0, |w, c| w.max(c.unsigned_abs()));
        for (i, limb) in data.chunks_exact_mut(n).enumerate() {
            let m = basis.modulus(i);
            let q = m.value();
            if widest < q {
                for (d, &c) in limb.iter_mut().zip(coeffs) {
                    *d = (c as u64).wrapping_add(q & (c >> 63) as u64);
                }
            } else {
                for (d, &c) in limb.iter_mut().zip(coeffs) {
                    *d = m.from_i64(c);
                }
            }
        }
        Self {
            basis,
            rep: Representation::Coefficient,
            data,
            tag: telemetry::OperandTag::scratch(),
        }
    }

    /// Builds a polynomial from a pre-reduced flat limb-major buffer
    /// (limb `i` = `data[i·N .. (i+1)·N]`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from `basis.len() · basis.degree()`,
    /// or (in debug builds) if any residue is unreduced.
    pub fn from_flat(basis: Arc<RnsBasis>, data: Vec<u64>, rep: Representation) -> Self {
        let n = basis.degree();
        assert_eq!(
            data.len(),
            n * basis.len(),
            "flat buffer length mismatch: {} words for {} limbs of degree {n}",
            data.len(),
            basis.len()
        );
        #[cfg(debug_assertions)]
        for (i, limb) in data.chunks_exact(n).enumerate() {
            debug_assert!(
                limb.iter().all(|&x| x < basis.modulus(i).value()),
                "limb {i} contains unreduced residues"
            );
        }
        Self {
            basis,
            rep,
            data,
            tag: telemetry::OperandTag::scratch(),
        }
    }

    /// The RNS basis.
    #[inline]
    pub fn basis(&self) -> &Arc<RnsBasis> {
        &self.basis
    }

    /// Current representation.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.rep
    }

    /// Number of limbs `ℓ`.
    #[inline]
    pub fn limb_count(&self) -> usize {
        self.basis.len()
    }

    /// Ring degree `N`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.basis.degree()
    }

    /// Read access to limb `i`.
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        let n = self.basis.degree();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable access to limb `i` (caller must preserve reduction).
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.basis.degree();
        &mut self.data[i * n..(i + 1) * n]
    }

    /// Iterates over limbs in order.
    pub fn limbs_iter(&self) -> impl Iterator<Item = &[u64]> {
        self.data.chunks_exact(self.basis.degree())
    }

    /// The whole limb-major buffer.
    #[inline]
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Mutable access to the whole limb-major buffer (caller must preserve
    /// per-limb reduction).
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the polynomial, returning its flat limb-major buffer.
    pub fn into_flat(self) -> Vec<u64> {
        self.data
    }

    /// Consumes the polynomial, returning its storage to `pool`.
    pub fn recycle(self, pool: &ScratchPool) {
        pool.recycle_vec(self.data);
    }

    /// Releases storage beyond the polynomial's length — a pool lease's
    /// capacity can be several times it — in place, copying nothing.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
    }

    /// Reclassifies this polynomial for memory-access tracing (e.g. when a
    /// kernel output is wrapped into a ciphertext or key). Emits a
    /// [`telemetry::TraceRecord::Retag`] if a trace is active.
    #[inline(always)]
    pub fn set_operand_class(&mut self, class: telemetry::OperandClass) {
        self.tag.class = class;
        telemetry::record_retag(self.tag.id, class);
    }

    /// Records a whole-buffer streamed touch of this operand for the
    /// memory-access trace (no-op unless a trace is active).
    #[inline(always)]
    pub fn trace_touch(&self, write: bool) {
        telemetry::record_touch(self.tag, write, 0, 8 * self.data.len() as u64);
    }

    /// Records a streamed touch of `limb_count` limbs starting at
    /// `first_limb` (no-op unless a trace is active).
    #[inline(always)]
    pub fn trace_touch_limbs(&self, write: bool, first_limb: usize, limb_count: usize) {
        let n = self.basis.degree() as u64;
        telemetry::record_touch(
            self.tag,
            write,
            8 * n * first_limb as u64,
            8 * n * limb_count as u64,
        );
    }

    fn assert_compatible(&self, other: &RnsPoly) {
        assert_eq!(self.rep, other.rep, "representation mismatch");
        assert_eq!(self.limb_count(), other.limb_count(), "limb count mismatch");
        debug_assert!(starts_with(&self.basis, &other.basis), "basis mismatch");
    }

    /// Converts to evaluation representation in place (`ℓ` forward NTTs;
    /// limb-wise access pattern). No-op if already in evaluation form.
    pub fn to_eval(&mut self) {
        if self.rep == Representation::Evaluation {
            return;
        }
        self.trace_touch(false);
        self.trace_touch(true);
        let n = self.basis.degree();
        for (i, limb) in self.data.chunks_exact_mut(n).enumerate() {
            self.basis.ntt_table(i).forward(limb);
        }
        self.rep = Representation::Evaluation;
    }

    /// Converts to coefficient representation in place (`ℓ` inverse NTTs;
    /// limb-wise access pattern). No-op if already in coefficient form.
    pub fn to_coeff(&mut self) {
        if self.rep == Representation::Coefficient {
            return;
        }
        self.trace_touch(false);
        self.trace_touch(true);
        let n = self.basis.degree();
        for (i, limb) in self.data.chunks_exact_mut(n).enumerate() {
            self.basis.ntt_table(i).inverse(limb);
        }
        self.rep = Representation::Coefficient;
    }

    /// One element-wise pass writing this polynomial's limbs: records
    /// `mults` / `adds` per element written and the pass's trace touches —
    /// this polynomial's read when `reads_self`, each input's prefix in
    /// argument order, then this polynomial's write — and runs
    /// `kernel(i, q_i, limb, input_limbs)` per limb. Inputs are read
    /// through their first `self.limb_count()` limbs; each op checks its
    /// own shapes first.
    fn elementwise<const K: usize>(
        &mut self,
        reads_self: bool,
        inputs: [&RnsPoly; K],
        (mults, adds): (u64, u64),
        kernel: impl Fn(usize, &Modulus, &mut [u64], [&[u64]; K]),
    ) {
        let (n, limbs, len) = (self.degree(), self.limb_count(), self.data.len());
        telemetry::record_ops(mults * len as u64, adds * len as u64);
        if reads_self {
            self.trace_touch(false);
        }
        for x in inputs {
            x.trace_touch_limbs(false, 0, limbs);
        }
        self.trace_touch(true);
        let inputs = inputs.map(|x| &x.data[..len]);
        let basis = &self.basis;
        for (i, dst) in self.data.chunks_exact_mut(n).enumerate() {
            let limb = i * n..(i + 1) * n;
            kernel(i, basis.modulus(i), dst, inputs.map(|x| &x[limb.clone()]));
        }
    }

    /// `self += other` (works in either representation; both operands must
    /// match).
    pub fn add_assign(&mut self, other: &RnsPoly) {
        self.assert_compatible(other);
        self.elementwise(true, [other], (0, 1), |_, m, dst, [src]| {
            UnrolledBackend.pointwise_add(m, dst, src)
        });
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &RnsPoly) {
        self.assert_compatible(other);
        self.elementwise(true, [other], (0, 1), |_, m, dst, [src]| {
            UnrolledBackend.pointwise_sub(m, dst, src)
        });
    }

    /// `out = self + other` over `out`'s limbs, leaving both inputs
    /// untouched: one pass, two limbs read per limb written. An input over
    /// a longer basis is read through its prefix, so operands at different
    /// levels add at the lower one without either being copied down first.
    ///
    /// # Panics
    ///
    /// Panics unless both inputs share a representation and have at least
    /// `out`'s limbs.
    pub fn add_into(&self, other: &RnsPoly, out: &mut RnsPoly) {
        out.assert_combines(self, other);
        out.rep = self.rep;
        out.elementwise(false, [self, other], (0, 1), |_, m, dst, [a, b]| {
            UnrolledBackend.pointwise_add_into(m, a, b, dst)
        });
    }

    /// `out = self − other`; see [`RnsPoly::add_into`].
    pub fn sub_into(&self, other: &RnsPoly, out: &mut RnsPoly) {
        out.assert_combines(self, other);
        out.rep = self.rep;
        out.elementwise(false, [self, other], (0, 1), |_, m, dst, [a, b]| {
            UnrolledBackend.pointwise_sub_into(m, a, b, dst)
        });
    }

    /// The checks of [`RnsPoly::add_into`] and [`RnsPoly::sub_into`]. The
    /// residues are canonical on both sides of either kernel, so the result
    /// is the one `add_assign` / `sub_assign` leave.
    fn assert_combines(&self, a: &RnsPoly, b: &RnsPoly) {
        assert_eq!(a.rep, b.rep, "representation mismatch");
        let limbs = self.limb_count();
        assert!(
            a.limb_count() >= limbs && b.limb_count() >= limbs,
            "operands have {} and {} limbs, output {limbs}",
            a.limb_count(),
            b.limb_count(),
        );
        debug_assert!(starts_with(&a.basis, &self.basis), "basis mismatch");
        debug_assert!(starts_with(&b.basis, &self.basis), "basis mismatch");
    }

    /// `self = -self`.
    pub fn negate(&mut self) {
        self.elementwise(true, [], (0, 1), |_, m, dst, []| {
            UnrolledBackend.pointwise_neg(m, dst)
        });
    }

    /// Pointwise product `self *= other`.
    ///
    /// # Panics
    ///
    /// Panics unless both polynomials are in evaluation representation.
    pub fn mul_assign_pointwise(&mut self, other: &RnsPoly) {
        assert_eq!(
            self.rep,
            Representation::Evaluation,
            "pointwise product requires evaluation representation"
        );
        self.assert_compatible(other);
        self.elementwise(true, [other], (1, 0), |_, m, dst, [src]| {
            UnrolledBackend.pointwise_mul(m, dst, src)
        });
    }

    /// Checks that `operand` can be read at this polynomial's shape: in
    /// evaluation representation, over a basis this one's is a prefix of.
    fn assert_reads_prefix_of(&self, operand: &RnsPoly) {
        assert_eq!(
            operand.rep,
            Representation::Evaluation,
            "pointwise product requires evaluation representation"
        );
        assert!(
            operand.limb_count() >= self.limb_count(),
            "operand has {} limbs, output {}",
            operand.limb_count(),
            self.limb_count()
        );
        debug_assert!(starts_with(&operand.basis, &self.basis), "basis mismatch");
    }

    /// Pointwise product `out = self ⊙ other` over `out`'s limbs, leaving
    /// both inputs untouched. An input over a longer basis is read through
    /// its prefix, so operands at different levels multiply at the lower
    /// one without either being copied down first.
    ///
    /// # Panics
    ///
    /// Panics unless both inputs are in evaluation representation with at
    /// least `out`'s limbs.
    pub fn mul_pointwise_into(&self, other: &RnsPoly, out: &mut RnsPoly) {
        out.assert_reads_prefix_of(self);
        out.assert_reads_prefix_of(other);
        out.rep = Representation::Evaluation;
        out.elementwise(false, [self, other], (1, 0), |_, m, dst, [a, b]| {
            UnrolledBackend.pointwise_mul_into(m, a, b, dst)
        });
    }

    /// The fused multiply-accumulate `self += a ⊙ b` over this
    /// polynomial's limbs; like [`RnsPoly::mul_pointwise_into`], an input
    /// over a longer basis is read through its prefix.
    ///
    /// # Panics
    ///
    /// Panics unless all three are in evaluation representation and the
    /// inputs have at least this polynomial's limbs.
    pub fn mul_add_assign_pointwise(&mut self, a: &RnsPoly, b: &RnsPoly) {
        self.assert_reads_prefix_of(a);
        self.assert_reads_prefix_of(b);
        assert_eq!(
            self.rep,
            Representation::Evaluation,
            "pointwise product requires evaluation representation"
        );
        self.elementwise(true, [a, b], (1, 1), |_, m, acc, [x, y]| {
            UnrolledBackend.pointwise_mul_add(m, acc, x, y)
        });
    }

    /// Multiplies every limb by a (per-limb-reduced) scalar.
    pub fn mul_scalar_assign(&mut self, scalar: u64) {
        self.elementwise(true, [], (1, 0), |_, m, limb, []| {
            UnrolledBackend.scale_shoup(m, limb, ShoupPair::new(m, m.reduce(scalar)))
        });
    }

    /// Multiplies limb `i` by a scalar reduced mod `q_i`, one scalar per
    /// limb.
    ///
    /// # Panics
    ///
    /// Panics if `scalars.len() != self.limb_count()`.
    pub fn mul_scalar_per_limb_assign(&mut self, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.limb_count());
        self.elementwise(true, [], (1, 0), |i, m, limb, []| {
            UnrolledBackend.scale_shoup(m, limb, ShoupPair::new(m, m.reduce(scalars[i])))
        });
    }

    /// Applies a Galois automorphism, producing a new polynomial in the same
    /// representation.
    pub fn automorphism(&self, auto: &Automorphism) -> RnsPoly {
        self.automorphism_with(auto, &ScratchPool::new())
    }

    /// [`RnsPoly::automorphism`] with the output leased from `pool` (a
    /// permutation writes every slot, so the lease needs no zero-fill).
    pub fn automorphism_with(&self, auto: &Automorphism, pool: &ScratchPool) -> RnsPoly {
        let mut out = RnsPoly::leased(self.basis.clone(), self.rep, pool);
        self.automorphism_into(auto, &mut out);
        out
    }

    /// Applies a Galois automorphism into an existing polynomial of the same
    /// shape (the allocation-free variant used by rotation hot paths).
    ///
    /// # Panics
    ///
    /// Panics if `out` was built over a different shape.
    pub fn automorphism_into(&self, auto: &Automorphism, out: &mut RnsPoly) {
        assert_eq!(out.data.len(), self.data.len(), "output shape mismatch");
        out.rep = self.rep;
        let n = self.basis.degree();
        let basis = &self.basis;
        let rep = self.rep;
        let src = &self.data;
        // A pure permutation: no modular ops, only streamed limb traffic.
        self.trace_touch(false);
        out.trace_touch(true);
        for (i, dst) in out.data.chunks_exact_mut(n).enumerate() {
            let s = &src[i * n..(i + 1) * n];
            match rep {
                Representation::Coefficient => auto.apply_coeff(s, dst, basis.modulus(i).value()),
                Representation::Evaluation => auto.apply_eval(s, dst),
            }
        }
    }

    /// Drops trailing limbs, restricting to the first `keep` limbs of the
    /// basis (a plain basis restriction — no division; contrast with
    /// [`rescale`]).
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero or exceeds the current limb count.
    pub fn drop_to(&self, keep: usize) -> RnsPoly {
        assert!(keep >= 1 && keep <= self.limb_count());
        let n = self.basis.degree();
        self.trace_touch_limbs(false, 0, keep);
        let out = RnsPoly {
            basis: Arc::new(self.basis.prefix(keep)),
            rep: self.rep,
            data: self.data[..keep * n].to_vec(),
            tag: telemetry::OperandTag::scratch(),
        };
        out.trace_touch(true);
        out
    }

    /// In-place version of [`RnsPoly::drop_to`]: truncates the buffer to the
    /// first `keep` limbs without copying, adopting the provided prefix
    /// basis (typically a cached `Arc` from the scheme context).
    ///
    /// # Panics
    ///
    /// Panics if `keep` exceeds the limb count or `prefix_basis` is not the
    /// length-`keep` prefix of the current basis.
    pub fn truncate_limbs(&mut self, keep: usize, prefix_basis: Arc<RnsBasis>) {
        assert!(keep >= 1 && keep <= self.limb_count());
        assert_eq!(prefix_basis.len(), keep, "prefix basis length mismatch");
        debug_assert!(
            starts_with(&self.basis, &prefix_basis),
            "prefix basis mismatch"
        );
        let n = self.basis.degree();
        self.data.truncate(keep * n);
        self.basis = prefix_basis;
    }

    /// CRT-reconstructs coefficient `k` to a centered big integer in
    /// `(−Q/2, Q/2]`. Requires coefficient representation.
    ///
    /// # Panics
    ///
    /// Panics in evaluation representation or if `k` is out of range.
    pub fn coeff_centered(&self, k: usize) -> IBig {
        assert_eq!(
            self.rep,
            Representation::Coefficient,
            "reconstruction requires coefficient representation"
        );
        let residues: Vec<u64> = self.limbs_iter().map(|l| l[k]).collect();
        let v = self.basis.crt_reconstruct(&residues);
        let q = self.basis.product();
        let half = q.shr(1);
        if v > half {
            let mut mag = q;
            mag.sub_assign(&v);
            IBig {
                negative: true,
                magnitude: mag,
            }
        } else {
            IBig {
                negative: false,
                magnitude: v,
            }
        }
    }

    /// Infinity norm of the centered coefficients, as `f64` (diagnostics and
    /// noise-budget tests).
    pub fn inf_norm(&self) -> f64 {
        (0..self.degree())
            .map(|k| self.coeff_centered(k).to_f64().abs())
            .fold(0.0, f64::max)
    }
}

/// Whether `long`'s leading moduli are `short`'s (checked as far as the
/// shorter of the two reaches).
fn starts_with(long: &RnsBasis, short: &RnsBasis) -> bool {
    long.moduli()
        .iter()
        .zip(short.moduli())
        .all(|(a, b)| a.value() == b.value())
}

/// `Rescale` (the paper's Table 2 column): divides by the last limb modulus
/// and drops that limb, keeping the scaling factor stable after a
/// multiplication.
///
/// Input and output are in evaluation representation. Internally: one iNTT
/// on the dropped limb (limb-wise), a centered reduction of that limb into
/// every remaining modulus ([`UnrolledBackend::lift_centered`]: slot-wise
/// in spirit, but
/// single-source so it streams), `ℓ−1` forward NTTs, and a pointwise
/// subtract-and-scale. Scratch and output storage come from `pool`.
///
/// # Panics
///
/// Panics unless `poly` is in evaluation representation with ≥ 2 limbs.
pub fn rescale_with(poly: &RnsPoly, pool: &ScratchPool) -> RnsPoly {
    assert_eq!(
        poly.representation(),
        Representation::Evaluation,
        "rescale expects evaluation representation"
    );
    let l = poly.limb_count();
    assert!(l >= 2, "cannot rescale a single-limb polynomial");
    let n = poly.degree();
    let basis = poly.basis();
    let q_last = basis.modulus(l - 1);

    // Beyond the transforms (recorded by the NTT hooks): per kept limb,
    // n centered reductions (counted as adds), n subtracts, n scale mults.
    let kept = (l - 1) as u64;
    telemetry::record_ops(kept * n as u64, 2 * kept * n as u64);
    poly.trace_touch(false);

    // iNTT the dropped limb and shift it by ⌊q_last/2⌋, once, for the
    // centred lifts below.
    let mut last = pool.take(n);
    last.copy_from_slice(poly.limb(l - 1));
    basis.ntt_table(l - 1).inverse(&mut last);
    UnrolledBackend.add_scalar(q_last, &mut last, q_last.value() / 2);

    let mut out = RnsPoly {
        basis: Arc::new(basis.prefix(l - 1)),
        rep: Representation::Evaluation,
        data: pool.take_vec((l - 1) * n),
        tag: telemetry::OperandTag::scratch(),
    };
    out.trace_touch(true);
    let src = poly.flat();
    let last = &last;
    let q_last_inv = basis.drop_last_inverses();
    for (i, limb) in out.data.chunks_exact_mut(n).enumerate() {
        let qi = basis.modulus(i);
        // Centered image of the dropped limb in q_i, NTT'd in place inside
        // the output limb — no per-limb temporary needed.
        UnrolledBackend.lift_centered(q_last, qi, last, limb);
        basis.ntt_table(i).forward(limb);
        let off = i * n;
        UnrolledBackend.sub_scale_shoup(qi, &src[off..off + n], limb, q_last_inv[i]);
    }
    out
}

/// [`rescale_with`] against a throwaway pool (cold paths and tests).
pub fn rescale(poly: &RnsPoly) -> RnsPoly {
    rescale_with(poly, &ScratchPool::new())
}

/// Precomputed constants for [`mod_down`]: dividing by `P = ∏ B'` after a
/// key switch in the raised basis `B ∪ B'`.
#[derive(Debug, Clone)]
pub struct ModDownContext {
    /// Extends residues from the special basis `B'` into `B`.
    extender: BasisExtender,
    /// The output basis `B` (shared so `mod_down` allocates nothing).
    out_basis: Arc<RnsBasis>,
    /// `P^{-1} mod q_i` for each limb of `B`, with Shoup companions.
    p_inv: Vec<ShoupPair>,
    /// `⌊P/2⌋ mod q_i` for each limb of `B` (centering trick).
    half_p_mod_q: Vec<u64>,
    /// `⌊P/2⌋ mod p_j` for each limb of `B'`.
    half_p_mod_p: Vec<u64>,
    q_len: usize,
    p_len: usize,
}

impl ModDownContext {
    /// Precomputes the `ModDown` constants for dropping `p_basis` from
    /// `q_basis ∪ p_basis`.
    pub fn new(q_basis: Arc<RnsBasis>, p_basis: &RnsBasis) -> Self {
        let extender = BasisExtender::new(p_basis, &q_basis);
        let mut p_inv = Vec::with_capacity(q_basis.len());
        for qi in q_basis.moduli() {
            let mut p_mod = 1u64;
            for pj in p_basis.moduli() {
                p_mod = qi.mul(p_mod, qi.reduce(pj.value()));
            }
            let inv = qi.inv(p_mod).expect("P coprime to q_i");
            p_inv.push(ShoupPair::new(qi, inv));
        }
        // Centering trick constants: ⌊P/2⌋ reduced into every modulus.
        let half_p = UBig::product(
            &p_basis
                .moduli()
                .iter()
                .map(|m| m.value())
                .collect::<Vec<_>>(),
        )
        .shr(1);
        let half_p_mod_q = q_basis
            .moduli()
            .iter()
            .map(|qi| qi.reduce(half_p.rem_u64(qi.value())))
            .collect();
        let half_p_mod_p = p_basis
            .moduli()
            .iter()
            .map(|pj| pj.reduce(half_p.rem_u64(pj.value())))
            .collect();
        Self {
            extender,
            q_len: q_basis.len(),
            p_len: p_basis.len(),
            out_basis: q_basis,
            p_inv,
            half_p_mod_q,
            half_p_mod_p,
        }
    }
}

/// `ModDown` (Algorithm 2): given `x` over `B ∪ B'` (with the `B'` limbs
/// stored last), returns `⌊P^{-1}·x⌉` over `B`.
///
/// Input and output are in evaluation representation, matching the
/// algorithm as stated in the paper: the `B'` limbs are iNTT'd (limb-wise),
/// extended into `B` via `NewLimb` (slot-wise), NTT'd back (limb-wise), and
/// combined pointwise. All working and output storage comes from `pool`;
/// with a warm pool the call performs zero heap allocations.
///
/// # Panics
///
/// Panics if `poly` is not in evaluation representation or its limb count
/// does not equal `q_len + p_len` of the context.
pub fn mod_down_with(poly: &RnsPoly, ctx: &ModDownContext, pool: &ScratchPool) -> RnsPoly {
    assert_eq!(
        poly.representation(),
        Representation::Evaluation,
        "mod_down expects evaluation representation"
    );
    assert_eq!(
        poly.limb_count(),
        ctx.q_len + ctx.p_len,
        "limb count must equal |B| + |B'|"
    );
    let n = poly.degree();
    let basis = poly.basis();

    // Beyond transforms and the NewLimb conversion (recorded by their own
    // hooks): the centering trick adds n ops per special limb before the
    // conversion and n per output limb after, and the combine does n
    // subtracts + n scale mults per output limb.
    telemetry::record_ops(
        (ctx.q_len * n) as u64,
        ((ctx.p_len + 2 * ctx.q_len) * n) as u64,
    );
    poly.trace_touch(false);

    // Step 1: iNTT the special limbs (limb-wise), then apply the centering
    // trick — add P/2 before conversion and subtract (P/2 mod q_i) after,
    // turning the floor of the fast conversion into a round.
    let mut special = pool.take(ctx.p_len * n);
    special.copy_from_slice(&poly.flat()[ctx.q_len * n..]);
    for (j, limb) in special.chunks_exact_mut(n).enumerate() {
        let pj = basis.modulus(ctx.q_len + j);
        basis.ntt_table(ctx.q_len + j).inverse(limb);
        UnrolledBackend.add_scalar(pj, limb, ctx.half_p_mod_p[j]);
    }

    // Step 2: NewLimb into each q_i (slot-wise), written straight into the
    // output buffer.
    let mut out = RnsPoly {
        basis: ctx.out_basis.clone(),
        rep: Representation::Evaluation,
        data: pool.take_vec(ctx.q_len * n),
        tag: telemetry::OperandTag::scratch(),
    };
    out.trace_touch(true);
    ctx.extender.extend_flat(&special, &mut out.data, n);

    // Step 3: un-center, NTT the converted limbs, combine (limb-wise).
    let src = poly.flat();
    for (i, limb) in out.data.chunks_exact_mut(n).enumerate() {
        let qi = basis.modulus(i);
        UnrolledBackend.sub_scalar(qi, limb, ctx.half_p_mod_q[i]);
        basis.ntt_table(i).forward(limb);
        let off = i * n;
        UnrolledBackend.sub_scale_shoup(qi, &src[off..off + n], limb, ctx.p_inv[i]);
    }
    out
}

/// [`mod_down_with`] against a throwaway pool (cold paths and tests).
pub fn mod_down(poly: &RnsPoly, ctx: &ModDownContext) -> RnsPoly {
    mod_down_with(poly, ctx, &ScratchPool::new())
}

/// `PModUp` (Algorithm 5): the free lift `x ↦ P·x` from `B` to `B ∪ B'`.
///
/// Multiplies each existing limb by `[P]_{q_i}` and appends zero limbs for
/// `B'` (since `P·x ≡ 0 mod p_j`). Unlike `ModUp` this needs **no NTTs and
/// no slot-wise pass** — the paper's key observation enabling linear
/// functions in the raised basis. Works in either representation.
///
/// `raised_basis` must be `B ∪ B'` in order (typically the scheme context's
/// cached raised basis); output storage comes from `pool`.
pub fn pmod_up_with(poly: &RnsPoly, raised_basis: Arc<RnsBasis>, pool: &ScratchPool) -> RnsPoly {
    let basis = poly.basis();
    let l = basis.len();
    let n = poly.degree();
    assert!(
        raised_basis.len() > l,
        "raised basis must extend the polynomial's basis"
    );
    debug_assert!(
        starts_with(&raised_basis, basis),
        "raised basis must start with the polynomial's basis"
    );
    telemetry::record_ops((l * n) as u64, 0);
    poly.trace_touch(false);
    let mut out = RnsPoly {
        rep: poly.representation(),
        data: pool.take_vec(raised_basis.len() * n),
        basis: raised_basis,
        tag: telemetry::OperandTag::scratch(),
    };
    out.trace_touch(true);
    let src = poly.flat();
    // The appended B' limbs are zero; the B limbs are scaled by [P]_{q_i}.
    let (lifted, appended) = out.data.split_at_mut(l * n);
    appended.fill(0);
    let p_mod_q = out.basis.tail_products(l);
    for (i, limb) in lifted.chunks_exact_mut(n).enumerate() {
        let qi = basis.modulus(i);
        let off = i * n;
        limb.copy_from_slice(&src[off..off + n]);
        UnrolledBackend.scale_shoup(qi, limb, p_mod_q[i]);
    }
    out
}

/// `PModUp` folded into an accumulate: `acc += P·x` for `acc` over
/// `B ∪ B'` and `x` over `B`, without the lifted polynomial ever existing.
/// `P·x` vanishes on the `B'` limbs, so only the `B` limbs of `acc` change:
/// limb `i` of `x` is scaled by `[P]_{q_i}` where it lies and added while
/// still cache-hot. `x` is consumed and its storage returned to `pool`.
///
/// # Panics
///
/// Panics if the representations differ or `acc` is not longer than `x`.
pub fn pmod_up_add_assign(acc: &mut RnsPoly, mut x: RnsPoly, pool: &ScratchPool) {
    assert_eq!(acc.rep, x.rep, "representation mismatch");
    let l = x.limb_count();
    let n = x.degree();
    assert!(
        acc.limb_count() > l,
        "raised basis must extend the polynomial's basis"
    );
    debug_assert!(
        starts_with(&acc.basis, &x.basis),
        "raised basis must start with the polynomial's basis"
    );
    telemetry::record_ops((l * n) as u64, (l * n) as u64);
    x.trace_touch(false);
    acc.trace_touch_limbs(false, 0, l);
    acc.trace_touch_limbs(true, 0, l);
    let basis = &acc.basis;
    let p_mod_q = basis.tail_products(l);
    let limbs = acc.data[..l * n]
        .chunks_exact_mut(n)
        .zip(x.data.chunks_exact_mut(n));
    for (i, (sum, lifted)) in limbs.enumerate() {
        let qi = basis.modulus(i);
        UnrolledBackend.scale_shoup(qi, lifted, p_mod_q[i]);
        UnrolledBackend.pointwise_add(qi, sum, lifted);
    }
    x.recycle(pool);
}

/// [`pmod_up_with`] building the joined basis on the fly (cold paths and
/// tests).
pub fn pmod_up(poly: &RnsPoly, p_basis: &RnsBasis) -> RnsPoly {
    let joined = Arc::new(poly.basis().concat(p_basis));
    pmod_up_with(poly, joined, &ScratchPool::new())
}

/// `ModUp` (Algorithm 1): extends `x` from `B` to `B ∪ B'`, preserving the
/// representative `x ∈ [0, Q)` exactly (the extender's float correction
/// removes the fast-conversion excess).
///
/// Input/output in evaluation representation: iNTT all source limbs
/// (limb-wise), `NewLimb` into `B'` (slot-wise), NTT the new limbs
/// (limb-wise). The source limbs are passed through untouched (line 4 of
/// the algorithm: no NTT needed on input limbs).
///
/// `raised_basis` must be `B ∪ B'` in order; scratch and output storage
/// come from `pool`.
///
/// # Panics
///
/// Panics if `poly` is not in evaluation representation.
pub fn mod_up_with(
    poly: &RnsPoly,
    raised_basis: Arc<RnsBasis>,
    extender: &BasisExtender,
    pool: &ScratchPool,
) -> RnsPoly {
    assert_eq!(
        poly.representation(),
        Representation::Evaluation,
        "mod_up expects evaluation representation"
    );
    let l = poly.limb_count();
    let n = poly.degree();
    let basis = poly.basis();
    assert_eq!(extender.source_len(), l);
    assert_eq!(extender.target_len(), raised_basis.len() - l);

    // Transforms and the NewLimb conversion are recorded by their own
    // hooks; the two pass-through copies are pure limb traffic.
    poly.trace_touch(false);

    let mut coeff = pool.take(l * n);
    coeff.copy_from_slice(poly.flat());
    for (i, limb) in coeff.chunks_exact_mut(n).enumerate() {
        basis.ntt_table(i).inverse(limb);
    }

    let mut out = RnsPoly {
        rep: Representation::Evaluation,
        data: pool.take_vec(raised_basis.len() * n),
        basis: raised_basis,
        tag: telemetry::OperandTag::scratch(),
    };
    out.trace_touch(true);
    out.data[..l * n].copy_from_slice(poly.flat());
    let (_, new_limbs) = out.data.split_at_mut(l * n);
    extender.extend_flat(&coeff, new_limbs, n);
    for (j, limb) in new_limbs.chunks_exact_mut(n).enumerate() {
        out.basis.ntt_table(l + j).forward(limb);
    }
    out
}

/// [`mod_up_with`] building the joined basis on the fly (cold paths and
/// tests).
pub fn mod_up(poly: &RnsPoly, p_basis: &RnsBasis, extender: &BasisExtender) -> RnsPoly {
    let joined = Arc::new(poly.basis().concat(p_basis));
    mod_up_with(poly, joined, extender, &ScratchPool::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{generate_ntt_primes, generate_ntt_primes_excluding};

    const N: usize = 32;

    fn q_basis(limbs: usize) -> Arc<RnsBasis> {
        Arc::new(RnsBasis::new(&generate_ntt_primes(limbs, 30, N), N).unwrap())
    }

    fn p_basis_for(q: &RnsBasis, limbs: usize) -> RnsBasis {
        let q_primes: Vec<u64> = q.moduli().iter().map(|m| m.value()).collect();
        RnsBasis::new(&generate_ntt_primes_excluding(limbs, 31, N, &q_primes), N).unwrap()
    }

    #[test]
    fn signed_roundtrip_through_crt() {
        let basis = q_basis(3);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i * 1000 - 16000).collect();
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        for k in 0..N {
            assert_eq!(poly.coeff_centered(k).to_f64(), coeffs[k] as f64);
        }
    }

    #[test]
    fn rep_switch_roundtrip() {
        let basis = q_basis(2);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i - 7).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        let orig = poly.clone();
        poly.to_eval();
        assert_eq!(poly.representation(), Representation::Evaluation);
        poly.to_coeff();
        for i in 0..poly.limb_count() {
            assert_eq!(poly.limb(i), orig.limb(i));
        }
    }

    #[test]
    fn flat_layout_is_limb_major() {
        let basis = q_basis(3);
        let coeffs: Vec<i64> = (0..N as i64).collect();
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        assert_eq!(poly.flat().len(), 3 * N);
        for (i, limb) in poly.limbs_iter().enumerate() {
            assert_eq!(limb, &poly.flat()[i * N..(i + 1) * N]);
            assert_eq!(limb, poly.limb(i));
        }
    }

    #[test]
    fn from_flat_roundtrips() {
        let basis = q_basis(2);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| 2 * i + 1).collect();
        let poly = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
        let data = poly.clone().into_flat();
        let back = RnsPoly::from_flat(basis, data, Representation::Coefficient);
        for i in 0..2 {
            assert_eq!(back.limb(i), poly.limb(i));
        }
    }

    #[test]
    #[should_panic(expected = "flat buffer length mismatch")]
    fn from_flat_rejects_bad_length() {
        let basis = q_basis(2);
        let _ = RnsPoly::from_flat(basis, vec![0u64; N], Representation::Coefficient);
    }

    #[test]
    fn pooled_polys_recycle_storage() {
        let pool = ScratchPool::new();
        let basis = q_basis(2);
        let p = RnsPoly::zero_pooled(basis.clone(), Representation::Coefficient, &pool);
        p.recycle(&pool);
        let q = RnsPoly::zero_pooled(basis, Representation::Coefficient, &pool);
        assert_eq!(pool.stats().misses, 1, "second poly reuses the buffer");
        drop(q);
    }

    #[test]
    fn zero_pooled_and_pmod_up_produce_zeros_from_a_dirty_pool() {
        let pool = ScratchPool::new();
        let q = q_basis(2);
        let p = p_basis_for(&q, 2);
        let raised = Arc::new(q.concat(&p));
        let dirty = |pool: &ScratchPool| {
            let mut buf = pool.take_vec(4 * N);
            buf.fill(u64::MAX);
            pool.recycle_vec(buf);
        };

        dirty(&pool);
        let leased = RnsPoly::leased(q.clone(), Representation::Coefficient, &pool);
        assert!(leased.flat().iter().all(|&x| x == u64::MAX), "lease is raw");
        leased.recycle(&pool);

        dirty(&pool);
        let zero = RnsPoly::zero_pooled(q.clone(), Representation::Coefficient, &pool);
        assert_eq!(zero.flat(), &[0u64; 2 * N][..]);
        zero.recycle(&pool);

        dirty(&pool);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i - 10).collect();
        let poly = RnsPoly::from_signed_coeffs(q, &coeffs);
        let lifted = pmod_up_with(&poly, raised, &pool);
        assert_eq!(&lifted.flat()[2 * N..], &[0u64; 2 * N][..]);
        assert_eq!(lifted.flat(), pmod_up(&poly, &p).flat());
        assert_eq!(
            pool.stats().misses,
            1,
            "every lease reused the dirty buffer"
        );
    }

    #[test]
    fn per_basis_constants_match_their_definitions_and_survive_prefixing() {
        let basis = q_basis(4);
        // Rescale twice: the second call runs on the first one's freshly
        // built prefix basis and must find (not recompute differently) the
        // row for its own last limb.
        let coeffs: Vec<i64> = (0..N as i64).map(|i| 1000 * i - 7).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
        poly.to_eval();
        let once = rescale(&poly);
        let twice = rescale(&once);
        for (b, l) in [
            (poly.basis(), 4usize),
            (once.basis(), 3),
            (twice.basis(), 2),
        ] {
            let q_last = b.modulus(l - 1).value();
            for (i, inv) in b.drop_last_inverses().iter().enumerate() {
                let qi = b.modulus(i);
                assert_eq!(qi.mul(inv.value, qi.reduce(q_last)), 1, "l={l} i={i}");
                assert_eq!(inv.shoup, qi.shoup(inv.value));
            }
        }
        for split in 1..4 {
            for (i, p) in basis.tail_products(split).iter().enumerate() {
                let qi = basis.modulus(i);
                let want = (split..4).fold(1u64, |acc, j| {
                    qi.mul(acc, qi.reduce(basis.modulus(j).value()))
                });
                assert_eq!((p.value, p.shoup), (want, qi.shoup(want)));
            }
        }
    }

    #[test]
    fn arithmetic_matches_integer_semantics() {
        let basis = q_basis(2);
        let a: Vec<i64> = (0..N as i64).map(|i| 3 * i + 1).collect();
        let b: Vec<i64> = (0..N as i64).map(|i| -2 * i + 5).collect();
        let mut pa = RnsPoly::from_signed_coeffs(basis.clone(), &a);
        let pb = RnsPoly::from_signed_coeffs(basis, &b);
        pa.add_assign(&pb);
        for k in 0..N {
            assert_eq!(pa.coeff_centered(k).to_f64(), (a[k] + b[k]) as f64);
        }
        pa.sub_assign(&pb);
        pa.negate();
        for k in 0..N {
            assert_eq!(pa.coeff_centered(k).to_f64(), -a[k] as f64);
        }
    }

    #[test]
    fn pointwise_mul_is_negacyclic_convolution() {
        let basis = q_basis(2);
        // a = x^{N-1}, b = x² → product = -x.
        let mut ac = vec![0i64; N];
        ac[N - 1] = 1;
        let mut bc = vec![0i64; N];
        bc[2] = 1;
        let mut a = RnsPoly::from_signed_coeffs(basis.clone(), &ac);
        let mut b = RnsPoly::from_signed_coeffs(basis, &bc);
        a.to_eval();
        b.to_eval();
        a.mul_assign_pointwise(&b);
        a.to_coeff();
        for k in 0..N {
            let expect = if k == 1 { -1.0 } else { 0.0 };
            assert_eq!(a.coeff_centered(k).to_f64(), expect, "k={k}");
        }
    }

    #[test]
    fn mul_pointwise_into_matches_assign() {
        let basis = q_basis(2);
        let ac: Vec<i64> = (0..N as i64).map(|i| i - 9).collect();
        let bc: Vec<i64> = (0..N as i64).map(|i| 2 * i + 3).collect();
        let mut a = RnsPoly::from_signed_coeffs(basis.clone(), &ac);
        let mut b = RnsPoly::from_signed_coeffs(basis.clone(), &bc);
        a.to_eval();
        b.to_eval();
        let mut out = RnsPoly::zero(basis, Representation::Evaluation);
        a.mul_pointwise_into(&b, &mut out);
        a.mul_assign_pointwise(&b);
        assert_eq!(a.flat(), out.flat());
    }

    #[test]
    fn prefix_products_and_fused_accumulate_match_the_separate_passes() {
        let deep = q_basis(3);
        let shallow = Arc::new(deep.prefix(2));
        let ac: Vec<i64> = (0..N as i64).map(|i| 5 * i - 17).collect();
        let bc: Vec<i64> = (0..N as i64).map(|i| 40 - 3 * i).collect();
        let mut a = RnsPoly::from_signed_coeffs(deep, &ac);
        let mut b = RnsPoly::from_signed_coeffs(shallow.clone(), &bc);
        a.to_eval();
        b.to_eval();
        // The deeper operand is read through its prefix.
        let mut want = a.drop_to(2);
        want.mul_assign_pointwise(&b);
        let mut out = RnsPoly::zero(shallow, Representation::Evaluation);
        a.mul_pointwise_into(&b, &mut out);
        assert_eq!(out.flat(), want.flat());
        // acc += a ⊙ b equals the product added in a second pass.
        let mut acc = b.clone();
        acc.mul_add_assign_pointwise(&a, &b);
        want.add_assign(&b);
        assert_eq!(acc.flat(), want.flat());
    }

    #[test]
    fn add_into_and_sub_into_match_the_assign_forms_through_a_prefix() {
        let deep = q_basis(3);
        let shallow = Arc::new(deep.prefix(2));
        let ac: Vec<i64> = (0..N as i64).map(|i| 5 * i - 17).collect();
        let bc: Vec<i64> = (0..N as i64).map(|i| 40 - 3 * i).collect();
        let mut a = RnsPoly::from_signed_coeffs(deep, &ac);
        let mut b = RnsPoly::from_signed_coeffs(shallow.clone(), &bc);
        a.to_eval();
        b.to_eval();
        let mut out = RnsPoly::zero(shallow, Representation::Coefficient);
        for (into, assign) in [
            (
                RnsPoly::add_into as fn(&RnsPoly, &RnsPoly, &mut RnsPoly),
                RnsPoly::add_assign as fn(&mut RnsPoly, &RnsPoly),
            ),
            (RnsPoly::sub_into, RnsPoly::sub_assign),
        ] {
            // The deeper operand is read through its prefix, on either side.
            let mut want = a.drop_to(2);
            assign(&mut want, &b);
            into(&a, &b, &mut out);
            assert_eq!(out.flat(), want.flat());
            assert_eq!(out.representation(), Representation::Evaluation);
            let mut want = b.clone();
            assign(&mut want, &a.drop_to(2));
            into(&b, &a, &mut out);
            assert_eq!(out.flat(), want.flat());
        }
    }

    #[test]
    fn pmod_up_add_assign_matches_lift_then_add() {
        let pool = ScratchPool::new();
        let q = q_basis(2);
        let p = p_basis_for(&q, 2);
        let raised = Arc::new(q.concat(&p));
        let xc: Vec<i64> = (0..N as i64).map(|i| 9 * i - 100).collect();
        let x = RnsPoly::from_signed_coeffs(q, &xc);
        let base: Vec<i64> = (0..N as i64).map(|i| 1_000_003 * i + 7).collect();
        let mut acc = RnsPoly::from_signed_coeffs(raised.clone(), &base);
        let mut want = acc.clone();
        want.add_assign(&pmod_up_with(&x, raised, &pool));
        pmod_up_add_assign(&mut acc, x, &pool);
        assert_eq!(acc.flat(), want.flat());
    }

    #[test]
    fn scalar_multiplication() {
        let basis = q_basis(3);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i + 1).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        poly.mul_scalar_assign(7);
        for k in 0..N {
            assert_eq!(poly.coeff_centered(k).to_f64(), (7 * coeffs[k]) as f64);
        }
    }

    #[test]
    fn rescale_divides_by_last_modulus() {
        let basis = q_basis(3);
        let q_last = basis.modulus(2).value();
        // Pick coefficients that are exact multiples of q_last so the
        // division is exact.
        let coeffs: Vec<i64> = (0..N as i64).map(|i| (i - 4) * q_last as i64).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        poly.to_eval();
        let mut scaled = rescale(&poly);
        assert_eq!(scaled.limb_count(), 2);
        scaled.to_coeff();
        for k in 0..N {
            assert_eq!(
                scaled.coeff_centered(k).to_f64(),
                (k as i64 - 4) as f64,
                "k={k}"
            );
        }
    }

    #[test]
    fn rescale_rounding_error_is_small() {
        let basis = q_basis(3);
        let q_last = basis.modulus(2).value() as i64;
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i * q_last + (i % 17) - 8).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        poly.to_eval();
        let mut scaled = rescale(&poly);
        scaled.to_coeff();
        for k in 0..N {
            let expect = k as f64; // remainder (±8) / q_last rounds to 0 or ±1
            let got = scaled.coeff_centered(k).to_f64();
            assert!((got - expect).abs() <= 1.0, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn pmod_up_scales_by_p_exactly() {
        let q = q_basis(2);
        let p = p_basis_for(&q, 2);
        let p_product: f64 = p.moduli().iter().map(|m| m.value() as f64).product();
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i - 10).collect();
        let poly = RnsPoly::from_signed_coeffs(q, &coeffs);
        let lifted = pmod_up(&poly, &p);
        assert_eq!(lifted.limb_count(), 4);
        for k in 0..N {
            let got = lifted.coeff_centered(k).to_f64();
            let expect = coeffs[k] as f64 * p_product;
            let rel = if expect == 0.0 {
                got.abs()
            } else {
                ((got - expect) / expect).abs()
            };
            assert!(rel < 1e-9, "k={k}: {got} vs {expect}");
        }
    }

    #[test]
    fn mod_down_inverts_pmod_up() {
        let q = q_basis(3);
        let p = p_basis_for(&q, 2);
        let ctx = ModDownContext::new(q.clone(), &p);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| 5 * i - 37).collect();
        let mut poly = RnsPoly::from_signed_coeffs(q, &coeffs);
        poly.to_eval();
        let mut lifted = pmod_up(&poly, &p);
        lifted.to_eval(); // already eval; no-op (pmod_up preserves rep)
        let mut lowered = mod_down(&lifted, &ctx);
        lowered.to_coeff();
        for k in 0..N {
            let got = lowered.coeff_centered(k).to_f64();
            assert!(
                (got - coeffs[k] as f64).abs() <= 1.0,
                "k={k}: {got} vs {}",
                coeffs[k]
            );
        }
    }

    #[test]
    fn mod_up_preserves_value_mod_new_primes() {
        let q = q_basis(2);
        let p = p_basis_for(&q, 2);
        let ext = BasisExtender::new(&q, &p);
        // Small positive coefficients: no conversion excess, exact match.
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i + 1).collect();
        let mut poly = RnsPoly::from_signed_coeffs(q.clone(), &coeffs);
        poly.to_eval();
        let mut up = mod_up(&poly, &p, &ext);
        assert_eq!(up.limb_count(), 4);
        up.to_coeff();
        for j in 0..p.len() {
            let pj = p.modulus(j);
            for k in 0..N {
                assert_eq!(
                    up.limb(2 + j)[k],
                    pj.from_i64(coeffs[k]),
                    "limb {j} coeff {k}"
                );
            }
        }
    }

    #[test]
    fn automorphism_on_rns_poly_matches_signed_semantics() {
        let basis = q_basis(2);
        let table = basis.ntt_table(0).clone();
        let auto = Automorphism::new(5, &table);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| i - 3).collect();
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        let out = poly.automorphism(&auto);
        // x^1 maps to x^5 (sign positive since 5 < N).
        assert_eq!(out.coeff_centered(5).to_f64(), coeffs[1] as f64);
    }

    #[test]
    fn drop_to_restricts_basis() {
        let basis = q_basis(3);
        let coeffs: Vec<i64> = (0..N as i64).collect();
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        let dropped = poly.drop_to(2);
        assert_eq!(dropped.limb_count(), 2);
        assert_eq!(dropped.limb(0), poly.limb(0));
    }

    #[test]
    fn truncate_limbs_matches_drop_to() {
        let basis = q_basis(3);
        let coeffs: Vec<i64> = (0..N as i64).map(|i| 3 * i - 11).collect();
        let mut poly = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
        let dropped = poly.drop_to(2);
        poly.truncate_limbs(2, Arc::new(basis.prefix(2)));
        assert_eq!(poly.flat(), dropped.flat());
        assert_eq!(poly.limb_count(), 2);
    }

    #[test]
    #[should_panic(expected = "pointwise product requires evaluation")]
    fn pointwise_mul_rejects_coeff_rep() {
        let basis = q_basis(2);
        let coeffs = vec![1i64; N];
        let mut a = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
        let b = RnsPoly::from_signed_coeffs(basis, &coeffs);
        a.mul_assign_pointwise(&b);
    }

    #[test]
    fn inf_norm_of_constant() {
        let basis = q_basis(2);
        let mut coeffs = vec![0i64; N];
        coeffs[0] = -12345;
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        assert_eq!(poly.inf_norm(), 12345.0);
    }
}
