//! The homomorphic operations of Table 2: `Add`, `PtAdd`, `PtMult`, `Mult`,
//! `Rotate`, `Conjugate`, plus `Rescale` and scalar conveniences.
//!
//! `Mult` ([`Evaluator::mul`]) runs the paper's **ModDown merge**
//! (Figure 4c): the additions happen in the raised basis via `PModUp` and
//! a *single* `ModDown` drops `P` and the rescaling prime together. The
//! standard sequence (KeySwitch with its internal `ModDown`, then
//! `Rescale` — Figure 4a) is kept as [`Evaluator::mul_standard`], the
//! reference the test suite checks the merge against: both compute the
//! same function to within rounding noise.
//!
//! Operations mutate their owned intermediates in place and return
//! short-lived buffers to the context's scratch pool, so steady-state
//! evaluation recycles storage instead of allocating per call.

use crate::context::CkksContext;
use crate::hoisting::{fold_stages, rotate_fold, rotate_hoisted, switch_automorphisms};
use crate::keys::{GaloisKeys, RelinKey, SwitchingKey};
use crate::keyswitch;
use crate::plaintext::{Ciphertext, Plaintext};
use fhe_math::backend::UnrolledBackend;
use fhe_math::poly::{pmod_up_add_assign, rescale_with, Representation, RnsPoly};
use fhe_math::telemetry;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Relative scale mismatch tolerated by additions (CKKS scales drift by
/// `q_i/Δ ≈ 1` across rescaling paths; the drift is absorbed as approximate
/// arithmetic error, the standard practice in RNS-CKKS libraries).
const SCALE_TOLERANCE: f64 = 1e-4;

/// Stateless executor of homomorphic operations over a shared context.
pub struct Evaluator {
    ctx: Arc<CkksContext>,
}

impl fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Evaluator({:?})", self.ctx)
    }
}

impl Evaluator {
    /// Creates an evaluator for the context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// The bound context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// Whether two operands at scales `a` and `b` can be added: both
    /// finite and positive, and equal within the tolerance additions
    /// allow. Every addition asserts it.
    pub fn scales_agree(a: f64, b: f64) -> bool {
        let valid = |s: f64| s.is_finite() && s > 0.0;
        valid(a) && valid(b) && (a / b - 1.0).abs() < SCALE_TOLERANCE
    }

    fn check_scales(a: f64, b: f64) {
        assert!(
            Self::scales_agree(a, b),
            "scale mismatch: 2^{:.3} vs 2^{:.3}",
            a.log2(),
            b.log2()
        );
    }

    /// Aligns two ciphertexts to a common limb count by dropping limbs of
    /// the fresher one (modulus reduction; scale unchanged).
    pub fn align_levels(&self, a: &Ciphertext, b: &Ciphertext) -> (Ciphertext, Ciphertext) {
        let ell = a.limb_count().min(b.limb_count());
        (self.drop_to(a, ell), self.drop_to(b, ell))
    }

    /// Drops `ct` to `ell` limbs (no-op if already there).
    pub fn drop_to(&self, ct: &Ciphertext, ell: usize) -> Ciphertext {
        if ct.limb_count() == ell {
            ct.clone()
        } else {
            Ciphertext::new(ct.c0.drop_to(ell), ct.c1().drop_to(ell), ct.scale)
        }
    }

    /// The first `ell` limbs of `p`, copied into storage leased from the
    /// scratch pool — the buffer an elementwise op accumulates into and
    /// returns. Like a clone, the copy is not a traced kernel pass.
    fn lease_prefix(&self, p: &RnsPoly, ell: usize) -> RnsPoly {
        let basis = self.ctx.level_basis(ell).clone();
        let mut out = RnsPoly::leased(basis, p.representation(), self.ctx.scratch());
        let len = out.flat().len();
        out.flat_mut().copy_from_slice(&p.flat()[..len]);
        out
    }

    /// The operand an elementwise op only reads, at `ell` limbs: `p`
    /// itself when it is already there, otherwise a pooled prefix copy
    /// that [`Evaluator::release`] hands straight back.
    fn restricted<'p>(&self, p: &'p RnsPoly, ell: usize) -> Cow<'p, RnsPoly> {
        if p.limb_count() == ell {
            Cow::Borrowed(p)
        } else {
            Cow::Owned(self.lease_prefix(p, ell))
        }
    }

    fn release(&self, p: Cow<'_, RnsPoly>) {
        if let Cow::Owned(p) = p {
            p.recycle(self.ctx.scratch());
        }
    }

    /// `op(a_i, b_i)` per component at the operands' common level, written
    /// into pool-leased storage in one pass (the deeper operand is read
    /// through its prefix) — the shared body of [`Evaluator::add`] and
    /// [`Evaluator::sub`].
    fn combine(
        &self,
        a: &Ciphertext,
        b: &Ciphertext,
        op: impl Fn(&RnsPoly, &RnsPoly, &mut RnsPoly),
    ) -> Ciphertext {
        Self::check_scales(a.scale, b.scale);
        let ell = a.limb_count().min(b.limb_count());
        let lease = || {
            RnsPoly::leased(
                self.ctx.level_basis(ell).clone(),
                a.c0.representation(),
                self.ctx.scratch(),
            )
        };
        let (mut c0, mut c1) = (lease(), lease());
        op(&a.c0, &b.c0, &mut c0);
        op(a.c1(), b.c1(), &mut c1);
        Ciphertext::new(c0, c1, a.scale)
    }

    /// `a` at the common level of `a` and `pt` in pool-leased storage, and
    /// `pt`'s polynomial at that level — what every ciphertext × plaintext
    /// op starts from. The caller releases the plaintext side.
    fn with_plain<'p>(&self, a: &Ciphertext, pt: &'p Plaintext) -> (Ciphertext, Cow<'p, RnsPoly>) {
        let ell = a.limb_count().min(pt.limb_count());
        let out = Ciphertext::new(
            self.lease_prefix(&a.c0, ell),
            self.lease_prefix(a.c1(), ell),
            a.scale,
        );
        (out, self.restricted(&pt.poly, ell))
    }

    /// `Add`: homomorphic addition of two ciphertexts.
    ///
    /// # Panics
    ///
    /// Panics if the scales disagree beyond tolerance.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.combine(a, b, RnsPoly::add_into)
    }

    /// Homomorphic subtraction.
    ///
    /// # Panics
    ///
    /// Panics if the scales disagree beyond tolerance.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.combine(a, b, RnsPoly::sub_into)
    }

    /// Homomorphic negation.
    pub fn neg(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        out.c0.negate();
        out.c1_mut().negate();
        out
    }

    /// `PtAdd`: adds a plaintext to a ciphertext.
    ///
    /// # Panics
    ///
    /// Panics if the scales disagree beyond tolerance.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        Self::check_scales(a.scale, pt.scale);
        let (mut out, p) = self.with_plain(a, pt);
        out.c0.add_assign(&p);
        self.release(p);
        out
    }

    /// `PtMult` without the trailing rescale: multiplies by a plaintext,
    /// leaving the product at scale `scale_ct · scale_pt`.
    pub fn mul_plain_no_rescale(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let (mut out, p) = self.with_plain(a, pt);
        out.c0.mul_assign_pointwise(&p);
        out.c1_mut().mul_assign_pointwise(&p);
        self.release(p);
        out.scale *= pt.scale;
        out
    }

    /// `PtMult` (Table 2): plaintext multiplication followed by `Rescale`.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        let prod = self.mul_plain_no_rescale(a, pt);
        let out = self.rescale(&prod);
        prod.recycle(self.ctx.scratch());
        out
    }

    /// Multiplies by a real scalar at the given auxiliary scale, without
    /// rescaling (scale becomes `ct.scale · aux_scale`).
    pub fn mul_scalar_no_rescale(&self, a: &Ciphertext, c: f64, aux_scale: f64) -> Ciphertext {
        let scaled = (c * aux_scale).round() as i64;
        let factors: Vec<u64> =
            a.c0.basis()
                .moduli()
                .iter()
                .map(|m| m.from_i64(scaled))
                .collect();
        let mut out = a.clone();
        out.c0.mul_scalar_per_limb_assign(&factors);
        out.c1_mut().mul_scalar_per_limb_assign(&factors);
        out.scale *= aux_scale;
        out
    }

    /// Multiplies by a complex scalar at the given auxiliary scale, without
    /// rescaling. A constant complex slot vector `z` encodes to the
    /// polynomial `Re(z) + Im(z)·x^{N/2}`.
    pub fn mul_complex_scalar_no_rescale(
        &self,
        a: &Ciphertext,
        z: fhe_math::cfft::Complex,
        aux_scale: f64,
    ) -> Ciphertext {
        let n = self.ctx.params().degree();
        let mut coeffs = vec![0i64; n];
        coeffs[0] = (z.re * aux_scale).round() as i64;
        coeffs[n / 2] = (z.im * aux_scale).round() as i64;
        let basis = a.c0.basis().clone();
        let mut mult = RnsPoly::from_signed_coeffs(basis, &coeffs);
        mult.to_eval();
        let mut out = a.clone();
        out.c0.mul_assign_pointwise(&mult);
        out.c1_mut().mul_assign_pointwise(&mult);
        out.scale *= aux_scale;
        out
    }

    /// Adds a real scalar (same value in every slot).
    pub fn add_scalar(&self, a: &Ciphertext, c: f64) -> Ciphertext {
        let _span = telemetry::span("AddConst");
        let scaled = (c * a.scale).round() as i64;
        let basis = a.c0.basis().clone();
        // A constant slot vector encodes to the constant polynomial, whose
        // evaluation representation is the constant in every position.
        let mut out = a.clone();
        for i in 0..out.c0.limb_count() {
            let m = basis.modulus(i);
            UnrolledBackend.add_scalar(m, out.c0.limb_mut(i), m.from_i64(scaled));
        }
        telemetry::record_ops(0, (out.c0.limb_count() * self.ctx.params().degree()) as u64);
        out
    }

    /// `Rescale`: divides by the last limb prime and drops it.
    pub fn rescale(&self, a: &Ciphertext) -> Ciphertext {
        let _span = telemetry::span("Rescale");
        let pool = self.ctx.scratch();
        let q_last = a.c0.basis().modulus(a.limb_count() - 1).value() as f64;
        Ciphertext::new(
            rescale_with(&a.c0, pool),
            rescale_with(a.c1(), pool),
            a.scale / q_last,
        )
    }

    /// `Mult` without relinearization or rescale: the raw tensor
    /// `(d_0, d_1, d_2)` at the operands' common level, in pool-leased
    /// storage. The operands are read where they are — the deeper one
    /// through its prefix — and the two products of `d_1` are one
    /// multiply pass and one fused multiply-accumulate pass.
    fn tensor(&self, a: &Ciphertext, b: &Ciphertext) -> (RnsPoly, RnsPoly, RnsPoly, f64) {
        let ell = a.limb_count().min(b.limb_count());
        let lease = || {
            RnsPoly::leased(
                self.ctx.level_basis(ell).clone(),
                Representation::Evaluation,
                self.ctx.scratch(),
            )
        };
        let (mut d0, mut d1, mut d2) = (lease(), lease(), lease());
        a.c0.mul_pointwise_into(&b.c0, &mut d0);
        a.c0.mul_pointwise_into(b.c1(), &mut d1);
        d1.mul_add_assign_pointwise(a.c1(), &b.c0);
        a.c1().mul_pointwise_into(b.c1(), &mut d2);
        (d0, d1, d2, a.scale * b.scale)
    }

    /// `Mult` (Table 2) with the paper's **ModDown merge** (Figure 4c):
    /// tensor, `Decomp` + `ModUp` and the key-switch inner product on
    /// `d_2`, the linear legs added *in the raised basis* (`PModUp` is
    /// free: `v̂_i += [P]_{q_i}·d_{0,i}`), then one `ModDown` per component
    /// over `{q_{ℓ-1}} ∪ P` — `2(k+ℓ)` limb transforms after the `ModUp`
    /// where the standard sequence makes `2k + 4ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if the common level is a single limb (nothing to rescale
    /// into).
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext, rlk: &RelinKey) -> Ciphertext {
        self.mul_with_key(a, b, rlk.switching_key())
    }

    /// [`Evaluator::mul`] taking the raw `s² → s` switching key — the form
    /// a serving runtime holds after expanding a cached compressed key,
    /// where no [`RelinKey`] wrapper exists.
    pub fn mul_with_key(&self, a: &Ciphertext, b: &Ciphertext, ksk: &SwitchingKey) -> Ciphertext {
        let _span = telemetry::span("Mult");
        let pool = self.ctx.scratch();
        let (d0, d1, d2, scale) = self.tensor(a, b);
        let ell = d0.limb_count();
        assert!(ell >= 2, "multiplication needs a limb to rescale into");
        let digits = keyswitch::decompose_and_raise(&self.ctx, &d2);
        d2.recycle(pool);
        let mut raised = keyswitch::inner_product(&self.ctx, &digits, ksk);
        for d in digits {
            d.recycle(pool);
        }
        {
            let _s = telemetry::span("PModUp");
            pmod_up_add_assign(&mut raised.v, d0, pool);
            pmod_up_add_assign(&mut raised.u, d1, pool);
        }
        let (c0, c1) = keyswitch::complete_merged(&self.ctx, &raised);
        raised.recycle(pool);
        let q_last = self.ctx.q_basis().modulus(ell - 1).value() as f64;
        Ciphertext::new(c0, c1, scale / q_last)
    }

    /// `Mult` by the standard sequence (Figure 4a): tensor, relinearize
    /// with a full `KeySwitch` (its own `ModDown` pair), add, then a
    /// separate `Rescale`. Nothing runs this; it is the reference
    /// [`Evaluator::mul`] is tested against (the two agree to rounding
    /// noise) and the baseline the measured-vs-modeled ledger prices the
    /// merge against.
    pub fn mul_standard(&self, a: &Ciphertext, b: &Ciphertext, rlk: &RelinKey) -> Ciphertext {
        let _span = telemetry::span("MultStandard");
        let pool = self.ctx.scratch();
        let (mut d0, mut d1, d2, scale) = self.tensor(a, b);
        let (v, u) = keyswitch::keyswitch(&self.ctx, &d2, rlk.switching_key());
        d2.recycle(pool);
        d0.add_assign(&v);
        d1.add_assign(&u);
        v.recycle(pool);
        u.recycle(pool);
        let prod = Ciphertext::new(d0, d1, scale);
        let out = self.rescale(&prod);
        prod.recycle(pool);
        out
    }

    /// Squares a ciphertext.
    pub fn square(&self, a: &Ciphertext, rlk: &RelinKey) -> Ciphertext {
        self.mul(a, a, rlk)
    }

    /// `Rotate` (Table 2): rotates the slot vector left by `steps` — the
    /// one-step [`rotate_hoisted`], bit for bit. A multiple of the slot
    /// count is a copy and needs no key.
    ///
    /// # Panics
    ///
    /// Panics if the Galois key for this rotation was not generated.
    pub fn rotate(&self, a: &Ciphertext, steps: i64, gk: &GaloisKeys) -> Ciphertext {
        let _span = telemetry::span("Rotate");
        rotate_hoisted(self, a, &[steps], gk).remove(0)
    }

    /// Sums all `2^log_span` leading slots into every slot of the result
    /// (the rotate-and-add fold used by inner products and mean
    /// reductions), as one [`rotate_fold`] over the ladder `1, 2, 4, …`.
    /// Requires Galois keys for the steps of its [`fold_stages`].
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key is missing or `log_span` exceeds
    /// the slot count's log.
    pub fn sum_slots(&self, a: &Ciphertext, log_span: u32, gk: &GaloisKeys) -> Ciphertext {
        let slots = self.ctx.params().slots();
        assert!(
            (1usize << log_span) <= slots,
            "span 2^{log_span} exceeds {slots} slots"
        );
        let rungs: Vec<i64> = (0..log_span).map(|i| 1i64 << i).collect();
        rotate_fold(self, a, &fold_stages(&rungs), gk)
    }

    /// `Conjugate` (Table 2): complex-conjugates every slot — a rotation's
    /// key-switched automorphism, at the conjugation element.
    ///
    /// # Panics
    ///
    /// Panics if the conjugation key was not generated.
    pub fn conjugate(&self, a: &Ciphertext, gk: &GaloisKeys) -> Ciphertext {
        let k = self.ctx.conjugation_element();
        let ksk = gk.get(k).expect("missing conjugation key");
        let map = Some((self.ctx.automorphism(k), ksk));
        switch_automorphisms(&self.ctx, a, [map]).remove(0)
    }
}
