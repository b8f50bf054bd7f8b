//! Hybrid key switching (Algorithm 3 of the MAD paper).
//!
//! `KeySwitch` takes a polynomial `x ∈ R_{Q_ℓ}` and a switching key
//! `ksk_{s→s'}` and produces `(v, u)` with `v + u·s' ≈ x·s`. The pipeline —
//! `Decomp` → `ModUp` per digit → inner product with the key → `ModDown` —
//! is exposed in pieces so the hoisting optimizations (Section 3.2) can
//! reorder it:
//!
//! - [`decompose_and_raise`] runs `Decomp` + `ModUp` once; its output can be
//!   reused across many rotations (**ModUp hoisting**).
//! - [`inner_product`] produces the intermediate `⟦P·x·s⟧ ∈ R²_{PQ}`, which
//!   is additively homomorphic — linear functions may be applied *before*
//!   `ModDown` (**ModDown hoisting**, the paper's key algorithmic idea).
//! - [`complete`] performs the final two `ModDown`s; [`complete_merged`]
//!   performs them fused with the `Rescale` that follows a product
//!   (**ModDown merge**), which is how `Mult` and `apply_bsgs` finish.
//!
//! Every stage draws its working and output storage from the context's
//! [`ScratchPool`], so a warm key switch performs no per-call heap
//! allocation beyond a handful of small `Vec`s of slice headers (the digit
//! list, one column list per digit, the term and operand lists of an inner
//! product).
//! Each byte of that storage is written once: `ModUp` converts straight
//! into the limbs of the raised digit (no staging buffer, no assembly
//! copy), and the inner product folds all β digits of a slot before it
//! stores the two sums, so nothing is zero-filled or read back in between.

use crate::context::CkksContext;
use crate::keys::SwitchingKey;
use fhe_math::automorph::Automorphism;
use fhe_math::backend::{DigitTerm, UnrolledBackend};
use fhe_math::poly::{mod_down_with, Representation, RnsPoly};
use fhe_math::rns::RnsBasis;
use fhe_math::telemetry;
use fhe_math::ScratchPool;
use std::sync::Arc;

/// The intermediate `⟦P·x·s⟧ = (û, v̂) ∈ R²_{PQ}` produced by the key-switch
/// inner product (line 3 of Algorithm 3), before any `ModDown`.
///
/// `v` is the `b`-side (joins `c_0`), `u` the `a`-side (joins `c_1`).
#[derive(Clone, Debug)]
pub struct RaisedKeySwitch {
    /// `a`-side accumulator over `Q_ℓ ∪ P`.
    pub u: RnsPoly,
    /// `b`-side accumulator over `Q_ℓ ∪ P`.
    pub v: RnsPoly,
}

impl RaisedKeySwitch {
    /// Returns both accumulators' storage to `pool`.
    pub fn recycle(self, pool: &ScratchPool) {
        self.u.recycle(pool);
        self.v.recycle(pool);
    }
}

/// `Decomp` + `ModUp` (lines 1–2 of Algorithm 3): splits `x` into
/// `β = ⌈ℓ/α⌉` digits and extends each to the raised basis `Q_ℓ ∪ P`.
///
/// Each digit's own limbs pass through unchanged (still in evaluation
/// representation — line 4 of Algorithm 1); the remaining limbs are
/// generated by the slot-wise `NewLimb` conversion and NTT'd back limb by
/// limb. Digit storage comes from the context's scratch pool —
/// recycle the digits when done to keep the hot path allocation-free.
///
/// # Panics
///
/// Panics if `x` is not in evaluation representation.
pub fn decompose_and_raise(ctx: &CkksContext, x: &RnsPoly) -> Vec<RnsPoly> {
    assert_eq!(
        x.representation(),
        Representation::Evaluation,
        "key switching operates on evaluation-representation polynomials"
    );
    let _span = telemetry::span("ModUp");
    let ell = x.limb_count();
    let beta = ctx.params().beta_at(ell);
    let raised = ctx.raised_basis(ell);
    let n = x.degree();
    let pool = ctx.scratch();
    let q_basis = ctx.q_basis();
    let mut digits = Vec::with_capacity(beta);
    for j in 0..beta {
        let range = ctx.digit_range(ell, j);
        let d_len = range.len();
        let own = &x.flat()[range.start * n..range.end * n];
        // The raised digit: its own limbs pass through unchanged.
        let mut data = pool.take_vec(raised.len() * n);
        data[range.start * n..range.end * n].copy_from_slice(own);
        // iNTT a copy of the digit limbs (limb-wise).
        let mut coeff = pool.take(d_len * n);
        coeff.copy_from_slice(own);
        for (i, limb) in coeff.chunks_exact_mut(n).enumerate() {
            q_basis.ntt_table(range.start + i).inverse(limb);
        }
        // NewLimb into the complement basis (slot-wise), written where the
        // limbs live: the target order is ascending complement q-limbs then
        // the special limbs, i.e. the raised limbs before the digit's own,
        // then the ones after.
        let (before, rest) = data.split_at_mut(range.start * n);
        let after = &mut rest[d_len * n..];
        let mut cols: Vec<&mut [u64]> = before
            .chunks_exact_mut(n)
            .chain(after.chunks_exact_mut(n))
            .collect();
        ctx.digit_extender(ell, j).extend_columns(&coeff, &mut cols);
        drop(cols);
        // NTT the generated limbs in place (limb-wise).
        for (first, limbs) in [(0, before), (range.end, after)] {
            for (s, limb) in limbs.chunks_exact_mut(n).enumerate() {
                raised.ntt_table(first + s).forward(limb);
            }
        }
        let digit = RnsPoly::from_flat(raised.clone(), data, Representation::Evaluation);
        x.trace_touch_limbs(false, range.start, d_len);
        digit.trace_touch(true);
        digits.push(digit);
    }
    digits
}

/// Applies a Galois automorphism to every raised digit (a slot permutation
/// per limb), output storage drawn from `pool`. Because `σ_k` commutes with
/// `ModUp`, rotating the *digits* of a single decomposition is what makes
/// ModUp hoisting sound.
pub fn automorph_digits_with(
    digits: &[RnsPoly],
    auto: &Automorphism,
    pool: &ScratchPool,
) -> Vec<RnsPoly> {
    digits
        .iter()
        .map(|d| d.automorphism_with(auto, pool))
        .collect()
}

/// `(Σ_t d_t ⊙ a_t, Σ_t d_t ⊙ b_t)` over `basis` — the inner-product
/// kernel behind [`inner_product`] (raised digits against key halves) and
/// the mat-vec inner sums (plaintext diagonals against ciphertext legs).
///
/// `d` is read through its prefix when longer than `basis`. `a` and `b` are
/// read the same way, except that with `tail = Some((split, at))` limb
/// `m ≥ split` of the sum reads their limb `at + (m − split)`: a switching
/// key is stored over `Q_{ℓ'} ∪ P` for its own `ℓ' ≥ ℓ` (`L` for a whole
/// key), so the special limbs of a raised level basis sit at `ℓ'` rather
/// than at `ℓ`.
///
/// The accumulation runs limb by limb; within a limb every slot folds all
/// its terms into two 128-bit sums and reduces each once, so the outputs
/// are written once (no zero-fill, no read-modify-write per term) and the
/// result is the canonical residue.
pub(crate) fn pair_sum(
    basis: &Arc<RnsBasis>,
    terms: &[(&RnsPoly, &RnsPoly, &RnsPoly)],
    tail: Option<(usize, usize)>,
    pool: &ScratchPool,
) -> (RnsPoly, RnsPoly) {
    let n = basis.degree();
    let (limbs, count) = (basis.len(), terms.len());
    let (split, at) = tail.unwrap_or((limbs, limbs));
    // Per limb and term: 2n products; a sum of `count` terms is `count − 1`
    // additions per accumulator side.
    let w = (limbs * n) as u64;
    telemetry::record_ops(2 * w * count as u64, 2 * w * (count as u64 - 1));
    if telemetry::trace_active() {
        // Per term: one streamed pass over `d` and the matching pair, only
        // the limbs the sum reads.
        for (d, a, b) in terms {
            d.trace_touch_limbs(false, 0, limbs);
            for half in [a, b] {
                half.trace_touch_limbs(false, 0, split);
                if split < limbs {
                    half.trace_touch_limbs(false, at, limbs - split);
                }
            }
        }
    }
    // Limb-major operand list: limb m's terms are adjacent.
    let by_limb: Vec<DigitTerm<'_>> = (0..limbs)
        .flat_map(|m| {
            let pair_limb = if m < split { m } else { at + (m - split) };
            terms.iter().map(move |(d, a, b)| DigitTerm {
                d: d.limb(m),
                a: a.limb(pair_limb),
                b: b.limb(pair_limb),
            })
        })
        .collect();
    let mut sum_a = RnsPoly::leased(basis.clone(), Representation::Evaluation, pool);
    let mut sum_b = RnsPoly::leased(basis.clone(), Representation::Evaluation, pool);
    sum_a.trace_touch(true);
    sum_b.trace_touch(true);
    let limbs = sum_a
        .flat_mut()
        .chunks_exact_mut(n)
        .zip(sum_b.flat_mut().chunks_exact_mut(n));
    for (m, (a, b)) in limbs.enumerate() {
        let per_limb = &by_limb[m * count..(m + 1) * count];
        UnrolledBackend.inner_product_pair(basis.modulus(m), per_limb, a, b);
    }
    (sum_a, sum_b)
}

/// `KSKInnerProd` (line 3 of Algorithm 3): `(û, v̂) = ksk · x⃗` over
/// `Q_ℓ ∪ P` — one `pair_sum` of the β raised digits against the key's
/// halves, limb `m` of the raised level basis mapping to key limb `m` for
/// `m < ℓ` and `ℓ' + (m − ℓ)` for the special limbs, where `ℓ'` is the
/// key's own Q-limb count: `L` for a whole key, the level a key was
/// expanded at otherwise (`serialize::deserialize_switching_key_at`).
///
/// # Panics
///
/// Panics if more digits are supplied than the key holds, or the key was
/// expanded below `ℓ`.
pub fn inner_product(ctx: &CkksContext, digits: &[RnsPoly], ksk: &SwitchingKey) -> RaisedKeySwitch {
    assert!(
        digits.len() <= ksk.digits.len(),
        "β = {} digits exceed the key's {}",
        digits.len(),
        ksk.digits.len()
    );
    let _span = telemetry::span("KSKInnerProd");
    let raised = digits[0].basis();
    let special = ctx.p_basis().len();
    let ell = raised.len() - special;
    let key_ell = ksk.digits[0].b.limb_count() - special;
    assert!(
        ell <= key_ell,
        "a key expanded at {key_ell} limbs cannot switch at {ell}"
    );
    let terms: Vec<_> = digits
        .iter()
        .zip(&ksk.digits)
        .map(|(digit, key)| (digit, &key.a, &key.b))
        .collect();
    let tail = Some((ell, key_ell));
    let (u, v) = pair_sum(raised, &terms, tail, ctx.scratch());
    RaisedKeySwitch { u, v }
}

/// The final `ModDown` pair (line 4 of Algorithm 3), returning
/// `(c0_delta, c1_delta)` over `Q_ℓ` with
/// `c0_delta + c1_delta·s' ≈ x·s`.
pub fn complete(ctx: &CkksContext, raised: &RaisedKeySwitch) -> (RnsPoly, RnsPoly) {
    let _span = telemetry::span("ModDown");
    let ell = raised.u.limb_count() - ctx.p_basis().len();
    let md = ctx.moddown_context(ell, false);
    let pool = ctx.scratch();
    (
        mod_down_with(&raised.v, &md, pool),
        mod_down_with(&raised.u, &md, pool),
    )
}

/// The **merged** `ModDown` pair (Figure 4c): one pass per component
/// divides by `P·q_{ℓ-1}`, dropping the special basis and the rescaling
/// limb together, so whatever was added into `raised` comes back over
/// `Q_{ℓ-1}` already rescaled — `2(k+1)` inverse and `2(ℓ-1)` forward limb
/// transforms where [`complete`] and a `Rescale` make `2k + 2` and
/// `2ℓ + 2(ℓ-1)`.
///
/// # Panics
///
/// Panics at `ℓ = 1`, where there is no limb to rescale into.
pub fn complete_merged(ctx: &CkksContext, raised: &RaisedKeySwitch) -> (RnsPoly, RnsPoly) {
    let _span = telemetry::span("ModDown");
    let ell = raised.u.limb_count() - ctx.p_basis().len();
    let md = ctx.moddown_context(ell, true);
    let pool = ctx.scratch();
    (
        mod_down_with(&raised.v, &md, pool),
        mod_down_with(&raised.u, &md, pool),
    )
}

/// Full key switch: `Decomp` → `ModUp` → inner product → `ModDown`.
///
/// Returns `(c0_delta, c1_delta)`. All intermediates are recycled into the
/// context's scratch pool.
pub fn keyswitch(ctx: &CkksContext, x: &RnsPoly, ksk: &SwitchingKey) -> (RnsPoly, RnsPoly) {
    let _span = telemetry::span("KeySwitch");
    let digits = decompose_and_raise(ctx, x);
    let raised = inner_product(ctx, &digits, ksk);
    for d in digits {
        d.recycle(ctx.scratch());
    }
    let out = complete(ctx, &raised);
    raised.recycle(ctx.scratch());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::sampling::sample_uniform_flat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn ctx() -> Arc<CkksContext> {
        CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(4)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        )
    }

    fn random_poly(ctx: &CkksContext, ell: usize, seed: u64) -> RnsPoly {
        let basis = ctx.level_basis(ell).clone();
        let moduli: Vec<u64> = basis.moduli().iter().map(|m| m.value()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        RnsPoly::from_flat(
            basis,
            sample_uniform_flat(&mut rng, &moduli, ctx.params().degree()),
            Representation::Evaluation,
        )
    }

    #[test]
    fn digits_raise_to_full_basis() {
        let ctx = ctx();
        let x = random_poly(&ctx, 3, 1);
        let digits = decompose_and_raise(&ctx, &x);
        assert_eq!(digits.len(), 2); // β = ⌈3/2⌉
        for d in &digits {
            assert_eq!(d.limb_count(), 3 + 2);
        }
        // Digit limbs pass through unchanged.
        assert_eq!(digits[0].limb(0), x.limb(0));
        assert_eq!(digits[0].limb(1), x.limb(1));
        assert_eq!(digits[1].limb(2), x.limb(2));
    }

    #[test]
    fn digit_extension_is_value_consistent() {
        // Every limb of a raised digit must agree with the digit's CRT value.
        let ctx = ctx();
        let x = random_poly(&ctx, 2, 2);
        let digits = decompose_and_raise(&ctx, &x);
        assert_eq!(digits.len(), 1);
        let mut d = digits[0].clone();
        d.to_coeff();
        let mut orig = x.clone();
        orig.to_coeff();
        // The digit's value (an integer < q_0·q_1) must reduce correctly in
        // every new limb.
        let digit_basis = ctx.q_basis().prefix(2);
        for k in 0..8 {
            let residues = [orig.limb(0)[k], orig.limb(1)[k]];
            let value = digit_basis.crt_reconstruct(&residues);
            for m in 2..d.limb_count() {
                let modulus = d.basis().modulus(m);
                assert_eq!(
                    d.limb(m)[k],
                    value.rem_u64(modulus.value()),
                    "limb {m} coeff {k}"
                );
            }
        }
    }

    #[test]
    fn keyswitch_transfers_key_correctly() {
        // v + u·s must equal x·s_src up to small noise.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let sk_src = kg.secret_key(&mut rng);
        let ksk = kg.switching_key(&mut rng, &sk_src.full, &sk, [7; 32]);

        for ell in [1usize, 2, 3, 4] {
            let x = random_poly(&ctx, ell, 100 + ell as u64);
            let (v, u) = keyswitch(&ctx, &x, &ksk);
            // diff = v + u·s − x·s_src should be tiny.
            let mut lhs = u.clone();
            lhs.mul_assign_pointwise(&sk.at_level(ell));
            lhs.add_assign(&v);
            let mut rhs = x.clone();
            rhs.mul_assign_pointwise(&sk_src.at_level(ell));
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            let noise = lhs.inf_norm();
            assert!(
                noise < 2f64.powi(22),
                "level {ell}: noise 2^{:.1}",
                noise.log2()
            );
        }
    }

    #[test]
    fn warm_keyswitch_allocates_nothing_from_the_pool() {
        // After one warm-up call the pool holds every buffer shape the key
        // switch needs; subsequent calls must hit the free list every time
        // (pool misses stay constant) provided outputs are recycled.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(17);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let ksk = kg.switching_key(&mut rng, &sk.full.clone(), &sk, [7; 32]);
        let x = random_poly(&ctx, 4, 9);

        // Warm-up.
        let (v, u) = keyswitch(&ctx, &x, &ksk);
        v.recycle(ctx.scratch());
        u.recycle(ctx.scratch());
        let warm = ctx.scratch().stats();

        for _ in 0..5 {
            let (v, u) = keyswitch(&ctx, &x, &ksk);
            v.recycle(ctx.scratch());
            u.recycle(ctx.scratch());
        }
        let after = ctx.scratch().stats();
        assert_eq!(
            warm.misses, after.misses,
            "warm key switches must not allocate new pool buffers"
        );
        // Per key switch: the raised digit and its iNTT staging copy per
        // digit (β fewer than when the conversion went through an
        // `extended` temporary), the two accumulators, and the special-limb
        // copy plus the output of each of the two ModDowns.
        let beta = ctx.params().beta_at(4) as u64;
        assert_eq!(after.leases - warm.leases, 5 * (2 * beta + 2 + 4));
    }

    #[test]
    fn hoisted_digits_are_semantically_equivalent() {
        // σ(ModUp(Decomp(x))) and ModUp(Decomp(σ(x))) agree exactly on the
        // pass-through digit limbs and agree as key-switch inputs: after the
        // inner product and ModDown, both paths produce the same (v, u) up
        // to key-switch noise. (They are *not* bitwise equal on generated
        // limbs — sign-flipped coefficients pick different representatives
        // differing by multiples of the digit modulus, which is why ModUp
        // hoisting is a semantic, not syntactic, identity.)
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(40);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let sk_src = kg.secret_key(&mut rng);
        let ksk = kg.switching_key(&mut rng, &sk_src.full, &sk, [7; 32]);

        let x = random_poly(&ctx, 4, 4);
        let auto = ctx.automorphism(5);
        let hoisted = automorph_digits_with(&decompose_and_raise(&ctx, &x), &auto, ctx.scratch());
        let fresh = decompose_and_raise(&ctx, &x.automorphism(&auto));
        assert_eq!(hoisted.len(), fresh.len());
        // Pass-through limbs are bitwise equal.
        for (j, (h, f)) in hoisted.iter().zip(&fresh).enumerate() {
            for m in ctx.digit_range(4, j) {
                assert_eq!(h.limb(m), f.limb(m), "digit {j} limb {m}");
            }
        }
        // Both decrypt to the same x·s_src after the full key switch.
        let (v_h, u_h) = complete(&ctx, &inner_product(&ctx, &hoisted, &ksk));
        let (v_f, u_f) = complete(&ctx, &inner_product(&ctx, &fresh, &ksk));
        let eval_noise = |v: &RnsPoly, u: &RnsPoly| {
            let mut lhs = u.clone();
            lhs.mul_assign_pointwise(&sk.at_level(4));
            lhs.add_assign(v);
            let mut rhs = x.automorphism(&auto);
            rhs.mul_assign_pointwise(&sk_src.at_level(4));
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            lhs.inf_norm()
        };
        assert!(eval_noise(&v_h, &u_h) < 2f64.powi(22));
        assert!(eval_noise(&v_f, &u_f) < 2f64.powi(22));
    }

    #[test]
    fn moddown_hoisting_commutes_with_addition() {
        // ModDown(A + B) ≈ ModDown(A) + ModDown(B): linearity in the raised
        // basis, the foundation of ModDown hoisting.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let ksk = kg.switching_key(&mut rng, &sk.full.clone(), &sk, [7; 32]);
        let x1 = random_poly(&ctx, 3, 6);
        let x2 = random_poly(&ctx, 3, 7);
        let r1 = inner_product(&ctx, &decompose_and_raise(&ctx, &x1), &ksk);
        let r2 = inner_product(&ctx, &decompose_and_raise(&ctx, &x2), &ksk);
        // Hoisted: add in raised basis, single ModDown.
        let mut sum = r1.clone();
        sum.u.add_assign(&r2.u);
        sum.v.add_assign(&r2.v);
        let (v_h, u_h) = complete(&ctx, &sum);
        // Unhoisted: two ModDowns, then add.
        let (mut v_s, mut u_s) = complete(&ctx, &r1);
        let (v2, u2) = complete(&ctx, &r2);
        v_s.add_assign(&v2);
        u_s.add_assign(&u2);
        // Difference is only ModDown rounding: ±1 per coefficient.
        let mut dv = v_h.clone();
        dv.sub_assign(&v_s);
        dv.to_coeff();
        assert!(dv.inf_norm() <= 2.0, "v rounding diff {}", dv.inf_norm());
        let mut du = u_h.clone();
        du.sub_assign(&u_s);
        du.to_coeff();
        assert!(du.inf_norm() <= 2.0, "u rounding diff {}", du.inf_norm());
    }
}
