//! Cross-validation of the SimFHE cost model against the functional
//! library: the number of whole-limb NTT/iNTT transforms the model
//! charges for `ModUp`, `ModDown`, `Rescale`, `KeySwitch`, `Mult` and the
//! BSGS `PtMatVecMult` must equal the number the real implementation
//! executes (counted by `fhe_math::ntt::counters`) — and a transform that
//! has been applied before must encode nothing.
//!
//! This binary runs in its own process (Cargo integration test), so the
//! process-global counters see only this file's work; the tests
//! themselves run serially via a mutex.

use mad::math::cfft::Complex;
use mad::math::ntt::counters;
use mad::math::poly::rescale as poly_rescale;
use mad::scheme::hoisting::{apply_bsgs, LinearTransform};
use mad::scheme::keyswitch::{decompose_and_raise, keyswitch};
use mad::scheme::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use mad::sim::matvec::BsgsSchedule;
use mad::sim::{Cost, CostModel, MadConfig, SchemeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("serial lock")
}

// L = 5, dnum = 3 makes the simulator's α = ⌈(L+1)/dnum⌉ and the
// functional library's α = ⌈L/dnum⌉ coincide (both 2), so the
// transform-count formulas are directly comparable.
const LEVELS: usize = 5;
const DNUM: usize = 3;

fn ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(LEVELS)
            .scale_bits(30)
            .first_modulus_bits(36)
            .special_modulus_bits(32)
            .dnum(DNUM)
            .build()
            .unwrap(),
    )
}

fn sim_model() -> CostModel {
    CostModel::new(
        SchemeParams {
            log_n: 6,
            log_q: 30,
            limbs: LEVELS,
            dnum: DNUM,
            fft_iter: 1,
        },
        MadConfig::baseline(),
    )
}

/// The whole-limb transforms a modeled cost carries.
fn transforms(c: Cost) -> (u64, u64) {
    (c.ntt_fwd, c.ntt_inv)
}

/// Builds a fresh ciphertext at `ell` limbs with everything precomputed,
/// returning (context, ciphertext, keygen artifacts) without counting the
/// setup's NTTs.
fn fresh_ciphertext(
    ell: usize,
) -> (
    Arc<CkksContext>,
    mad::scheme::Ciphertext,
    mad::scheme::RelinKey,
) {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(9001);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let values: Vec<mad::math::cfft::Complex> = (0..encoder.slots())
        .map(|i| mad::math::cfft::Complex::new(0.01 * i as f64, 0.0))
        .collect();
    let pt = encoder.encode(&values, ell, ctx.params().scale()).unwrap();
    let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    (ctx, ct, rlk)
}

#[test]
fn mod_up_transform_counts_match_model() {
    let _guard = serial();
    for ell in [3usize, 4, 5] {
        let (ctx, ct, _) = fresh_ciphertext(ell);
        let model = sim_model();
        counters::reset();
        let digits = decompose_and_raise(&ctx, ct.c1());
        let fwd = counters::forward_count();
        let inv = counters::inverse_count();
        // Expected: per functional digit j, the model's ModUp with that
        // digit's actual width.
        let want: Cost = (0..digits.len())
            .map(|j| model.mod_up_digit(ell, ctx.digit_range(ell, j).len()))
            .sum();
        assert_eq!((fwd, inv), transforms(want), "ℓ = {ell}");
    }
}

#[test]
fn full_keyswitch_transform_counts_match_model() {
    let _guard = serial();
    for ell in [2usize, 4, 5] {
        let (ctx, ct, rlk) = fresh_ciphertext(ell);
        let model = sim_model();
        counters::reset();
        let _ = keyswitch(&ctx, ct.c1(), rlk.switching_key());
        let measured = (counters::forward_count(), counters::inverse_count());
        // β digit ModUps and two ModDowns dropping the k special limbs each.
        assert_eq!(measured, transforms(model.keyswitch(ell)), "ℓ = {ell}");
    }
}

#[test]
fn mult_transform_counts_match_model() {
    // The ModDown-merged sequence: the ModUp of d2, then one ModDown per
    // component over {q_last} ∪ P — at ℓ = 4 the model's β counts a third,
    // empty digit, which must raise nothing.
    let _guard = serial();
    for ell in [2usize, 3, 4, 5] {
        let (ctx, ct, rlk) = fresh_ciphertext(ell);
        let evaluator = Evaluator::new(ctx);
        counters::reset();
        let _ = evaluator.mul(&ct, &ct, &rlk);
        let measured = (counters::forward_count(), counters::inverse_count());
        let modeled = transforms(sim_model().mult_merged(ell));
        assert_eq!(measured, modeled, "ℓ = {ell}");
    }
}

/// Forward and inverse limb transforms `f` performs.
fn transforms_of(f: impl FnOnce()) -> (u64, u64) {
    counters::reset();
    f();
    (counters::forward_count(), counters::inverse_count())
}

#[test]
fn a_transform_applied_again_encodes_nothing_and_costs_what_the_model_says() {
    let _guard = serial();
    let model = sim_model();
    let setup = |ell: usize| {
        let (ctx, ct, _) = fresh_ciphertext(ell);
        let mut rng = StdRng::seed_from_u64(77);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let all_steps: Vec<i64> = (1..32).collect();
        let gk = keygen.galois_keys(&mut rng, &sk, &all_steps, false);
        (
            Evaluator::new(ctx.clone()),
            Encoder::new(ctx.clone()),
            ct,
            gk,
        )
    };
    let transform = |offsets: &[usize]| {
        let diagonals = offsets
            .iter()
            .map(|&d| (d, vec![Complex::new(0.1 + 0.01 * d as f64, -0.05); 32]));
        LinearTransform::from_diagonals(diagonals.collect(), 32)
    };
    let k = sim_model().params.special_limbs() as u64;

    // Contiguous, sparse, unrotated-only and lone-giant sets at every baby
    // dimension: the second application performs exactly the modeled
    // schedule, the first that plus one raised encode per diagonal.
    let sets: [&[usize]; 6] = [
        &[0, 1, 2, 3, 4, 5, 6, 7],
        &[0, 5],
        &[3, 4, 9, 14],
        &[0],
        &[0, 4, 8],
        &[6],
    ];
    let (evaluator, encoder, ct, gk) = setup(LEVELS);
    for offsets in sets {
        for n1 in [1usize, 2, 4, 8] {
            let lt = transform(offsets);
            let schedule = BsgsSchedule::of(offsets, n1);
            let modeled = transforms(model.matvec_bsgs_double_hoisted(LEVELS, &schedule));
            let encodes = offsets.len() as u64 * (LEVELS as u64 + k);
            let apply = || drop(apply_bsgs(&evaluator, &encoder, &ct, &lt, &gk, n1));
            let what = format!("{offsets:?} at n1 = {n1}");
            assert_eq!(
                transforms_of(apply),
                (modeled.0 + encodes, modeled.1),
                "{what}, cold"
            );
            assert_eq!(transforms_of(apply), modeled, "{what}, warm");
            assert_eq!(transforms_of(apply), modeled, "{what}, warm again");
        }
    }

    // One encoding per (context, level, baby dimension): another of any of
    // them pays once, and coming back to one already applied at is free.
    let lt = transform(&[0, 1, 2, 3, 4, 5]);
    let price = |ell: usize, n1: usize, warm: bool| {
        let schedule = BsgsSchedule::of(&lt.offsets(), n1);
        let (f, i) = transforms(model.matvec_bsgs_double_hoisted(ell, &schedule));
        (f + if warm { 0 } else { 6 * (ell as u64 + k) }, i)
    };
    let lower = evaluator.drop_to(&ct, LEVELS - 1);
    let (evaluator2, encoder2, ct2, gk2) = setup(LEVELS);
    let at_top = |n1| transforms_of(|| drop(apply_bsgs(&evaluator, &encoder, &ct, &lt, &gk, n1)));
    assert_eq!(at_top(4), price(LEVELS, 4, false));
    assert_eq!(at_top(4), price(LEVELS, 4, true));
    let at_lower = transforms_of(|| drop(apply_bsgs(&evaluator, &encoder, &lower, &lt, &gk, 4)));
    assert_eq!(at_lower, price(LEVELS - 1, 4, false), "another level");
    assert_eq!(at_top(4), price(LEVELS, 4, true), "the first level again");
    let at_lower = transforms_of(|| drop(apply_bsgs(&evaluator, &encoder, &lower, &lt, &gk, 4)));
    assert_eq!(
        at_lower,
        price(LEVELS - 1, 4, true),
        "the second level again"
    );
    assert_eq!(at_top(2), price(LEVELS, 2, false), "another baby dimension");
    assert_eq!(at_top(2), price(LEVELS, 2, true));
    assert_eq!(
        at_top(4),
        price(LEVELS, 4, true),
        "the first dimension again"
    );
    let elsewhere = || drop(apply_bsgs(&evaluator2, &encoder2, &ct2, &lt, &gk2, 2));
    assert_eq!(
        transforms_of(elsewhere),
        price(LEVELS, 2, false),
        "another context"
    );
    assert_eq!(transforms_of(elsewhere), price(LEVELS, 2, true));
    assert_eq!(at_top(2), price(LEVELS, 2, true), "the first context again");

    // A clone starts with nothing encoded and shares nothing afterwards.
    let copy = lt.clone();
    let on_copy = || drop(apply_bsgs(&evaluator, &encoder, &ct, &copy, &gk, 2));
    assert_eq!(transforms_of(on_copy), price(LEVELS, 2, false), "a clone");
    assert_eq!(transforms_of(on_copy), price(LEVELS, 2, true));
    assert_eq!(
        at_top(2),
        price(LEVELS, 2, true),
        "the original, still warm"
    );
}

#[test]
fn rescale_transform_counts_match_model() {
    let _guard = serial();
    let ell = 5;
    let (_ctx, ct, _) = fresh_ciphertext(ell);
    let model = sim_model();
    counters::reset();
    let _ = poly_rescale(ct.c0());
    let _ = poly_rescale(ct.c1());
    let measured = (counters::forward_count(), counters::inverse_count());
    assert_eq!(measured, transforms(model.rescale(ell)));
}

#[test]
fn counters_reset_cleanly() {
    use mad::math::telemetry;
    let _guard = serial();
    // `counters` and the telemetry snapshot are two views of one pair of
    // atomics: a key switch moves both alike, a reset zeroes both.
    let (ctx, ct, rlk) = fresh_ciphertext(LEVELS);
    let _ = keyswitch(&ctx, ct.c1(), rlk.switching_key());
    let snap = telemetry::snapshot();
    assert!(snap.ntt_fwd > 0 && snap.ntt_inv > 0);
    assert_eq!(counters::forward_count(), snap.ntt_fwd);
    assert_eq!(counters::inverse_count(), snap.ntt_inv);
    counters::reset();
    assert_eq!(counters::forward_count(), 0);
    assert_eq!(counters::inverse_count(), 0);
    assert_eq!(telemetry::snapshot().transforms(), 0);
}
