//! Cross-validation of the SimFHE cost model against the functional
//! library: the number of whole-limb NTT/iNTT transforms the model
//! charges for `ModUp`, `ModDown`, `Rescale` and `KeySwitch` must equal
//! the number the real implementation executes (counted by
//! `fhe_math::ntt::counters`).
//!
//! This binary runs in its own process (Cargo integration test), so the
//! process-global counters see only this file's work; the tests
//! themselves run serially via a mutex.

use mad::math::ntt::counters;
use mad::math::poly::rescale as poly_rescale;
use mad::scheme::keyswitch::{decompose_and_raise, keyswitch};
use mad::scheme::{CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator};
use mad::sim::{CostModel, MadConfig, SchemeParams};
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
        // Expected: per functional digit j, the model's ModUp transforms
        // with that digit's actual width.
        let (mut want_fwd, mut want_inv) = (0u64, 0u64);
        for j in 0..digits.len() {
            let width = ctx.digit_range(ell, j).len();
            let (f, i) = model.mod_up_transforms(ell, width);
            want_fwd += f;
            want_inv += i;
        }
        assert_eq!(fwd, want_fwd, "forward NTTs at ℓ = {ell}");
        assert_eq!(inv, want_inv, "inverse NTTs at ℓ = {ell}");
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
        let fwd = counters::forward_count();
        let inv = counters::inverse_count();
        let k = ctx.p_basis().len();
        let beta = ctx.params().beta_at(ell);
        let (mut want_fwd, mut want_inv) = (0u64, 0u64);
        for j in 0..beta {
            let width = ctx.digit_range(ell, j).len();
            let (f, i) = model.mod_up_transforms(ell, width);
            want_fwd += f;
            want_inv += i;
        }
        // Two ModDowns dropping the k special limbs each.
        let (f, i) = model.mod_down_transforms(ell, k);
        want_fwd += 2 * f;
        want_inv += 2 * i;
        assert_eq!(fwd, want_fwd, "forward NTTs at ℓ = {ell}");
        assert_eq!(inv, want_inv, "inverse NTTs at ℓ = {ell}");
    }
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
    let (want_fwd, want_inv) = model.rescale_transforms(ell);
    assert_eq!(counters::forward_count(), want_fwd);
    assert_eq!(counters::inverse_count(), want_inv);
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
