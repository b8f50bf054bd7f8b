//! Failure injection: corrupted ciphertexts, mismatched keys, and abused
//! APIs must fail loudly (detectable garbage or a documented panic), never
//! silently return plausible-but-wrong results.

use mad::math::cfft::Complex;
use mad::scheme::noise;
use mad::scheme::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(3)
            .scale_bits(32)
            .first_modulus_bits(40)
            .dnum(3)
            .build()
            .unwrap(),
    )
}

fn setup(
    seed: u64,
) -> (
    Arc<CkksContext>,
    Encoder,
    Encryptor,
    Decryptor,
    KeyGenerator,
    StdRng,
) {
    let c = ctx();
    (
        c.clone(),
        Encoder::new(c.clone()),
        Encryptor::new(c.clone()),
        Decryptor::new(c.clone()),
        KeyGenerator::new(c),
        StdRng::seed_from_u64(seed),
    )
}

fn encrypt_ones(
    ctx: &Arc<CkksContext>,
    encoder: &Encoder,
    encryptor: &Encryptor,
    sk: &mad::scheme::SecretKey,
    rng: &mut StdRng,
) -> (Ciphertext, Vec<Complex>) {
    let values = vec![Complex::new(1.0, 0.0); encoder.slots()];
    let pt = encoder.encode(&values, 2, ctx.params().scale()).unwrap();
    (encryptor.encrypt_symmetric(rng, &pt, sk), values)
}

/// Flips one residue in one limb of `c0` — a single-bit-style DRAM fault.
fn corrupt(ct: &Ciphertext) -> Ciphertext {
    let mut c0 = ct.c0().clone();
    let q0 = c0.basis().modulus(0).value();
    let limb = c0.limb_mut(0);
    limb[7] = (limb[7] + q0 / 3) % q0;
    Ciphertext::new(c0, ct.c1().clone(), ct.scale())
}

#[test]
fn single_limb_corruption_is_loud() {
    let (ctx, encoder, encryptor, _dec, keygen, mut rng) = setup(1);
    let sk = keygen.secret_key(&mut rng);
    let (ct, values) = encrypt_ones(&ctx, &encoder, &encryptor, &sk, &mut rng);
    let healthy = noise::measure(&ct, &sk, &values, &encoder);
    let corrupted = noise::measure(&corrupt(&ct), &sk, &values, &encoder);
    // An evaluation-domain fault smears across every slot: error explodes
    // by tens of bits — unmistakable, not a subtle bias.
    assert!(healthy.log2_slot_error < -20.0);
    assert!(
        corrupted.log2_slot_error > healthy.log2_slot_error + 15.0,
        "corruption must be detectable: {} vs {}",
        corrupted.log2_slot_error,
        healthy.log2_slot_error
    );
}

#[test]
fn decrypting_with_the_wrong_key_yields_garbage() {
    let (ctx, encoder, encryptor, decryptor, keygen, mut rng) = setup(2);
    let sk = keygen.secret_key(&mut rng);
    let wrong = keygen.secret_key(&mut rng);
    let (ct, values) = encrypt_ones(&ctx, &encoder, &encryptor, &sk, &mut rng);
    let out = encoder.decode(&decryptor.decrypt(&ct, &wrong));
    // RLWE security in miniature: the wrong key decodes to noise of
    // magnitude ~q/Δ, nowhere near the message.
    let max_dev = out
        .iter()
        .zip(&values)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_dev > 10.0, "wrong key looked plausible: {max_dev}");
}

#[test]
fn relinearizing_with_a_rotation_key_yields_garbage() {
    // Using the wrong switching key is a type-level hazard the API cannot
    // prevent (both are SwitchingKeys); verify it cannot silently pass.
    let (ctx, encoder, encryptor, decryptor, keygen, mut rng) = setup(3);
    let sk = keygen.secret_key(&mut rng);
    let (ct, values) = encrypt_ones(&ctx, &encoder, &encryptor, &sk, &mut rng);
    let rotation_key = keygen.galois_key(&mut rng, &sk, ctx.rotation_element(1));
    let ev = Evaluator::new(ctx.clone());
    // Key-switch c1 with a key for σ_5(s) instead of s².
    let (v, u) = mad::scheme::keyswitch::keyswitch(&ctx, ct.c1(), &rotation_key);
    let mut c0 = ct.c0().clone();
    c0.add_assign(&v);
    let bogus = Ciphertext::new(c0, u, ct.scale());
    let out = encoder.decode(&decryptor.decrypt(&bogus, &sk));
    let max_dev = out
        .iter()
        .zip(&values)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_dev > 1.0, "wrong switching key looked plausible");
    let _ = ev;
}

#[test]
#[should_panic(expected = "limb count mismatch")]
fn mismatched_limb_counts_panic_not_corrupt() {
    let (ctx, encoder, encryptor, _dec, keygen, mut rng) = setup(4);
    let sk = keygen.secret_key(&mut rng);
    let values = vec![Complex::new(1.0, 0.0); 4];
    let scale = ctx.params().scale();
    let a = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 3, scale).unwrap(), &sk);
    let b = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 1, scale).unwrap(), &sk);
    // Bypass the Evaluator's alignment on purpose: raw polynomial add must
    // refuse rather than read out of bounds or truncate.
    let mut c0 = a.c0().clone();
    c0.add_assign(b.c0());
}

// The check is a `debug_assert!`: a release build has nothing to trip.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "unreduced")]
fn unreduced_residues_are_rejected_in_debug() {
    // from_flat validates residues in debug builds.
    let c = ctx();
    let basis = c.level_basis(1).clone();
    let bad = vec![u64::MAX; 64];
    use mad::math::poly::{Representation, RnsPoly};
    let _ = RnsPoly::from_flat(basis, bad, Representation::Coefficient);
}
