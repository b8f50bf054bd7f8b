//! End-to-end serial-vs-parallel bit-identity: the full scheme pipeline
//! (keygen → encrypt → multiply/relinearize → rotate → rescale, plus the
//! merged-ModDown and hoisted-rotation paths) must produce byte-for-byte
//! identical ciphertexts whether the limb-parallel kernels run on one
//! thread or many. The force flag is process-global, so a mutex serializes
//! the tests.

use ckks::hoisting::rotate_hoisted;
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::parallel::set_forced;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};

fn force_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn both_modes<T>(f: impl Fn() -> T) -> (T, T) {
    let _guard = force_lock().lock().unwrap();
    set_forced(Some(false));
    let serial = f();
    set_forced(Some(true));
    let parallel = f();
    set_forced(None);
    (serial, parallel)
}

fn ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(4)
            .scale_bits(32)
            .first_modulus_bits(40)
            .special_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
    )
}

/// Flattens a ciphertext to its raw words so equality is bit-equality.
fn words(ct: &Ciphertext) -> Vec<u64> {
    let mut out = ct.c0().flat().to_vec();
    out.extend_from_slice(ct.c1().flat());
    out
}

#[test]
fn multiply_relinearize_rotate_rescale_are_bit_identical() {
    let (serial, parallel) = both_modes(|| {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(101);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&mut rng, &sk);
        let gk = kg.galois_keys(&mut rng, &sk, &[3], false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let a: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new((i as f64 / 5.0).sin(), (i as f64 / 9.0).cos()))
            .collect();
        let b: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new((i as f64 / 7.0).cos(), -(i as f64 / 3.0).sin()))
            .collect();
        let ca = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&a, 3, scale).unwrap(), &sk);
        let cb = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&b, 3, scale).unwrap(), &sk);
        let prod = ev.mul(&ca, &cb, &rlk);
        let standard = ev.mul_standard(&ca, &cb, &rlk);
        let rot = ev.rotate(&prod, 3, &gk);
        let scaled = ev.rescale(&ev.mul_scalar_no_rescale(&rot, 0.75, scale));
        let mut all = words(&prod);
        all.extend(words(&standard));
        all.extend(words(&rot));
        all.extend(words(&scaled));
        all
    });
    assert_eq!(serial, parallel, "serial and parallel pipelines diverged");
}

#[test]
fn hoisted_rotations_are_bit_identical() {
    let (serial, parallel) = both_modes(|| {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(202);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let steps = [1i64, 2, 5];
        let gk = kg.galois_keys(&mut rng, &sk, &steps, false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let values: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new(i as f64 * 0.01, 1.0 - i as f64 * 0.02))
            .collect();
        let ct =
            encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 2, scale).unwrap(), &sk);
        let rotated = rotate_hoisted(&ev, &ct, &steps, &gk);
        rotated.iter().flat_map(words).collect::<Vec<u64>>()
    });
    assert_eq!(serial, parallel, "hoisted rotations diverged");
}
