//! Edge cases and failure paths of the public CKKS API: documented panics
//! fire, error types render, and degenerate shapes behave.

use ckks::hoisting::LinearTransform;
use ckks::params::ParamsError;
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator};
use fhe_math::cfft::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;

fn ctx() -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(3)
            .scale_bits(30)
            .first_modulus_bits(36)
            .dnum(3)
            .build()
            .unwrap(),
    )
}

#[test]
fn error_types_render_human_messages() {
    let e = CkksParams::builder().levels(0).build().unwrap_err();
    assert_eq!(e, ParamsError::NoLevels);
    assert!(e.to_string().contains("level"));
    let e = CkksParams::builder().log_degree(40).build().unwrap_err();
    assert!(e.to_string().contains("log_degree"));

    let ctx = ctx();
    let enc = Encoder::new(ctx.clone());
    let too_many = vec![Complex::new(1.0, 0.0); enc.slots() + 1];
    let err = enc.encode(&too_many, 1, ctx.params().scale()).unwrap_err();
    assert!(err.to_string().contains("slots"));
}

#[test]
#[should_panic(expected = "scale mismatch")]
fn adding_mismatched_scales_panics() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(1);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let v = [Complex::new(1.0, 0.0)];
    let a = encryptor.encrypt_symmetric(
        &mut rng,
        &enc.encode(&v, 2, ctx.params().scale()).unwrap(),
        &sk,
    );
    let b = encryptor.encrypt_symmetric(
        &mut rng,
        &enc.encode(&v, 2, ctx.params().scale() * 4.0).unwrap(),
        &sk,
    );
    let _ = ev.add(&a, &b);
}

#[test]
#[should_panic(expected = "missing Galois key")]
fn rotating_without_a_key_panics() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(2);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let ct = encryptor.encrypt_symmetric(
        &mut rng,
        &enc.encode(&[Complex::new(1.0, 0.0)], 1, ctx.params().scale())
            .unwrap(),
        &sk,
    );
    let _ = ev.rotate(&ct, 3, &GaloisKeys::default());
}

#[test]
#[should_panic(expected = "needs a limb to rescale into")]
fn mult_at_one_limb_panics() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let ct = encryptor.encrypt_symmetric(
        &mut rng,
        &enc.encode(&[Complex::new(0.5, 0.0)], 1, ctx.params().scale())
            .unwrap(),
        &sk,
    );
    let _ = ev.mul(&ct, &ct, &rlk);
}

#[test]
fn linear_transform_from_diagonals_validates() {
    let n = 8;
    let mut diagonals = BTreeMap::new();
    diagonals.insert(0usize, vec![Complex::new(1.0, 0.0); n]);
    diagonals.insert(3usize, vec![Complex::new(0.5, 0.0); n]);
    let lt = LinearTransform::from_diagonals(diagonals, n);
    assert_eq!(lt.diagonal_count(), 2);
    assert_eq!(lt.offsets(), vec![0, 3]);
    // Identity + half-strength shift: y_j = v_j + 0.5·v_{j+3}.
    let v: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
    let out = lt.apply_plain(&v);
    for j in 0..n {
        let want = v[j] + v[(j + 3) % n].scale(0.5);
        assert!((out[j] - want).abs() < 1e-12);
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn linear_transform_rejects_bad_diagonal_index() {
    let mut diagonals = BTreeMap::new();
    diagonals.insert(9usize, vec![Complex::default(); 8]);
    let _ = LinearTransform::from_diagonals(diagonals, 8);
}

#[test]
fn align_levels_is_commutative_in_result_level() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(4);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let v = [Complex::new(0.25, 0.0)];
    let scale = ctx.params().scale();
    let high = encryptor.encrypt_symmetric(&mut rng, &enc.encode(&v, 3, scale).unwrap(), &sk);
    let low = encryptor.encrypt_symmetric(&mut rng, &enc.encode(&v, 1, scale).unwrap(), &sk);
    let (a, b) = ev.align_levels(&high, &low);
    assert_eq!(a.limb_count(), 1);
    assert_eq!(b.limb_count(), 1);
    let (c, d) = ev.align_levels(&low, &high);
    assert_eq!(c.limb_count(), 1);
    assert_eq!(d.limb_count(), 1);
}

#[test]
fn conjugate_twice_is_identity() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(5);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let gk = keygen.galois_keys(&mut rng, &sk, &[], true);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let decryptor = ckks::Decryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let values: Vec<Complex> = (0..enc.slots())
        .map(|i| Complex::new(0.1 * i as f64, -0.05 * i as f64))
        .collect();
    let ct = encryptor.encrypt_symmetric(
        &mut rng,
        &enc.encode(&values, 2, ctx.params().scale()).unwrap(),
        &sk,
    );
    let twice = ev.conjugate(&ev.conjugate(&ct, &gk), &gk);
    let out = enc.decode(&decryptor.decrypt(&twice, &sk));
    for (o, w) in out.iter().zip(&values) {
        assert!((*o - *w).abs() < 1e-3);
    }
}
