//! Scalar-vs-unrolled bit-identity of the full scheme pipeline.
//!
//! Mirrors `parallel_identity.rs`, but instead of toggling the thread
//! count it builds one context per [`BackendKind`] and asserts the
//! keygen → encrypt → multiply/relinearize → rescale → rotate →
//! hoisted-rotation → BSGS pipeline produces byte-for-byte identical
//! ciphertexts on both.

use ckks::hoisting::{apply_bsgs, bsgs_required_steps, rotate_hoisted, LinearTransform};
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use fhe_math::BackendKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn ctx(kind: BackendKind) -> Arc<CkksContext> {
    CkksContext::with_backend(
        CkksParams::builder()
            .log_degree(6)
            .levels(4)
            .scale_bits(32)
            .first_modulus_bits(40)
            .special_modulus_bits(36)
            .dnum(2)
            .build()
            .unwrap(),
        Some(kind),
    )
}

/// Flattens a ciphertext to its raw words so equality is bit-equality.
fn words(ct: &Ciphertext) -> Vec<u64> {
    let mut out = ct.c0().flat().to_vec();
    out.extend_from_slice(ct.c1().flat());
    out
}

/// Runs `f` once per backend and asserts bit-equal outputs.
fn assert_backends_agree(f: impl Fn(Arc<CkksContext>) -> Vec<u64>) {
    let scalar = f(ctx(BackendKind::Scalar));
    let unrolled = f(ctx(BackendKind::Unrolled));
    assert_eq!(scalar, unrolled, "scalar and unrolled pipelines diverged");
}

#[test]
fn encrypt_decrypt_is_bit_identical() {
    assert_backends_agree(|ctx| {
        let mut rng = StdRng::seed_from_u64(404);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let scale = ctx.params().scale();
        let values: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new((i as f64 / 4.0).sin(), (i as f64 / 6.0).cos()))
            .collect();
        let ct =
            encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 3, scale).unwrap(), &sk);
        words(&ct)
    });
}

#[test]
fn multiply_relinearize_rotate_rescale_are_bit_identical() {
    assert_backends_agree(|ctx| {
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
        let merged = ev.mul_merged(&ca, &cb, &rlk);
        let rot = ev.rotate(&prod, 3, &gk);
        let scaled = ev.rescale(&ev.mul_scalar_no_rescale(&rot, 0.75, scale));
        let mut all = words(&prod);
        all.extend(words(&merged));
        all.extend(words(&rot));
        all.extend(words(&scaled));
        all
    });
}

#[test]
fn hoisted_rotations_are_bit_identical() {
    assert_backends_agree(|ctx| {
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
        rotated.iter().flat_map(words).collect()
    });
}

#[test]
fn bsgs_matvec_is_bit_identical() {
    assert_backends_agree(|ctx| {
        let mut rng = StdRng::seed_from_u64(303);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let slots = encoder.slots();
        // A small banded matrix so only a handful of diagonals are
        // populated.
        let matrix: Vec<Vec<Complex>> = (0..slots)
            .map(|r| {
                (0..slots)
                    .map(|c| {
                        let d = (c + slots - r) % slots;
                        if d <= 3 {
                            Complex::new(0.1 + r as f64 * 0.01, d as f64 * 0.05)
                        } else {
                            Complex::new(0.0, 0.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let lt = LinearTransform::from_matrix(&matrix);
        let n1 = 2usize;
        let steps = bsgs_required_steps(&lt, n1);
        let gk = kg.galois_keys(&mut rng, &sk, &steps, false);
        let encryptor = Encryptor::new(ctx.clone());
        let ev = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let values: Vec<Complex> = (0..slots)
            .map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.2).sin()))
            .collect();
        let ct =
            encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 3, scale).unwrap(), &sk);
        words(&apply_bsgs(&ev, &encoder, &ct, &lt, &gk, n1))
    });
}

#[test]
fn keyswitch_and_rescale_under_env_override_still_honor_explicit_choice() {
    // `with_backend(_, Some(kind))` must pin the kind regardless of the
    // process environment; both contexts here must report their own name.
    let scalar = ctx(BackendKind::Scalar);
    let unrolled = ctx(BackendKind::Unrolled);
    assert_eq!(scalar.kernel_backend().name(), "scalar");
    assert_eq!(unrolled.kernel_backend().name(), "unrolled");
}

/// FNV-1a over a byte stream: a dependency-free digest for the pinned
/// outputs below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The serialized outputs of `keyswitch`, `rotate`, `mul_with_key`,
/// `rescale`, `apply_bsgs` and `encode` on a fixed seed, digested.
fn pipeline_digest(ctx: Arc<CkksContext>) -> u64 {
    use ckks::serialize::{serialize_ciphertext, serialize_plaintext};
    let mut rng = StdRng::seed_from_u64(0x004d_4144);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key(&mut rng, &sk);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let scale = ctx.params().scale();
    let slots = encoder.slots();
    let levels = ctx.params().levels();

    let diagonals = (0..4usize)
        .map(|d| {
            let diag = (0..slots)
                .map(|j| Complex::new(0.05 * (d + 1) as f64 + j as f64 * 1e-3, -0.02 * d as f64))
                .collect();
            (d, diag)
        })
        .collect();
    let lt = LinearTransform::from_diagonals(diagonals, slots);
    let n1 = 2usize;
    let mut steps = bsgs_required_steps(&lt, n1);
    steps.push(3);
    let gk = kg.galois_keys(&mut rng, &sk, &steps, false);

    let a: Vec<Complex> = (0..slots)
        .map(|i| Complex::new((i as f64 / 5.0).sin(), (i as f64 / 9.0).cos()))
        .collect();
    let b: Vec<Complex> = (0..slots)
        .map(|i| Complex::new((i as f64 / 7.0).cos(), -(i as f64 / 3.0).sin()))
        .collect();
    let pa = encoder.encode(&a, levels, scale).unwrap();
    let pb = encoder.encode(&b, levels - 1, scale).unwrap();
    let ca = encryptor.encrypt_symmetric(&mut rng, &pa, &sk);
    let cb = encryptor.encrypt_symmetric(&mut rng, &pb, &sk);

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, &serialize_plaintext(&pa));
    fnv1a(&mut hash, &serialize_plaintext(&pb));
    // Every level's digit shapes, including the partial last digit.
    for ell in (1..=levels).rev() {
        let ct = ev.drop_to(&ca, ell);
        let (v, u) = ckks::keyswitch::keyswitch(&ctx, ct.c1(), rlk.switching_key());
        fnv1a(
            &mut hash,
            &serialize_ciphertext(&Ciphertext::new(v, u, scale)),
        );
    }
    let rot = ev.rotate(&ca, 3, &gk);
    fnv1a(&mut hash, &serialize_ciphertext(&rot));
    let cb_up = ev.drop_to(&ca, levels - 1);
    let prod = ev.mul_with_key(&cb_up, &cb, rlk.switching_key());
    fnv1a(&mut hash, &serialize_ciphertext(&prod));
    fnv1a(&mut hash, &serialize_ciphertext(&ev.rescale(&rot)));
    for ct in rotate_hoisted(&ev, &cb, &[0, 1, 3], &gk) {
        fnv1a(&mut hash, &serialize_ciphertext(&ct));
    }
    let bsgs = apply_bsgs(&ev, &encoder, &ca, &lt, &gk, n1);
    fnv1a(&mut hash, &serialize_ciphertext(&bsgs));
    hash
}

/// The kernels may change how they compute; they may not change a bit of
/// what they compute. The digests were recorded from the per-digit
/// inner-product and thrice-reduced `basis_ext_block` kernels, before the
/// fused ones replaced them, at a narrow (32–40 bit) and a wide
/// (55–60 bit) parameter set.
#[test]
fn outputs_match_the_digests_recorded_before_the_kernel_rewrite() {
    let narrow = |kind| ctx(kind);
    let wide = |kind| {
        CkksContext::with_backend(
            CkksParams::builder()
                .log_degree(7)
                .levels(6)
                .scale_bits(55)
                .first_modulus_bits(60)
                .special_modulus_bits(60)
                .dnum(3)
                .build()
                .unwrap(),
            Some(kind),
        )
    };
    for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
        assert_eq!(
            pipeline_digest(narrow(kind)),
            0x8296_b13d_14a9_5187,
            "{kind:?}, narrow"
        );
        assert_eq!(
            pipeline_digest(wide(kind)),
            0xdbb9_1f1f_1fda_328f,
            "{kind:?}, wide"
        );
    }
}
