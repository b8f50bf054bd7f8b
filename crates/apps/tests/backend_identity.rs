//! Bit-identity of a full HELR training step, pinned by digest.
//!
//! The deepest end-to-end check of the kernels: one [`encrypted_lr_step`]
//! runs every hot kernel — encode, encrypt, the rotation folds,
//! relinearization (ModUp/ModDown), and rescale — and the resulting weight
//! ciphertexts must hash to the digest recorded on the commit before the
//! kernel selector went, where a context on the reference scalar kernels
//! and one on the unrolled kernels both produced it.

use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_apps::helr_enc::{encrypted_lr_step, lr_fold_steps};
use fhe_math::cfft::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flattens a ciphertext to its raw words, which the digest hashes.
fn words(ct: &Ciphertext) -> Vec<u64> {
    let mut out = ct.c0().flat().to_vec();
    out.extend_from_slice(ct.c1().flat());
    out
}

/// FNV-1a over a byte stream: a dependency-free digest for the pinned
/// output below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn lr_step_words() -> Vec<u64> {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(5)
            .levels(10)
            .scale_bits(30)
            .first_modulus_bits(40)
            .special_modulus_bits(34)
            .dnum(5)
            .build()
            .unwrap(),
    );
    let slots = ctx.params().slots();
    let levels = ctx.params().levels();
    let scale = ctx.params().scale();
    let mut rng = StdRng::seed_from_u64(31);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let gk = keygen.galois_keys(&mut rng, &sk, &lr_fold_steps(slots), false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());

    let dim = 3;
    let xs_plain: Vec<Vec<f64>> = (0..dim)
        .map(|d| {
            (0..slots)
                .map(|b| ((b * 7 + d * 3) % 5) as f64 * 0.2 - 0.4)
                .collect()
        })
        .collect();
    let y01: Vec<f64> = (0..slots).map(|b| ((b % 3) == 0) as u8 as f64).collect();
    let mut encrypt_vec = |v: &[f64]| {
        let cv: Vec<Complex> = v.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let pt = encoder.encode(&cv, levels, scale).unwrap();
        encryptor.encrypt_symmetric(&mut rng, &pt, &sk)
    };
    let xs: Vec<Ciphertext> = xs_plain.iter().map(|c| encrypt_vec(c)).collect();
    let y_ct = encrypt_vec(&y01);
    let mut weights: Vec<Ciphertext> = (0..dim).map(|_| encrypt_vec(&vec![0.0; slots])).collect();

    encrypted_lr_step(
        &ev,
        rlk.switching_key(),
        &gk,
        &mut weights,
        &xs,
        &y_ct,
        slots,
        1.0,
    );
    weights.iter().flat_map(words).collect()
}

#[test]
fn helr_step_matches_the_recorded_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in lr_step_words() {
        fnv1a(&mut hash, &w.to_le_bytes());
    }
    assert_eq!(hash, 0x9872_885f_cdff_6d37, "{hash:#018x}");
}
