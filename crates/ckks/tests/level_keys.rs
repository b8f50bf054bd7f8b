//! A switching key expanded at a level (`deserialize_switching_key_at`)
//! against the whole key it was cut from: at every level, every keyed
//! kernel — a plain key switch, hoisted rotations, a folded ladder, a BSGS
//! mat-vec and a relinearizing multiply — returns the same bits with
//! either, for a key expanded at exactly that level or above it.
//!
//! Two rings: the `lib_programs` digit geometry (`L = 8`, `dnum = 3`,
//! `α = 3`) and a ragged one (`L = 5`, `dnum = 4`, `α = 2`), where a whole
//! key holds a digit (`dnum = 4 > β(L) = 3`) that no level reads.

use ckks::hoisting::LinearTransform;
use ckks::hoisting::{apply_bsgs, bsgs_required_steps, fold_stages, rotate_fold, rotate_hoisted};
use ckks::keyswitch::keyswitch;
use ckks::serialize::{
    deserialize_switching_key, deserialize_switching_key_at, serialize_switching_key,
};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
    SwitchingKey,
};
use fhe_math::cfft::Complex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

fn ring(levels: usize, dnum: usize) -> Arc<CkksContext> {
    CkksContext::new(
        CkksParams::builder()
            .log_degree(6)
            .levels(levels)
            .scale_bits(30)
            .first_modulus_bits(36)
            .special_modulus_bits(36)
            .dnum(dnum)
            .build()
            .unwrap(),
    )
}

/// Every key's wire form, seeded and written whole: the relin key, and a
/// Galois key for each step the fold and the mat-vec below need.
struct Wires {
    relin: Vec<Vec<u8>>,
    galois: Vec<(u64, Vec<u8>)>,
}

const RUNGS: [i64; 3] = [1, 2, 4];
const N1: usize = 2;

fn matrix(slots: usize, rng: &mut StdRng) -> LinearTransform {
    let diagonals: BTreeMap<usize, Vec<Complex>> = [0usize, 1, 3, 5]
        .into_iter()
        .map(|d| {
            let values = (0..slots).map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0));
            (d, values.collect())
        })
        .collect();
    LinearTransform::from_diagonals(diagonals, slots)
}

fn same(a: &Ciphertext, b: &Ciphertext, what: &str) {
    assert_eq!(a.c0().flat(), b.c0().flat(), "{what}: c0 differs");
    assert_eq!(a.c1().flat(), b.c1().flat(), "{what}: c1 differs");
    assert_eq!(a.scale(), b.scale(), "{what}: scale differs");
}

/// The relin keys and the Galois key set, each key expanded by `expand`.
fn key_set(
    wires: &Wires,
    expand: impl Fn(&[u8]) -> SwitchingKey,
) -> (Vec<SwitchingKey>, GaloisKeys) {
    let mut gk = GaloisKeys::new();
    for (element, bytes) in &wires.galois {
        gk.insert(*element, expand(bytes));
    }
    (wires.relin.iter().map(|b| expand(b)).collect(), gk)
}

fn check_ring(levels: usize, dnum: usize, seed: u64) {
    let ctx = ring(levels, dnum);
    let slots = ctx.params().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let lt = matrix(slots, &mut rng);
    let stages = fold_stages(&RUNGS);
    let mut steps: Vec<i64> = stages.iter().flatten().copied().collect();
    steps.extend(bsgs_required_steps(&lt, N1));
    steps.sort_unstable();
    steps.dedup();
    // Seeded keys regenerate their `a_j`; a key written whole decodes them.
    let wires = Wires {
        relin: vec![
            serialize_switching_key(keygen.relin_key_compressed(&mut rng, &sk).switching_key()),
            serialize_switching_key(keygen.relin_key(&mut rng, &sk).switching_key()),
        ],
        galois: keygen
            .galois_keys_compressed(&mut rng, &sk, &steps, false)
            .iter()
            .map(|(e, k)| (e, serialize_switching_key(k)))
            .collect(),
    };
    let whole = key_set(&wires, |b| deserialize_switching_key(&ctx, b).unwrap());
    let (encoder, encryptor) = (Encoder::new(ctx.clone()), Encryptor::new(ctx.clone()));
    let ev = Evaluator::new(ctx.clone());

    for ell in 1..=levels {
        let values: Vec<Complex> = (0..slots)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let pt = encoder.encode(&values, ell, ctx.params().scale()).unwrap();
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        // Expanded at this level, and one above it where there is one.
        for at in [ell, (ell + 1).min(levels)] {
            let trimmed = key_set(&wires, |b| {
                deserialize_switching_key_at(&ctx, b, at).unwrap()
            });
            assert_eq!(trimmed.0[0].digit_count(), ctx.key_digits_at(at));
            assert!(trimmed.0[0].size_bytes() <= whole.0[0].size_bytes());
            let what = |op: &str| format!("{op} at ell = {ell}, key at {at} (L = {levels})");
            for (w, t) in whole.0.iter().zip(&trimmed.0) {
                let ((v, u), (v_t, u_t)) =
                    (keyswitch(&ctx, ct.c1(), w), keyswitch(&ctx, ct.c1(), t));
                assert_eq!(v.flat(), v_t.flat(), "{}", what("keyswitch"));
                assert_eq!(u.flat(), u_t.flat(), "{}", what("keyswitch"));
            }
            let hoisted = |gk| rotate_hoisted(&ev, &ct, &steps, gk);
            for (w, t) in hoisted(&whole.1).iter().zip(&hoisted(&trimmed.1)) {
                same(w, t, &what("rotate_hoisted"));
            }
            same(
                &rotate_fold(&ev, &ct, &stages, &whole.1),
                &rotate_fold(&ev, &ct, &stages, &trimmed.1),
                &what("rotate_fold"),
            );
            if ell >= 2 {
                same(
                    &apply_bsgs(&ev, &encoder, &ct, &lt, &whole.1, N1),
                    &apply_bsgs(&ev, &encoder, &ct, &lt, &trimmed.1, N1),
                    &what("apply_bsgs"),
                );
                for (w, t) in whole.0.iter().zip(&trimmed.0) {
                    same(
                        &ev.mul_with_key(&ct, &ct, w),
                        &ev.mul_with_key(&ct, &ct, t),
                        &what("mul_with_key"),
                    );
                }
            }
        }
    }
}

#[test]
fn a_key_expanded_at_a_level_switches_like_the_whole_key() {
    check_ring(8, 3, 0x1e7e1);
}

#[test]
fn a_ragged_ring_expands_its_digits_by_level() {
    check_ring(5, 4, 0x5a66ed);
}

#[test]
fn the_top_level_is_the_whole_key() {
    let ctx = ring(5, 4);
    let mut rng = StdRng::seed_from_u64(3);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let key = keygen.relin_key_compressed(&mut rng, &sk);
    let bytes = serialize_switching_key(key.switching_key());
    let whole = deserialize_switching_key(&ctx, &bytes).unwrap();
    assert_eq!(whole.digit_count(), 4);
    assert_eq!(whole.size_bytes(), key.switching_key().size_bytes());
    assert_eq!(serialize_switching_key(&whole), bytes);
    let at_top = deserialize_switching_key_at(&ctx, &bytes, 5).unwrap();
    assert_eq!(serialize_switching_key(&at_top), bytes);
    // The seed, and the `b_j` of one digit at two of five Q-limbs and the
    // two special limbs.
    let low = deserialize_switching_key_at(&ctx, &bytes, 2).unwrap();
    assert_eq!(low.digit_count(), 1);
    assert_eq!(low.size_bytes(), 32 + 4 * 64 * 8);
}

#[test]
#[should_panic(expected = "cannot switch at")]
fn a_key_expanded_below_the_level_refuses_to_switch() {
    let ctx = ring(5, 4);
    let mut rng = StdRng::seed_from_u64(4);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let bytes = serialize_switching_key(keygen.relin_key_compressed(&mut rng, &sk).switching_key());
    // Both levels read two digits; the key lacks the fourth Q-limb.
    let low = deserialize_switching_key_at(&ctx, &bytes, 3).unwrap();
    let pt = Encoder::new(ctx.clone())
        .encode(&[Complex::new(0.5, 0.0)], 4, ctx.params().scale())
        .unwrap();
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(&mut rng, &pt, &sk);
    let _ = keyswitch(&ctx, ct.c1(), &low);
}
