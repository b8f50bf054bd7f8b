//! Property-based tests of the functional CKKS scheme on randomized
//! messages: encode/decode, homomorphic arithmetic against plaintext
//! references, and the rotation group action. Case counts are small —
//! each case runs real lattice cryptography.

use ckks::hoisting::{apply_bsgs, apply_naive, bsgs_required_steps, LinearTransform};
use ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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

fn values_strategy(slots: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), slots)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn encode_decode_roundtrip(values in values_strategy(32)) {
        let ctx = ctx();
        let encoder = Encoder::new(ctx.clone());
        let pt = encoder.encode(&values, 2, ctx.params().scale()).unwrap();
        let back = encoder.decode(&pt);
        for (a, b) in back.iter().zip(&values) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn encryption_is_correct_and_homomorphic_for_addition(
        a in values_strategy(32),
        b in values_strategy(32),
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let ca = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&a, 2, scale).unwrap(), &sk);
        let cb = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&b, 2, scale).unwrap(), &sk);
        let sum = evaluator.add(&ca, &cb);
        let out = encoder.decode(&decryptor.decrypt(&sum, &sk));
        for ((x, y), z) in a.iter().zip(&b).zip(&out) {
            prop_assert!((*x + *y - *z).abs() < 1e-4);
        }
    }

    #[test]
    fn multiplication_matches_plaintext_product_and_the_standard_sequence(
        a in values_strategy(32),
        b in values_strategy(32),
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let rlk = keygen.relin_key(&mut rng, &sk);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        // Every level with a limb to rescale into, operands at equal and
        // at unequal levels (the deeper one is read through its prefix).
        for (la, lb) in [(2, 2), (3, 3), (4, 4), (4, 2), (3, 4)] {
            let ca = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&a, la, scale).unwrap(), &sk);
            let cb = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&b, lb, scale).unwrap(), &sk);
            // The merged sequence `mul` runs and its standard reference
            // both match the plaintext product…
            let merged = evaluator.mul(&ca, &cb, &rlk);
            let standard = evaluator.mul_standard(&ca, &cb, &rlk);
            prop_assert_eq!(merged.limb_count(), la.min(lb) - 1);
            prop_assert_eq!(merged.scale().to_bits(), standard.scale().to_bits());
            let (m, s) = (decryptor.decrypt(&merged, &sk), decryptor.decrypt(&standard, &sk));
            for ((x, y), z) in a.iter().zip(&b).zip(&encoder.decode(&m)) {
                prop_assert!((*x * *y - *z).abs() < 1e-3);
            }
            // …and each other to rounding noise: one rounded division by
            // P·q_last against a rounded division by P and then one by
            // q_last can differ by a unit, and only where the inner
            // rounding tips the outer one (about once in q_last
            // coefficients).
            let mut diff = m.poly().clone();
            diff.sub_assign(s.poly());
            diff.to_coeff();
            prop_assert!(diff.inf_norm() <= 2.0, "levels ({}, {}): {}", la, lb, diff.inf_norm());
        }
    }

    #[test]
    fn bsgs_matches_the_naive_schedule_and_the_plaintext_product(
        picks in prop::collection::vec(0usize..32, 1..9),
        contiguous in any::<bool>(),
        values in values_strategy(32),
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let slots = 32;
        // A contiguous band from 0, or a sparse set wherever it fell.
        let offsets: Vec<usize> = if contiguous { (0..picks.len()).collect() } else { picks };
        let entry = |d: usize, j: usize| {
            Complex::new(
                ((j * 7 + d * 3) % 11) as f64 * 0.08 - 0.4,
                ((j + d) % 5) as f64 * 0.1 - 0.2,
            )
        };
        let diagonals = offsets
            .iter()
            .map(|&d| (d, (0..slots).map(|j| entry(d, j)).collect()));
        let lt = LinearTransform::from_diagonals(diagonals.collect(), slots);
        let want = lt.apply_plain(&values);

        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        // Slot-error bound: every diagonal contributes one rotation's
        // key-switch noise and one encoding's rounding, each under 1e-6
        // at Δ = 2^32 on values and entries of magnitude ≤ 1.5 (the suite
        // passes at a tenth of this).
        let bound = 1e-5 * (lt.diagonal_count() + 1) as f64;
        for n1 in [1usize, 2, 4, 8] {
            let mut steps = bsgs_required_steps(&lt, n1);
            steps.extend(lt.offsets().iter().map(|&d| d as i64));
            let gk = keygen.galois_keys(&mut rng, &sk, &steps, false);
            for ell in 2..=4 {
                let pt = encoder.encode(&values, ell, scale).unwrap();
                let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
                let bsgs = apply_bsgs(&evaluator, &encoder, &ct, &lt, &gk, n1);
                let naive = apply_naive(&evaluator, &encoder, &ct, &lt, &gk);
                prop_assert_eq!(bsgs.limb_count(), ell - 1);
                prop_assert_eq!(bsgs.scale().to_bits(), naive.scale().to_bits());
                let got = encoder.decode(&decryptor.decrypt(&bsgs, &sk));
                let reference = encoder.decode(&decryptor.decrypt(&naive, &sk));
                let at = format!("{:?}, n1 = {n1}, ℓ = {ell}", lt.offsets());
                for i in 0..slots {
                    let (plain, naive) = (got[i] - want[i], got[i] - reference[i]);
                    prop_assert!(plain.abs() < bound, "{}, slot {}: off by {:?}", at, i, plain);
                    prop_assert!(naive.abs() < bound, "{}, slot {} against naive", at, i);
                }
            }
        }
    }

    #[test]
    fn rotation_group_acts_transitively(
        values in values_strategy(32),
        steps in 0i64..32,
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let gk = keygen.galois_keys(&mut rng, &sk, &[steps], false);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let ct = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 2, scale).unwrap(), &sk);
        let rot = evaluator.rotate(&ct, steps, &gk);
        let out = encoder.decode(&decryptor.decrypt(&rot, &sk));
        let slots = values.len();
        for i in 0..slots {
            let want = values[(i + steps as usize) % slots];
            prop_assert!((out[i] - want).abs() < 1e-3, "slot {}", i);
        }
    }

    #[test]
    fn rescale_preserves_value_and_drops_limb(
        values in values_strategy(32),
        c in -2.0f64..2.0,
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let keygen = KeyGenerator::new(ctx.clone());
        let sk = keygen.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let decryptor = Decryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let scale = ctx.params().scale();
        let ct = encryptor.encrypt_symmetric(&mut rng, &encoder.encode(&values, 3, scale).unwrap(), &sk);
        let scaled = evaluator.rescale(&evaluator.mul_scalar_no_rescale(&ct, c, scale));
        prop_assert_eq!(scaled.limb_count(), 2);
        let out = encoder.decode(&decryptor.decrypt(&scaled, &sk));
        for (x, z) in values.iter().zip(&out) {
            prop_assert!((x.scale(c) - *z).abs() < 1e-3);
        }
    }
}
