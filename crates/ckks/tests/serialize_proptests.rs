//! Property-based hardening of the `MADf` serialization layer: bit-exact
//! round-trips for randomized ciphertexts in both forms (a fresh one as
//! `c_0` plus its seed, a computed one whole) and seeded keys, never-panic
//! behaviour on adversarial byte streams (truncations, bit flips, version
//! skew), and no stale seed: every evaluator op's output, fed a fresh
//! ciphertext, round-trips bit for bit, in the form it should have. These
//! are the guarantees the serving runtime leans on — a malformed frame
//! must come back as a structured error, and a round-tripped payload must
//! be byte-identical so server-side results match local ones exactly.

use ckks::hoisting::{
    apply_bsgs, bsgs_required_steps, fold_stages, rotate_fold, rotate_hoisted, LinearTransform,
};
use ckks::serialize::{
    deserialize_ciphertext, deserialize_galois_keys, deserialize_plaintext,
    deserialize_switching_key, galois_key_set_entries, serialize_ciphertext, serialize_galois_keys,
    serialize_plaintext, serialize_switching_key, SerializeError,
};
use ckks::{Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use proptest::prelude::*;
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

fn values_strategy(slots: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), slots)
        .prop_map(|v| v.into_iter().map(|(re, im)| Complex::new(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn ciphertext_roundtrip_is_bit_exact(
        values in values_strategy(16),
        level in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let pt = encoder.encode(&values, level, ctx.params().scale()).unwrap();
        let fresh = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let computed = Evaluator::new(ctx.clone()).neg(&fresh);
        for (ct, seeded) in [(&fresh, true), (&computed, false)] {
            let bytes = serialize_ciphertext(ct);
            let back = deserialize_ciphertext(&ctx, &bytes).unwrap();
            prop_assert_eq!(back.is_seeded(), seeded);
            prop_assert_eq!(back.c1().flat(), ct.c1().flat());
            // Serializing again must reproduce the exact byte stream.
            prop_assert_eq!(serialize_ciphertext(&back), bytes);
        }
    }

    #[test]
    fn plaintext_roundtrip_is_bit_exact(
        values in values_strategy(16),
        level in 1usize..=4,
    ) {
        let ctx = ctx();
        let encoder = Encoder::new(ctx.clone());
        let pt = encoder.encode(&values, level, ctx.params().scale()).unwrap();
        let bytes = serialize_plaintext(&pt);
        let back = deserialize_plaintext(&ctx, &bytes).unwrap();
        prop_assert_eq!(serialize_plaintext(&back), bytes);
    }

    #[test]
    fn seeded_key_roundtrip_regenerates_exactly(seed in any::<u64>()) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let bytes = serialize_switching_key(rlk.switching_key());
        let back = deserialize_switching_key(&ctx, &bytes).unwrap();
        // The regenerated key serializes to the identical compressed form,
        // which (because `a` is seed-determined) pins the whole key.
        prop_assert_eq!(serialize_switching_key(&back), bytes);
    }

    #[test]
    fn galois_bundle_roundtrip_and_lazy_split_agree(
        seed in any::<u64>(),
        step_mask in 1u8..=7,
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let steps: Vec<i64> = [1i64, 2, 4]
            .iter()
            .enumerate()
            .filter(|(i, _)| step_mask & (1 << i) != 0)
            .map(|(_, &s)| s)
            .collect();
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);
        let bytes = serialize_galois_keys(&gk);
        // The lazy split and the full deserialization must present the
        // same elements, and each split entry must be a valid key message.
        let entries = galois_key_set_entries(&bytes).unwrap();
        let back = deserialize_galois_keys(&ctx, &bytes).unwrap();
        prop_assert_eq!(entries.len(), back.len());
        for (element, key_bytes) in entries {
            let split_key = deserialize_switching_key(&ctx, key_bytes).unwrap();
            let bundled = back.get(element).unwrap();
            prop_assert_eq!(
                serialize_switching_key(&split_key),
                serialize_switching_key(bundled)
            );
        }
        // Serializing the restored set reproduces the canonical bytes.
        prop_assert_eq!(serialize_galois_keys(&back), bytes);
    }

    #[test]
    fn truncations_and_bit_flips_never_panic(
        values in values_strategy(16),
        cut in 0usize..400,
        flip_at in 0usize..400,
        seed in any::<u64>(),
    ) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let pt = encoder.encode(&values, 2, ctx.params().scale()).unwrap();
        let fresh = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let computed = Evaluator::new(ctx.clone()).neg(&fresh);
        for ct in [&fresh, &computed] {
            let good = serialize_ciphertext(ct);

            // Truncation at any point is a clean error, never a panic.
            let cut = cut.min(good.len().saturating_sub(1));
            prop_assert!(deserialize_ciphertext(&ctx, &good[..cut]).is_err());

            // One flipped bit is either caught or changes payload bytes
            // only (flips inside limb words or the seed can still decode,
            // but must not panic).
            let mut bad = good.clone();
            let flip_at = flip_at.min(bad.len() - 1);
            bad[flip_at] ^= 0x01;
            let _ = deserialize_ciphertext(&ctx, &bad);
            let _ = deserialize_switching_key(&ctx, &bad);
            let _ = galois_key_set_entries(&bad);
        }
    }

    #[test]
    fn version_skew_is_reported_as_version_mismatch(
        values in values_strategy(16),
        wrong_version in (1u8..254).prop_map(|v| if v >= 4 { v + 1 } else { v }),
    ) {
        let ctx = ctx();
        let encoder = Encoder::new(ctx.clone());
        let pt = encoder.encode(&values, 2, ctx.params().scale()).unwrap();
        let mut bytes = serialize_plaintext(&pt);
        bytes[4] = wrong_version;
        prop_assert_eq!(
            deserialize_plaintext(&ctx, &bytes).unwrap_err(),
            SerializeError::VersionMismatch(wrong_version)
        );
    }
}

/// `deserialize(serialize(out))` is `out` bit for bit: the same scale and
/// the same words in both components, in the same form.
fn assert_round_trips(ctx: &CkksContext, name: &str, out: &Ciphertext, seeded: bool) {
    assert_eq!(out.is_seeded(), seeded, "{name}: seeded form");
    let bytes = serialize_ciphertext(out);
    let back = deserialize_ciphertext(ctx, &bytes).unwrap();
    assert_eq!(back.is_seeded(), seeded, "{name}: decoded form");
    assert_eq!(
        back.scale().to_bits(),
        out.scale().to_bits(),
        "{name}: scale"
    );
    assert_eq!(back.c0().flat(), out.c0().flat(), "{name}: c0");
    assert_eq!(back.c1().flat(), out.c1().flat(), "{name}: c1");
    assert_eq!(serialize_ciphertext(&back), bytes, "{name}: bytes");
}

/// Every evaluator op that returns a ciphertext, fed fresh (seeded)
/// ciphertexts: an output keeps the seed only where its `c_1` is still the
/// seed's expansion — a copy of the operand (a drop to its own level, a
/// rotation by a multiple of the slot count, an empty fold) or a clone
/// whose `c_0` alone changed (`add_scalar`) — and every output round-trips
/// bit for bit. An op that wrote `c_1` of a clone and kept the seed would
/// come back with the operand's `c_1`.
#[test]
fn no_op_output_carries_a_stale_seed() {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(0x57a1e);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let rlk = kg.relin_key(&mut rng, &sk);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let ev = Evaluator::new(ctx.clone());
    let (slots, levels, scale) = (encoder.slots(), ctx.params().levels(), ctx.params().scale());
    let values: Vec<Complex> = (0..slots)
        .map(|i| Complex::new(0.5 * (i as f64 * 0.3).sin(), 0.5 * (i as f64 * 0.2).cos()))
        .collect();
    let pt = encoder.encode(&values, levels, scale).unwrap();
    let pt_low = encoder.encode(&values, levels - 1, scale).unwrap();
    let a = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    let b = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
    assert!(a.is_seeded() && b.is_seeded());

    let lt = LinearTransform::from_diagonals(
        (0..3usize)
            .map(|d| (d, vec![Complex::new(0.1 * (d + 1) as f64, 0.0); slots]))
            .collect(),
        slots,
    );
    let stages = fold_stages(&[1, 2]);
    let mut steps = bsgs_required_steps(&lt, 2);
    steps.extend(stages.iter().flatten());
    steps.extend([3, -1]);
    let gk = kg.galois_keys(&mut rng, &sk, &steps, true);
    let whole = slots as i64;

    let outputs: Vec<(&str, Ciphertext, bool)> = vec![
        ("add", ev.add(&a, &b), false),
        ("sub", ev.sub(&a, &b), false),
        ("neg", ev.neg(&a), false),
        ("add_plain", ev.add_plain(&a, &pt), false),
        (
            "add_plain at a lower level",
            ev.add_plain(&a, &pt_low),
            false,
        ),
        ("add_scalar", ev.add_scalar(&a, 0.25), true),
        (
            "mul_plain_no_rescale",
            ev.mul_plain_no_rescale(&a, &pt),
            false,
        ),
        ("mul_plain", ev.mul_plain(&a, &pt), false),
        (
            "mul_scalar_no_rescale",
            ev.mul_scalar_no_rescale(&a, 0.75, scale),
            false,
        ),
        (
            "mul_complex_scalar_no_rescale",
            ev.mul_complex_scalar_no_rescale(&a, Complex::new(0.5, -0.25), scale),
            false,
        ),
        ("rescale", ev.rescale(&a), false),
        ("drop_to its own level", ev.drop_to(&a, levels), true),
        ("drop_to a lower level", ev.drop_to(&a, levels - 2), false),
        (
            "mul_with_key",
            ev.mul_with_key(&a, &b, rlk.switching_key()),
            false,
        ),
        ("mul", ev.mul(&a, &b, &rlk), false),
        ("square", ev.square(&a, &rlk), false),
        ("rotate", ev.rotate(&a, 3, &gk), false),
        ("rotate by the slot count", ev.rotate(&a, whole, &gk), true),
        (
            "rotate by minus twice the slot count",
            ev.rotate(&a, -2 * whole, &gk),
            true,
        ),
        ("conjugate", ev.conjugate(&a, &gk), false),
        ("rotate_fold", rotate_fold(&ev, &a, &stages, &gk), false),
        (
            "rotate_fold of no stage",
            rotate_fold(&ev, &a, &[], &gk),
            true,
        ),
        (
            "apply_bsgs",
            apply_bsgs(&ev, &encoder, &a, &lt, &gk, 2),
            false,
        ),
    ];
    let hoisted = rotate_hoisted(&ev, &a, &[0, 1, whole], &gk);
    let outputs = outputs.into_iter().chain(
        [
            "rotate_hoisted by 0",
            "rotate_hoisted by 1",
            "rotate_hoisted by the slot count",
        ]
        .into_iter()
        .zip(hoisted)
        .zip([true, false, true])
        .map(|((name, ct), seeded)| (name, ct, seeded)),
    );
    for (name, out, seeded) in outputs {
        assert_round_trips(&ctx, name, &out, seeded);
    }
    // The operands themselves are untouched by every op above.
    assert_round_trips(&ctx, "operand", &a, true);
}
