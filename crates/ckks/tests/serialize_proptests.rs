//! Property-based hardening of the `MADf` serialization layer: bit-exact
//! round-trips for randomized ciphertexts and seeded keys, and
//! never-panic behaviour on adversarial byte streams (truncations, bit
//! flips, version skew). These are the guarantees the serving runtime
//! leans on — a malformed frame must come back as a structured error, and
//! a round-tripped payload must be byte-identical so server-side results
//! match local ones exactly.

use ckks::serialize::{
    deserialize_ciphertext, deserialize_galois_keys, deserialize_plaintext,
    deserialize_switching_key, galois_key_set_entries, serialize_ciphertext, serialize_galois_keys,
    serialize_plaintext, serialize_switching_key, SerializeError,
};
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator};
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
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let bytes = serialize_ciphertext(&ct);
        let back = deserialize_ciphertext(&ctx, &bytes).unwrap();
        // Serializing again must reproduce the exact byte stream.
        prop_assert_eq!(serialize_ciphertext(&back), bytes);
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
        let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);
        let good = serialize_ciphertext(&ct);

        // Truncation at any point is a clean error, never a panic.
        let cut = cut.min(good.len().saturating_sub(1));
        prop_assert!(deserialize_ciphertext(&ctx, &good[..cut]).is_err());

        // One flipped bit is either caught or changes payload bytes only
        // (flips inside limb words can still decode, but must not panic).
        let mut bad = good.clone();
        let flip_at = flip_at.min(bad.len() - 1);
        bad[flip_at] ^= 0x01;
        let _ = deserialize_ciphertext(&ctx, &bad);
        let _ = deserialize_switching_key(&ctx, &bad);
        let _ = galois_key_set_entries(&bad);
    }

    #[test]
    fn version_skew_is_reported_as_version_mismatch(
        values in values_strategy(16),
        wrong_version in 2u8..255,
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
