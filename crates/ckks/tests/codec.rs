//! The `MADf` wire format, pinned: recorded digests of what a fixed
//! ciphertext, plaintext and switching key serialize to, and the decoder's
//! data-dependent rejections — an out-of-range residue anywhere in any
//! limb, and a cut anywhere in the message — probed at every position a
//! bulk codec could get wrong (the first, middle and last word of a limb;
//! one byte either side of every field boundary), and a key's form byte.

use ckks::serialize::{
    deserialize_ciphertext, deserialize_plaintext, deserialize_switching_key, serialize_ciphertext,
    serialize_plaintext, serialize_switching_key, SerializeError,
};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator, Plaintext, SwitchingKey,
};
use fhe_math::cfft::Complex;
use fhe_math::RnsBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Ciphertext level of the fixture (the plaintext sits one below).
const CT_LEVEL: usize = 3;

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

struct Fixture {
    ctx: Arc<CkksContext>,
    ct: Ciphertext,
    pt: Plaintext,
    seeded: SwitchingKey,
}

fn fixture() -> Fixture {
    let ctx = ctx();
    let mut rng = StdRng::seed_from_u64(0x4d41_4466);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let encoder = Encoder::new(ctx.clone());
    let values: Vec<Complex> = (0..encoder.slots())
        .map(|i| Complex::new(0.05 * i as f64 - 0.4, (i as f64 * 0.3).sin()))
        .collect();
    let scale = ctx.params().scale();
    let ct = Encryptor::new(ctx.clone()).encrypt_symmetric(
        &mut rng,
        &encoder.encode(&values, CT_LEVEL, scale).unwrap(),
        &sk,
    );
    let pt = encoder.encode(&values, CT_LEVEL - 1, scale).unwrap();
    let seeded = kg
        .relin_key_compressed(&mut rng, &sk)
        .switching_key()
        .clone();
    Fixture {
        ctx,
        ct,
        pt,
        seeded,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offset of the first limb word in a ciphertext or plaintext message of
/// `ell` limbs: magic, version, degree, limb count, moduli, scale.
fn payload_offset(ell: usize) -> usize {
    4 + 1 + 4 + 4 + 8 * ell + 8
}

/// Recorded on the commit before the bulk codec (per-element
/// `extend_from_slice` writer): any change to these digests is a wire
/// format change, not a refactor.
#[test]
fn wire_bytes_match_the_recorded_digests() {
    let f = fixture();
    let got = [
        ("ciphertext", serialize_ciphertext(&f.ct)),
        ("plaintext", serialize_plaintext(&f.pt)),
        ("seeded key", serialize_switching_key(&f.seeded)),
    ]
    .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)));
    let want = [
        ("ciphertext", 1581usize, 0x6b4d_839e_2d03_cd92u64),
        ("plaintext", 549, 0x3b63_bbb7_8e11_f19a),
        ("seeded key", 3170, 0x1c20_bc9d_b217_46e7),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// Overwrites word `word` of the payload starting at byte `base`.
fn poke(bytes: &mut [u8], base: usize, word: usize, value: u64) {
    bytes[base + 8 * word..][..8].copy_from_slice(&value.to_le_bytes());
}

/// For every limb of the `polys` polynomials over `basis` that start at
/// byte `base` of `good`: a residue equal to the modulus, or far above it,
/// at the first, a middle and the last coefficient is rejected as
/// `UnreducedResidue`, while `q − 1` in the same place decodes.
fn assert_residues_checked<T>(
    good: &[u8],
    base: usize,
    polys: usize,
    basis: &RnsBasis,
    decode: impl Fn(&[u8]) -> Result<T, SerializeError>,
) {
    let n = basis.degree();
    assert_eq!(good.len(), base + polys * basis.len() * n * 8, "layout");
    for poly in 0..polys {
        for limb in 0..basis.len() {
            let q = basis.modulus(limb).value();
            for coeff in [0, n / 2, n - 1] {
                let word = (poly * basis.len() + limb) * n + coeff;
                for bad in [q, q + 1, 1 << 62, 1 << 63, u64::MAX] {
                    let mut bytes = good.to_vec();
                    poke(&mut bytes, base, word, bad);
                    assert!(
                        matches!(decode(&bytes), Err(SerializeError::UnreducedResidue)),
                        "poly {poly} limb {limb} coeff {coeff}: {bad:#x} accepted (q = {q:#x})"
                    );
                }
                let mut bytes = good.to_vec();
                poke(&mut bytes, base, word, q - 1);
                assert!(
                    decode(&bytes).is_ok(),
                    "poly {poly} limb {limb} coeff {coeff}: q - 1 rejected"
                );
            }
        }
    }
}

#[test]
fn an_out_of_range_residue_is_rejected_wherever_it_sits() {
    let f = fixture();
    let ctx = &f.ctx;
    assert_residues_checked(
        &serialize_ciphertext(&f.ct),
        payload_offset(CT_LEVEL),
        2,
        ctx.level_basis(CT_LEVEL),
        |b| deserialize_ciphertext(ctx, b),
    );
    assert_residues_checked(
        &serialize_plaintext(&f.pt),
        payload_offset(CT_LEVEL - 1),
        1,
        ctx.level_basis(CT_LEVEL - 1),
        |b| deserialize_plaintext(ctx, b),
    );
    // Keys: basis header (no scale), digit count, form byte, the seed,
    // then one `b` per digit.
    let full = ctx.full_basis();
    let key_base = payload_offset(full.len()) - 8 + 4 + 1;
    assert_residues_checked(
        &serialize_switching_key(&f.seeded),
        key_base + 32,
        f.seeded.digit_count(),
        full,
        |b| deserialize_switching_key(ctx, b),
    );
}

/// A key's form byte takes one value, `1` (a seed and the `b_j` follow):
/// any other is a bad header.
#[test]
fn a_key_form_byte_other_than_seeded_is_a_bad_header() {
    let f = fixture();
    let good = serialize_switching_key(&f.seeded);
    let form_at = payload_offset(f.ctx.full_basis().len()) - 8 + 4;
    assert_eq!(good[form_at], 1);
    for form in [0u8, 2, 0xff] {
        let mut bytes = good.clone();
        bytes[form_at] = form;
        assert_eq!(
            deserialize_switching_key(&f.ctx, &bytes).err(),
            Some(SerializeError::BadHeader),
            "form byte {form}"
        );
    }
}

/// Every cut within a byte of a field or limb boundary of `good` — and the
/// empty message — is `Truncated`; the whole message decodes.
fn assert_cuts_truncated<T>(
    good: &[u8],
    boundaries: impl IntoIterator<Item = usize>,
    decode: impl Fn(&[u8]) -> Result<T, SerializeError>,
) {
    assert!(decode(good).is_ok());
    for at in boundaries {
        for cut in [at.saturating_sub(1), at, at + 1] {
            if cut < good.len() {
                assert!(
                    matches!(decode(&good[..cut]), Err(SerializeError::Truncated)),
                    "cut at {cut} of {} (boundary {at})",
                    good.len()
                );
            }
        }
    }
}

/// Field boundaries of a message whose fixed header ends at `header` and
/// whose remaining bytes are `limb_bytes`-sized limbs.
fn boundaries(header_fields: &[usize], len: usize, limb_bytes: usize) -> Vec<usize> {
    let mut out = vec![0];
    let mut at = 0;
    for field in header_fields {
        at += field;
        out.push(at);
    }
    while at < len {
        at += limb_bytes;
        out.push(at);
    }
    assert_eq!(at, len, "layout");
    out
}

#[test]
fn a_cut_at_any_field_or_limb_boundary_is_truncated() {
    let f = fixture();
    let ctx = &f.ctx;
    let limb_bytes = 8 * ctx.params().degree();
    let header = |ell: usize, tail: &[usize]| {
        let mut fields = vec![4, 1, 4, 4];
        fields.extend(std::iter::repeat_n(8, ell));
        fields.extend_from_slice(tail);
        fields
    };

    let ct = serialize_ciphertext(&f.ct);
    assert_cuts_truncated(
        &ct,
        boundaries(&header(CT_LEVEL, &[8]), ct.len(), limb_bytes),
        |b| deserialize_ciphertext(ctx, b),
    );
    let pt = serialize_plaintext(&f.pt);
    assert_cuts_truncated(
        &pt,
        boundaries(&header(CT_LEVEL - 1, &[8]), pt.len(), limb_bytes),
        |b| deserialize_plaintext(ctx, b),
    );
    let full = ctx.full_basis().len();
    let seeded = serialize_switching_key(&f.seeded);
    assert_cuts_truncated(
        &seeded,
        boundaries(&header(full, &[4, 1, 32]), seeded.len(), limb_bytes),
        |b| deserialize_switching_key(ctx, b),
    );
}
