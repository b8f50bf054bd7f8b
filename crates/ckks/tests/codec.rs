//! The `MADf` wire format, pinned: recorded digests of what a fixed
//! ciphertext, plaintext and switching key serialize to, a hand-built
//! version-2 message the digests answer to, and the decoder's
//! data-dependent rejections — an out-of-range packed field anywhere in any
//! limb, and a cut anywhere in the message — probed at every position a
//! packed codec could get wrong (the first, middle and last word of a limb;
//! one byte either side of every field and limb boundary, limbs at their
//! modulus widths), and a key's form byte.

use ckks::serialize::{
    deserialize_ciphertext, deserialize_plaintext, deserialize_switching_key, serialize_ciphertext,
    serialize_plaintext, serialize_switching_key, SerializeError,
};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator, Plaintext, SwitchingKey,
};
use fhe_math::cfft::Complex;
use fhe_math::codec::limb_width;
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

/// Offset of the first limb in a ciphertext or plaintext message of `ell`
/// limbs: magic, version, degree, limb count, moduli, scale.
fn payload_offset(ell: usize) -> usize {
    4 + 1 + 4 + 4 + 8 * ell + 8
}

/// The wire bytes of limb `i` of `basis`: `N` residues at its modulus's
/// width.
fn limb_bytes(basis: &RnsBasis, i: usize) -> usize {
    limb_width(basis.modulus(i).value()) * basis.degree()
}

/// Recorded when limbs were first packed at their modulus widths (format
/// version 2), and anchored to the format's definition by
/// `a_hand_built_message_is_the_wire_format`: any change to these digests
/// is a wire format change, not a refactor.
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
        ("ciphertext", 877usize, 0x1fa4_dae8_0ab3_2f99u64),
        ("plaintext", 325, 0x50c5_b9bb_575e_67cf),
        ("seeded key", 2082, 0xf562_b4d5_3bfb_6c4a),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// A one-limb ciphertext written out by hand from the format's definition
/// — header fields, then each residue as its low `⌈bitlen(q)/8⌉` bytes,
/// little-endian — decodes to exactly the residues it was built from and
/// serializes back to the same bytes.
#[test]
fn a_hand_built_message_is_the_wire_format() {
    let ctx = ctx();
    let basis = ctx.level_basis(1);
    let (n, q) = (basis.degree(), basis.modulus(0).value());
    assert_eq!((n, q >> 35), (32, 1), "a 36-bit first prime at N = 32");
    let scale = 2f64.powi(30);
    let residue = |poly: u64, k: u64| (0x01_0203_0405 + poly * 0x100 + k) % q;
    let mut msg = b"MADf".to_vec();
    msg.push(2);
    msg.extend_from_slice(&[32, 0, 0, 0, 1, 0, 0, 0]);
    msg.extend_from_slice(&q.to_le_bytes());
    msg.extend_from_slice(&scale.to_bits().to_le_bytes());
    for poly in 0..2 {
        for k in 0..n as u64 {
            msg.extend_from_slice(&residue(poly, k).to_le_bytes()[..5]);
        }
    }
    assert_eq!(msg.len(), 5 + 4 + 4 + 8 + 8 + 2 * 32 * 5);
    // Coefficient 0 of `c0`: 0x01_0203_0405 as five bytes, low first.
    assert_eq!(msg[29..34], [0x05, 0x04, 0x03, 0x02, 0x01]);
    let ct = deserialize_ciphertext(&ctx, &msg).unwrap();
    assert_eq!(ct.scale(), scale);
    for (poly, c) in [ct.c0(), ct.c1()].into_iter().enumerate() {
        let want: Vec<u64> = (0..n as u64).map(|k| residue(poly as u64, k)).collect();
        assert_eq!(c.limb(0), &want[..], "poly {poly}");
    }
    assert_eq!(serialize_ciphertext(&ct), msg);
}

/// Overwrites the packed field of word `word` of limb `limb`, the limbs
/// of `polys` polynomials over `basis` starting at byte `base`, with the
/// low bytes of `value` (all ones when `value` is `None`).
fn poke(
    bytes: &mut [u8],
    base: usize,
    basis: &RnsBasis,
    poly: usize,
    limb: usize,
    word: usize,
    value: Option<u64>,
) {
    let poly_bytes: usize = (0..basis.len()).map(|i| limb_bytes(basis, i)).sum();
    let limb_at: usize = (0..limb).map(|i| limb_bytes(basis, i)).sum();
    let w = limb_width(basis.modulus(limb).value());
    let at = base + poly * poly_bytes + limb_at + w * word;
    let field = value.map_or([0xff; 8], u64::to_le_bytes);
    bytes[at..at + w].copy_from_slice(&field[..w]);
}

/// For every limb of the `polys` polynomials over `basis` that start at
/// byte `base` of `good`: a packed field holding the modulus, one more, or
/// all ones, at the first, a middle and the last coefficient is rejected
/// as `UnreducedResidue`, while `q − 1` in the same place decodes.
fn assert_residues_checked<T>(
    good: &[u8],
    base: usize,
    polys: usize,
    basis: &RnsBasis,
    decode: impl Fn(&[u8]) -> Result<T, SerializeError>,
) {
    let n = basis.degree();
    let poly_bytes: usize = (0..basis.len()).map(|i| limb_bytes(basis, i)).sum();
    assert_eq!(good.len(), base + polys * poly_bytes, "layout");
    for poly in 0..polys {
        for limb in 0..basis.len() {
            let q = basis.modulus(limb).value();
            for coeff in [0, n / 2, n - 1] {
                for bad in [Some(q), Some(q + 1), None] {
                    let mut bytes = good.to_vec();
                    poke(&mut bytes, base, basis, poly, limb, coeff, bad);
                    assert!(
                        matches!(decode(&bytes), Err(SerializeError::UnreducedResidue)),
                        "poly {poly} limb {limb} coeff {coeff}: {bad:#x?} accepted (q = {q:#x})"
                    );
                }
                let mut bytes = good.to_vec();
                poke(&mut bytes, base, basis, poly, limb, coeff, Some(q - 1));
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

/// Field boundaries of a message of `len` bytes: the fixed header's
/// fields, then `polys` polynomials' limbs over `basis`, each at its
/// modulus's width.
fn boundaries(header_fields: &[usize], len: usize, polys: usize, basis: &RnsBasis) -> Vec<usize> {
    let mut out = vec![0];
    let mut at = 0;
    for field in header_fields {
        at += field;
        out.push(at);
    }
    for _ in 0..polys {
        for i in 0..basis.len() {
            at += limb_bytes(basis, i);
            out.push(at);
        }
    }
    assert_eq!(at, len, "layout");
    out
}

#[test]
fn a_cut_at_any_field_or_limb_boundary_is_truncated() {
    let f = fixture();
    let ctx = &f.ctx;
    let header = |ell: usize, tail: &[usize]| {
        let mut fields = vec![4, 1, 4, 4];
        fields.extend(std::iter::repeat_n(8, ell));
        fields.extend_from_slice(tail);
        fields
    };

    let ct = serialize_ciphertext(&f.ct);
    assert_cuts_truncated(
        &ct,
        boundaries(
            &header(CT_LEVEL, &[8]),
            ct.len(),
            2,
            ctx.level_basis(CT_LEVEL),
        ),
        |b| deserialize_ciphertext(ctx, b),
    );
    let pt = serialize_plaintext(&f.pt);
    assert_cuts_truncated(
        &pt,
        boundaries(
            &header(CT_LEVEL - 1, &[8]),
            pt.len(),
            1,
            ctx.level_basis(CT_LEVEL - 1),
        ),
        |b| deserialize_plaintext(ctx, b),
    );
    let full = ctx.full_basis();
    let seeded = serialize_switching_key(&f.seeded);
    assert_cuts_truncated(
        &seeded,
        boundaries(
            &header(full.len(), &[4, 1, 32]),
            seeded.len(),
            f.seeded.digit_count(),
            full,
        ),
        |b| deserialize_switching_key(ctx, b),
    );
}
