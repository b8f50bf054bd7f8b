//! The `MADf` wire format, pinned: recorded digests of what a fixed fresh
//! (seeded) and computed (dense) ciphertext, plaintext and switching key
//! serialize to, hand-built version-4 messages of both ciphertext forms
//! the digests answer to, and the decoder's data-dependent rejections — an
//! out-of-range packed field anywhere in any limb, and a cut anywhere in
//! the message — probed at every position a packed codec could get wrong
//! (the first, middle and last word of a limb; one byte either side of
//! every field and limb boundary, limbs at their modulus widths), and the
//! form bytes of a key and of a ciphertext.

use ckks::serialize::{
    deserialize_ciphertext, deserialize_plaintext, deserialize_switching_key, serialize_ciphertext,
    serialize_plaintext, serialize_switching_key, SerializeError,
};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator, Plaintext, SwitchingKey,
};
use fhe_math::cfft::Complex;
use fhe_math::codec::limb_width;
use fhe_math::sampling::SeededUniform;
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
    /// A fresh encryption, which keeps its seed.
    ct: Ciphertext,
    /// The same components with no seed, as a computed result has.
    dense: Ciphertext,
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
    let dense = Ciphertext::new(ct.c0().clone(), ct.c1().clone(), ct.scale());
    Fixture {
        ctx,
        ct,
        dense,
        pt,
        seeded,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Offset of the first limb in a plaintext message of `ell` limbs: magic,
/// version, degree, limb count, moduli, scale. A ciphertext's form byte
/// follows the scale, so its first limb is one byte further on.
fn payload_offset(ell: usize) -> usize {
    4 + 1 + 4 + 4 + 8 * ell + 8
}

/// The wire bytes of limb `i` of `basis`: `N` residues at its modulus's
/// width.
fn limb_bytes(basis: &RnsBasis, i: usize) -> usize {
    limb_width(basis.modulus(i).value()) * basis.degree()
}

/// Recorded when a ciphertext gained its form byte (format version 3),
/// re-recorded once for version 4, when a seed's expansion became one
/// stream per limb and every published seed a ChaCha20 block (the values
/// a scratch copy of the code before that change computes with only the
/// expansion's scalar body, the seed sites and the version byte changed;
/// at version 3 they read `0x492c_e41d_847c_2aa6`, `0xfe7c_f3c0_3501_d0d8`,
/// `0xe081_c08e_22c9_da70` and `0x45a3_8620_7fe7_656e`), and anchored to the format's definition by
/// `a_hand_built_message_is_the_wire_format`: any change to these digests
/// is a wire format change, not a refactor.
#[test]
fn wire_bytes_match_the_recorded_digests() {
    let f = fixture();
    let got = [
        ("fresh ciphertext", serialize_ciphertext(&f.ct)),
        ("dense ciphertext", serialize_ciphertext(&f.dense)),
        ("plaintext", serialize_plaintext(&f.pt)),
        ("seeded key", serialize_switching_key(&f.seeded)),
    ]
    .map(|(name, bytes)| (name, bytes.len(), fnv1a(&bytes)));
    let want = [
        ("fresh ciphertext", 494usize, 0xca72_f77a_1379_8eabu64),
        ("dense ciphertext", 878, 0x675e_8f1c_3665_5d9e),
        ("plaintext", 325, 0x1dde_efb8_33af_5a59),
        ("seeded key", 2082, 0x9c69_da09_2176_ae24),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// One-limb ciphertexts written out by hand from the format's definition
/// — header fields, the scale, the form byte, then each residue as its low
/// `⌈bitlen(q)/8⌉` bytes, little-endian, and in the seeded form the 32-byte
/// seed in place of `c_1` — decode to exactly the residues they were built
/// from (a seeded `c_1` is limb 0 of the seed's expansion mod `q`) and
/// serialize back to the same bytes.
#[test]
fn a_hand_built_message_is_the_wire_format() {
    let ctx = ctx();
    let basis = ctx.level_basis(1);
    let (n, q) = (basis.degree(), basis.modulus(0).value());
    assert_eq!((n, q >> 35), (32, 1), "a 36-bit first prime at N = 32");
    let scale = 2f64.powi(30);
    let residue = |poly: u64, k: u64| (0x01_0203_0405 + poly * 0x100 + k) % q;
    let seed: [u8; 32] = std::array::from_fn(|i| 0xa0 ^ i as u8);
    for form in [0u8, 1] {
        let mut msg = b"MADf".to_vec();
        msg.push(4);
        msg.extend_from_slice(&[32, 0, 0, 0, 1, 0, 0, 0]);
        msg.extend_from_slice(&q.to_le_bytes());
        msg.extend_from_slice(&scale.to_bits().to_le_bytes());
        msg.push(form);
        let polys = if form == 1 { 1 } else { 2 };
        for poly in 0..polys {
            for k in 0..n as u64 {
                msg.extend_from_slice(&residue(poly, k).to_le_bytes()[..5]);
            }
        }
        if form == 1 {
            msg.extend_from_slice(&seed);
        }
        assert_eq!(
            msg.len(),
            5 + 4 + 4 + 8 + 8 + 1 + polys as usize * 32 * 5 + 32 * form as usize
        );
        // Coefficient 0 of `c0`: 0x01_0203_0405 as five bytes, low first.
        assert_eq!(msg[30..35], [0x05, 0x04, 0x03, 0x02, 0x01]);
        let ct = deserialize_ciphertext(&ctx, &msg).unwrap();
        assert_eq!(ct.scale(), scale);
        assert_eq!(ct.is_seeded(), form == 1);
        let c0: Vec<u64> = (0..n as u64).map(|k| residue(0, k)).collect();
        let c1 = match form {
            1 => SeededUniform::new(&[q], n, 1).expand(seed).remove(0),
            _ => (0..n as u64).map(|k| residue(1, k)).collect(),
        };
        assert_eq!(ct.c0().limb(0), &c0[..], "form {form}");
        assert_eq!(ct.c1().limb(0), &c1[..], "form {form}");
        assert_eq!(serialize_ciphertext(&ct), msg);
    }
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
    (base, polys, tail): (usize, usize, usize),
    basis: &RnsBasis,
    decode: impl Fn(&[u8]) -> Result<T, SerializeError>,
) {
    let n = basis.degree();
    let poly_bytes: usize = (0..basis.len()).map(|i| limb_bytes(basis, i)).sum();
    assert_eq!(good.len(), base + polys * poly_bytes + tail, "layout");
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
    // A ciphertext's limbs start after its form byte; a fresh one's seed
    // follows `c_0`.
    for (ct, polys, tail) in [(&f.dense, 2, 0), (&f.ct, 1, 32)] {
        assert_residues_checked(
            &serialize_ciphertext(ct),
            (payload_offset(CT_LEVEL) + 1, polys, tail),
            ctx.level_basis(CT_LEVEL),
            |b| deserialize_ciphertext(ctx, b),
        );
    }
    assert_residues_checked(
        &serialize_plaintext(&f.pt),
        (payload_offset(CT_LEVEL - 1), 1, 0),
        ctx.level_basis(CT_LEVEL - 1),
        |b| deserialize_plaintext(ctx, b),
    );
    // Keys: basis header (no scale), digit count, form byte, the seed,
    // then one `b` per digit.
    let full = ctx.full_basis();
    let key_base = payload_offset(full.len()) - 8 + 4 + 1;
    assert_residues_checked(
        &serialize_switching_key(&f.seeded),
        (key_base + 32, f.seeded.digit_count(), 0),
        full,
        |b| deserialize_switching_key(ctx, b),
    );
}

/// A ciphertext's form byte is `0` (dense: `c_1`'s limbs follow `c_0`'s)
/// or `1` (seeded: the seed follows `c_0`): any other is a bad header, and
/// a form byte that does not match the body's length is truncated or
/// trailing.
#[test]
fn a_ciphertext_form_byte_is_dense_or_seeded() {
    let f = fixture();
    let form_at = payload_offset(CT_LEVEL);
    let (seeded, dense) = (serialize_ciphertext(&f.ct), serialize_ciphertext(&f.dense));
    assert_eq!((seeded[form_at], dense[form_at]), (1, 0));
    for good in [&seeded, &dense] {
        for form in [2u8, 0xff] {
            let mut bytes = good.clone();
            bytes[form_at] = form;
            assert_eq!(
                deserialize_ciphertext(&f.ctx, &bytes).err(),
                Some(SerializeError::BadHeader),
                "form byte {form}"
            );
        }
    }
    let mut as_dense = seeded.clone();
    as_dense[form_at] = 0;
    assert_eq!(
        deserialize_ciphertext(&f.ctx, &as_dense).err(),
        Some(SerializeError::Truncated)
    );
    let mut as_seeded = dense.clone();
    as_seeded[form_at] = 1;
    assert_eq!(
        deserialize_ciphertext(&f.ctx, &as_seeded).err(),
        Some(SerializeError::TrailingBytes(dense.len() - seeded.len()))
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
/// modulus's width, then the `tail` fields.
fn boundaries(
    header_fields: &[usize],
    len: usize,
    polys: usize,
    basis: &RnsBasis,
    tail: &[usize],
) -> Vec<usize> {
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
    for field in tail {
        at += field;
        out.push(at);
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

    for (ct, polys, tail) in [(&f.dense, 2, &[][..]), (&f.ct, 1, &[32][..])] {
        let ct = serialize_ciphertext(ct);
        assert_cuts_truncated(
            &ct,
            boundaries(
                &header(CT_LEVEL, &[8, 1]),
                ct.len(),
                polys,
                ctx.level_basis(CT_LEVEL),
                tail,
            ),
            |b| deserialize_ciphertext(ctx, b),
        );
    }
    let pt = serialize_plaintext(&f.pt);
    assert_cuts_truncated(
        &pt,
        boundaries(
            &header(CT_LEVEL - 1, &[8]),
            pt.len(),
            1,
            ctx.level_basis(CT_LEVEL - 1),
            &[],
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
            &[],
        ),
        |b| deserialize_switching_key(ctx, b),
    );
}
