//! Bit-identity of the full scheme pipeline, pinned by digest.
//!
//! The keygen → encrypt → multiply/relinearize → rescale → rotate →
//! hoisted-rotation → BSGS pipeline must keep producing the ciphertexts it
//! produced when a context could still be built on the reference scalar
//! kernels: each digest below was recorded on the commit before the
//! kernel selector went, where a scalar-kernel and an unrolled-kernel
//! context both produced it. The kernels themselves are compared against
//! the reference directly in `fhe-math`'s `backend_identity` and
//! `backend_proptests`.
//!
//! Every digest that reads a switching key was re-recorded once, when
//! every key became seeded: the keys are drawn through the seeded
//! generators, and each such digest is the value the code before that
//! change produced from them. Only the keys' `a_j` moved; no kernel did.

use ckks::hoisting::{
    apply_bsgs, apply_hoisted, bsgs_required_steps, rotate_hoisted, LinearTransform,
};
use ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator, Plaintext,
};
use fhe_math::cfft::Complex;
use fhe_math::{RnsBasis, RnsPoly};
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

/// A ciphertext in the layout the digests below were recorded over:
/// version 1 of `MADf` — magic, version, degree, limb count, moduli,
/// scale, then every residue as an 8-byte little-endian word. The wire now
/// packs each residue at its modulus's width (version 2), which would move
/// every digest with no kernel moving; hashing this fixed layout keeps
/// each recorded value a statement about kernel outputs alone.
fn serialize_ciphertext(ct: &Ciphertext) -> Vec<u8> {
    recorded_layout(ct.c0().basis(), ct.scale(), &[ct.c0(), ct.c1()])
}

/// A plaintext in the recorded layout (see [`serialize_ciphertext`]).
fn serialize_plaintext(pt: &Plaintext) -> Vec<u8> {
    recorded_layout(pt.poly().basis(), pt.scale(), &[pt.poly()])
}

fn recorded_layout(basis: &RnsBasis, scale: f64, polys: &[&RnsPoly]) -> Vec<u8> {
    let mut out = b"MADf\x01".to_vec();
    out.extend_from_slice(&(basis.degree() as u32).to_le_bytes());
    out.extend_from_slice(&(basis.len() as u32).to_le_bytes());
    for m in basis.moduli() {
        out.extend_from_slice(&m.value().to_le_bytes());
    }
    out.extend_from_slice(&scale.to_bits().to_le_bytes());
    for p in polys {
        out.extend(p.flat().iter().flat_map(|x| x.to_le_bytes()));
    }
    out
}

/// Flattens a ciphertext to its raw words, which the digests hash.
fn words(ct: &Ciphertext) -> Vec<u64> {
    let mut out = ct.c0().flat().to_vec();
    out.extend_from_slice(ct.c1().flat());
    out
}

/// Asserts that the FNV-1a digest of the little-endian bytes of `f`'s
/// words is `want`.
fn assert_digest(want: u64, f: impl Fn(Arc<CkksContext>) -> Vec<u64>) {
    let mut hash = FNV_OFFSET;
    for w in f(ctx()) {
        fnv1a(&mut hash, &w.to_le_bytes());
    }
    assert_eq!(hash, want, "{hash:#018x}");
}

#[test]
fn encrypt_decrypt_is_bit_identical() {
    assert_digest(0x0e0d_7c27_2042_9bd2, |ctx| {
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
    assert_digest(0x2888_e116_c2ed_1d03, |ctx| {
        let mut rng = StdRng::seed_from_u64(101);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[3], false);
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
        let standard = ev.mul_standard(&ca, &cb, &rlk);
        let rot = ev.rotate(&prod, 3, &gk);
        let scaled = ev.rescale(&ev.mul_scalar_no_rescale(&rot, 0.75, scale));
        let mut all = words(&prod);
        all.extend(words(&standard));
        all.extend(words(&rot));
        all.extend(words(&scaled));
        all
    });
}

#[test]
fn hoisted_rotations_are_bit_identical() {
    assert_digest(0x2822_d9d0_6e5e_74be, |ctx| {
        let mut rng = StdRng::seed_from_u64(202);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let steps = [1i64, 2, 5];
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);
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
    assert_digest(0x7e71_d21a_0820_bf35, |ctx| {
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
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);
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

/// FNV-1a over a byte stream: a dependency-free digest for the pinned
/// outputs below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Keys, operands and a four-diagonal transform on a fixed seed — what the
/// pinned digests below are computed from.
struct Pinned {
    ctx: Arc<CkksContext>,
    ev: Evaluator,
    encoder: Encoder,
    rlk: ckks::RelinKey,
    gk: ckks::GaloisKeys,
    lt: LinearTransform,
    n1: usize,
    /// Plaintexts at `L` and `L − 1` limbs and their encryptions.
    pts: [ckks::Plaintext; 2],
    cts: [Ciphertext; 2],
}

impl Pinned {
    fn new(ctx: Arc<CkksContext>) -> Self {
        let mut rng = StdRng::seed_from_u64(0x004d_4144);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key_compressed(&mut rng, &sk);
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let scale = ctx.params().scale();
        let slots = encoder.slots();
        let levels = ctx.params().levels();

        let diagonals = (0..4usize)
            .map(|d| {
                let diag = (0..slots)
                    .map(|j| {
                        Complex::new(0.05 * (d + 1) as f64 + j as f64 * 1e-3, -0.02 * d as f64)
                    })
                    .collect();
                (d, diag)
            })
            .collect();
        let lt = LinearTransform::from_diagonals(diagonals, slots);
        let n1 = 2usize;
        let mut steps = bsgs_required_steps(&lt, n1);
        steps.push(3);
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &steps, false);

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
        Self {
            ev: Evaluator::new(ctx.clone()),
            ctx,
            encoder,
            rlk,
            gk,
            lt,
            n1,
            pts: [pa, pb],
            cts: [ca, cb],
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A rotation by `steps` sequenced from the public kernels in the order
/// the digest was recorded with — automorphism of both components, then a
/// full key switch of `σ(c1)`. The digest pins what the kernels compute;
/// the order `Evaluator::rotate` sequences them in is a schedule.
fn automorph_then_keyswitch(p: &Pinned, ct: &Ciphertext, steps: i64) -> Ciphertext {
    let (ctx, pool) = (&p.ctx, p.ctx.scratch());
    let k = ctx.rotation_element(steps);
    let auto = ctx.automorphism(k);
    let c1 = ct.c1().automorphism_with(&auto, pool);
    let (v, u) = ckks::keyswitch::keyswitch(ctx, &c1, p.gk.get(k).expect("a key"));
    let mut c0 = ct.c0().automorphism_with(&auto, pool);
    c0.add_assign(&v);
    Ciphertext::new(c0, u, ct.scale())
}

/// The **kernel digest**: the serialized outputs of `encode`, `keyswitch`
/// at every level, an automorphism-then-key-switch rotation, `rescale` and
/// `rotate_hoisted`.
fn kernel_digest(ctx: Arc<CkksContext>) -> u64 {
    let p = Pinned::new(ctx);
    let (ctx, ev) = (&p.ctx, &p.ev);
    let scale = ctx.params().scale();
    let [ca, cb] = &p.cts;

    let mut hash = FNV_OFFSET;
    for pt in &p.pts {
        fnv1a(&mut hash, &serialize_plaintext(pt));
    }
    // Every level's digit shapes, including the partial last digit.
    for ell in (1..=ctx.params().levels()).rev() {
        let ct = ev.drop_to(ca, ell);
        let (v, u) = ckks::keyswitch::keyswitch(ctx, ct.c1(), p.rlk.switching_key());
        fnv1a(
            &mut hash,
            &serialize_ciphertext(&Ciphertext::new(v, u, scale)),
        );
    }
    let rot = automorph_then_keyswitch(&p, ca, 3);
    fnv1a(&mut hash, &serialize_ciphertext(&rot));
    fnv1a(&mut hash, &serialize_ciphertext(&ev.rescale(&rot)));
    for ct in rotate_hoisted(ev, cb, &[0, 1, 3], &p.gk) {
        fnv1a(&mut hash, &serialize_ciphertext(&ct));
    }
    hash
}

/// The **schedule digest**: the serialized outputs of `mul_with_key` and
/// `apply_bsgs`, whose bits follow from *which* kernels they sequence.
fn schedule_digest(ctx: Arc<CkksContext>) -> u64 {
    let p = Pinned::new(ctx);
    let ev = &p.ev;
    let [ca, cb] = &p.cts;

    let mut hash = FNV_OFFSET;
    let ca_low = ev.drop_to(ca, cb.limb_count());
    let prod = ev.mul_with_key(&ca_low, cb, p.rlk.switching_key());
    fnv1a(&mut hash, &serialize_ciphertext(&prod));
    let bsgs = apply_bsgs(ev, &p.encoder, ca, &p.lt, &p.gk, p.n1);
    fnv1a(&mut hash, &serialize_ciphertext(&bsgs));
    hash
}

/// The serialized output of `apply_hoisted` on the pinned transform (its
/// offsets `1..=3` are among the generated keys).
fn hoisted_digest(ctx: Arc<CkksContext>) -> u64 {
    let p = Pinned::new(ctx);
    let mut hash = FNV_OFFSET;
    let out = apply_hoisted(&p.ev, &p.encoder, &p.cts[0], &p.lt, &p.gk);
    fnv1a(&mut hash, &serialize_ciphertext(&out));
    hash
}

/// The narrow (32–40 bit) and the wide (55–60 bit) parameter set the
/// digests are pinned at.
fn pinned_contexts() -> [(&'static str, Arc<CkksContext>); 2] {
    let wide = CkksContext::new(
        CkksParams::builder()
            .log_degree(7)
            .levels(6)
            .scale_bits(55)
            .first_modulus_bits(60)
            .special_modulus_bits(60)
            .dnum(3)
            .build()
            .unwrap(),
    );
    [("narrow", ctx()), ("wide", wide)]
}

/// Asserts `digest` reads `[narrow, wide]`.
fn assert_pinned(digest: fn(Arc<CkksContext>) -> u64, want: [u64; 2]) {
    for ((name, ctx), want) in pinned_contexts().into_iter().zip(want) {
        let got = digest(ctx);
        assert_eq!(got, want, "{name}: {got:#018x}");
    }
}

/// The kernels may change how they compute; they may not change a bit of
/// what they compute. Recorded on the commit before `Mult` and
/// `apply_bsgs` changed schedule (the values the unsplit digest's inputs
/// produced since the per-digit inner-product and thrice-reduced
/// `basis_ext_block` kernels), and not to be edited: a schedule change
/// must leave every one of these kernels' outputs alone.
#[test]
fn kernel_outputs_match_the_recorded_digests() {
    assert_pinned(
        kernel_digest,
        [0x22ff_1d21_2416_11f0, 0x7045_c582_a7b0_7d0f],
    );
}

/// Re-recorded once, when the schedules changed: `mul_with_key` became the
/// ModDown-merged sequence (one ModDown over `{q_last} ∪ P` instead of the
/// key switch's pair and a `Rescale`) and `apply_bsgs` the double-hoisted
/// one (baby steps left in the raised basis, a ModDown pair per non-zero
/// giant group, the last ModDown merged with the rescale). On the commit
/// the kernel digest was recorded on, with a ModDown pair per baby step and
/// a full `rotate` per giant step, this read `[0x867a_6e95_f31a_cb68,
/// 0xa162_9c07_25d8_3088]`; the kernel digest above did not move.
#[test]
fn schedule_outputs_match_the_recorded_digests() {
    assert_pinned(
        schedule_digest,
        [0x3ba0_b15c_2ed9_10ca, 0x2644_85b4_33f9_8168],
    );
}

/// `apply_hoisted` encodes each diagonal once (in the raised basis, whose
/// Q-prefix serves the base-basis legs) and keeps the encodings; recorded
/// while it still encoded every diagonal twice per call.
#[test]
fn apply_hoisted_matches_the_digest_recorded_before_it_shared_encodings() {
    assert_pinned(
        hoisted_digest,
        [0x1e0c_619f_2ab3_f121, 0x0105_756f_a3ab_dfac],
    );
}
