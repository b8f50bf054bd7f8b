//! End-to-end homomorphic correctness of the Table-2 operations, including
//! the semantic equivalence of the MAD ModDown-merge multiplication.

use ckks::serialize::{deserialize_galois_keys, serialize_galois_keys};
use ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
use fhe_math::cfft::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

struct Harness {
    ctx: Arc<CkksContext>,
    encoder: Encoder,
    encryptor: Encryptor,
    decryptor: Decryptor,
    evaluator: Evaluator,
    keygen: KeyGenerator,
    rng: StdRng,
}

impl Harness {
    fn new(seed: u64) -> Self {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(7)
                .levels(5)
                .scale_bits(32)
                .first_modulus_bits(40)
                .special_modulus_bits(36)
                .dnum(3)
                .build()
                .unwrap(),
        );
        Self {
            encoder: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone()),
            decryptor: Decryptor::new(ctx.clone()),
            evaluator: Evaluator::new(ctx.clone()),
            keygen: KeyGenerator::new(ctx.clone()),
            ctx,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn values(&self, f: impl Fn(usize) -> Complex) -> Vec<Complex> {
        (0..self.encoder.slots()).map(f).collect()
    }

    fn encrypt(&mut self, v: &[Complex], ell: usize) -> (ckks::Ciphertext, ckks::SecretKey) {
        let sk = self.keygen.secret_key(&mut self.rng);
        let pt = self
            .encoder
            .encode(v, ell, self.ctx.params().scale())
            .unwrap();
        let ct = self.encryptor.encrypt_symmetric(&mut self.rng, &pt, &sk);
        (ct, sk)
    }

    fn decrypt(&self, ct: &ckks::Ciphertext, sk: &ckks::SecretKey) -> Vec<Complex> {
        self.encoder.decode(&self.decryptor.decrypt(ct, sk))
    }
}

fn assert_close(got: &[Complex], want: &[Complex], tol: f64, what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (*g - *w).abs() < tol,
            "{what}: slot {i}: {g:?} vs {w:?} (diff {})",
            (*g - *w).abs()
        );
    }
}

#[test]
fn homomorphic_addition_and_subtraction() {
    let mut h = Harness::new(1);
    let a = h.values(|i| Complex::new((i as f64 * 0.1).sin(), 0.2));
    let b = h.values(|i| Complex::new(0.5 - i as f64 * 0.001, -0.1));
    let sk = h.keygen.secret_key(&mut h.rng);
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 4, scale).unwrap();
    let pb = h.encoder.encode(&b, 4, scale).unwrap();
    let ca = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);
    let cb = h.encryptor.encrypt_symmetric(&mut h.rng, &pb, &sk);
    let sum = h.evaluator.add(&ca, &cb);
    let diff = h.evaluator.sub(&ca, &cb);
    let want_sum: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
    let want_diff: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x - y).collect();
    assert_close(&h.decrypt(&sum, &sk), &want_sum, 1e-5, "add");
    assert_close(&h.decrypt(&diff, &sk), &want_diff, 1e-5, "sub");
}

#[test]
fn plaintext_operations() {
    let mut h = Harness::new(2);
    let a = h.values(|i| Complex::new(0.8 + 0.001 * i as f64, 0.0));
    let b = h.values(|i| Complex::new(-0.3, 0.002 * i as f64));
    let (ct, sk) = h.encrypt(&a, 3);
    let scale = h.ctx.params().scale();
    let pb = h.encoder.encode(&b, 3, scale).unwrap();
    let padd = h.evaluator.add_plain(&ct, &pb);
    let want: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
    assert_close(&h.decrypt(&padd, &sk), &want, 1e-5, "pt-add");

    let pmul = h.evaluator.mul_plain(&ct, &pb);
    assert_eq!(pmul.limb_count(), 2, "PtMult rescales");
    let want: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
    assert_close(&h.decrypt(&pmul, &sk), &want, 1e-4, "pt-mul");
}

#[test]
fn ciphertext_multiplication() {
    let mut h = Harness::new(3);
    let a = h.values(|i| Complex::new((i as f64 * 0.05).cos(), 0.1));
    let b = h.values(|i| Complex::new(0.7, (i as f64 * 0.03).sin()));
    let sk = h.keygen.secret_key(&mut h.rng);
    let rlk = h.keygen.relin_key(&mut h.rng, &sk);
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 4, scale).unwrap();
    let pb = h.encoder.encode(&b, 4, scale).unwrap();
    let ca = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);
    let cb = h.encryptor.encrypt_symmetric(&mut h.rng, &pb, &sk);
    let prod = h.evaluator.mul(&ca, &cb, &rlk);
    assert_eq!(prod.limb_count(), 3);
    let want: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
    assert_close(&h.decrypt(&prod, &sk), &want, 1e-4, "mul");
}

#[test]
fn moddown_merge_multiplication_matches_standard() {
    // The paper's Figure 4: the merged Mult that `mul` runs (one ModDown
    // over {q_last} ∪ P) and the standard one kept as its reference (two
    // ModDowns, then a Rescale) must compute the same function.
    let mut h = Harness::new(4);
    let a = h.values(|i| Complex::new(0.4 + 0.002 * i as f64, -0.2));
    let b = h.values(|i| Complex::new((i as f64 * 0.07).sin(), 0.3));
    let sk = h.keygen.secret_key(&mut h.rng);
    let rlk = h.keygen.relin_key(&mut h.rng, &sk);
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 5, scale).unwrap();
    let pb = h.encoder.encode(&b, 5, scale).unwrap();
    let ca = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);
    let cb = h.encryptor.encrypt_symmetric(&mut h.rng, &pb, &sk);

    let standard = h.evaluator.mul_standard(&ca, &cb, &rlk);
    let merged = h.evaluator.mul(&ca, &cb, &rlk);
    assert_eq!(standard.limb_count(), merged.limb_count());
    assert!((standard.scale() / merged.scale() - 1.0).abs() < 1e-12);

    let want: Vec<Complex> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
    let dec_std = h.decrypt(&standard, &sk);
    let dec_mrg = h.decrypt(&merged, &sk);
    assert_close(&dec_std, &want, 1e-4, "standard mul");
    assert_close(&dec_mrg, &want, 1e-4, "merged mul");
    assert_close(&dec_std, &dec_mrg, 1e-5, "merged vs standard");
}

#[test]
fn rotation_and_conjugation() {
    let mut h = Harness::new(5);
    let slots = h.encoder.slots();
    let a = h.values(|i| Complex::new(i as f64 / slots as f64, (i as f64 * 0.2).cos() * 0.1));
    let sk = h.keygen.secret_key(&mut h.rng);
    let gk = h.keygen.galois_keys(&mut h.rng, &sk, &[1, 3, -2], true);
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 3, scale).unwrap();
    let ct = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);

    for steps in [1i64, 3, -2] {
        let rot = h.evaluator.rotate(&ct, steps, &gk);
        let want: Vec<Complex> = (0..slots)
            .map(|i| a[(i as i64 + steps).rem_euclid(slots as i64) as usize])
            .collect();
        assert_close(
            &h.decrypt(&rot, &sk),
            &want,
            1e-4,
            &format!("rotate {steps}"),
        );
    }

    let conj = h.evaluator.conjugate(&ct, &gk);
    let want: Vec<Complex> = a.iter().map(|v| v.conj()).collect();
    assert_close(&h.decrypt(&conj, &sk), &want, 1e-4, "conjugate");
}

#[test]
fn rotation_by_zero_is_identity() {
    let mut h = Harness::new(6);
    let a = h.values(|i| Complex::new(0.25 * (i % 4) as f64, 0.0));
    let (ct, sk) = h.encrypt(&a, 2);
    let gk = ckks::GaloisKeys::default();
    let rot = h.evaluator.rotate(&ct, 0, &gk);
    assert_close(&h.decrypt(&rot, &sk), &a, 1e-6, "rotate 0");
}

#[test]
fn multiplication_depth_chain() {
    // x, x², x⁴ … down the modulus chain, checking scale management.
    let mut h = Harness::new(7);
    let a = h.values(|_| Complex::new(0.9, 0.0));
    let sk = h.keygen.secret_key(&mut h.rng);
    let rlk = h.keygen.relin_key(&mut h.rng, &sk);
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 5, scale).unwrap();
    let mut ct = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);
    let mut expect = 0.9f64;
    for _ in 0..3 {
        ct = h.evaluator.square(&ct, &rlk);
        expect = expect * expect;
        let dec = h.decrypt(&ct, &sk);
        assert!(
            (dec[0].re - expect).abs() < 1e-3,
            "chain: {} vs {expect}",
            dec[0].re
        );
    }
    assert_eq!(ct.limb_count(), 2);
}

#[test]
fn scalar_operations() {
    let mut h = Harness::new(8);
    let a = h.values(|i| Complex::new(0.1 * (i % 7) as f64, -0.05));
    let (ct, sk) = h.encrypt(&a, 3);
    let shifted = h.evaluator.add_scalar(&ct, 2.5);
    let want: Vec<Complex> = a.iter().map(|&v| v + Complex::new(2.5, 0.0)).collect();
    assert_close(&h.decrypt(&shifted, &sk), &want, 1e-5, "add_scalar");

    let scaled = h.evaluator.rescale(&h.evaluator.mul_scalar_no_rescale(
        &ct,
        -1.5,
        h.ctx.params().scale(),
    ));
    let want: Vec<Complex> = a.iter().map(|&v| v.scale(-1.5)).collect();
    assert_close(&h.decrypt(&scaled, &sk), &want, 1e-4, "mul_scalar");
}

#[test]
fn negation() {
    let mut h = Harness::new(9);
    let a = h.values(|i| Complex::new((i as f64).sqrt() * 0.01, 0.3));
    let (ct, sk) = h.encrypt(&a, 2);
    let neg = h.evaluator.neg(&ct);
    let want: Vec<Complex> = a.iter().map(|&v| -v).collect();
    assert_close(&h.decrypt(&neg, &sk), &want, 1e-5, "neg");
}

#[test]
fn compressed_relin_key_computes_identically() {
    // Key compression (Section 3.2): a seeded key must compute what any
    // key does — only its memory footprint differs.
    let mut h = Harness::new(10);
    let a = h.values(|_| Complex::new(0.6, 0.2));
    let sk = h.keygen.secret_key(&mut h.rng);
    let rlk_compressed = h.keygen.relin_key_compressed(&mut h.rng, &sk);
    assert!(
        rlk_compressed.switching_key().compressed_size_bytes()
            < rlk_compressed.switching_key().size_bytes() / 2 + 64
    );
    let scale = h.ctx.params().scale();
    let pa = h.encoder.encode(&a, 4, scale).unwrap();
    let ct = h.encryptor.encrypt_symmetric(&mut h.rng, &pa, &sk);
    let prod = h.evaluator.mul(&ct, &ct, &rlk_compressed);
    let want: Vec<Complex> = a.iter().map(|&v| v * v).collect();
    assert_close(&h.decrypt(&prod, &sk), &want, 1e-4, "compressed-key mul");
}

#[test]
fn sum_slots_computes_prefix_sums_everywhere() {
    let mut h = Harness::new(11);
    let slots = h.encoder.slots();
    let a = h.values(|i| Complex::new(if i < 8 { 0.125 } else { 0.0 }, 0.0));
    let sk = h.keygen.secret_key(&mut h.rng);
    // The ladder 1, 2, 4 folds as the stages {1, 2, 3} and {4}.
    let gk = h.keygen.galois_keys(&mut h.rng, &sk, &[1, 2, 3, 4], false);
    let pt = h.encoder.encode(&a, 2, h.ctx.params().scale()).unwrap();
    let ct = h.encryptor.encrypt_symmetric(&mut h.rng, &pt, &sk);
    let folded = h.evaluator.sum_slots(&ct, 3, &gk);
    let out = h.decrypt(&folded, &sk);
    // Slot 0 holds the sum of the first 8 slots = 8 × 0.125 = 1.0.
    assert!((out[0].re - 1.0).abs() < 1e-3, "{}", out[0].re);
    let _ = slots;
}

#[test]
fn compressed_galois_keys_halve_bytes_and_rotate_identically() {
    let mut h = Harness::new(12);
    let sk = h.keygen.secret_key(&mut h.rng);
    let keys = h.keygen.galois_keys(&mut h.rng, &sk, &[1, 2, 4], true);
    assert_eq!(keys.iter().count(), 4);
    let expanded: u64 = keys.iter().map(|(_, k)| k.size_bytes()).sum();
    let wire = serialize_galois_keys(&keys);
    assert!(
        (wire.len() as f64) < 0.55 * expanded as f64,
        "{} vs {expanded}",
        wire.len()
    );

    // The keys regenerated from the wire rotate bit for bit as the
    // generated ones do.
    let restored = deserialize_galois_keys(&h.ctx, &wire).unwrap();
    let a = h.values(|i| Complex::new(0.01 * i as f64, 0.0));
    let pt = h.encoder.encode(&a, 3, h.ctx.params().scale()).unwrap();
    let ct = h.encryptor.encrypt_symmetric(&mut h.rng, &pt, &sk);
    let r1 = h.evaluator.rotate(&ct, 2, &keys);
    let r2 = h.evaluator.rotate(&ct, 2, &restored);
    assert_eq!(r1.c0().flat(), r2.c0().flat());
    assert_eq!(r1.c1().flat(), r2.c1().flat());
}

#[test]
fn repeated_multiplication_leaves_the_scratch_pool_bounded() {
    // A caller that drops its products hands the pool nothing back and
    // takes nothing it was not given: the free list must stay at or under
    // its cap (64) instead of growing with the call count.
    let mut h = Harness::new(11);
    let a = h.values(|i| Complex::new((i as f64 * 0.05).cos(), 0.1));
    let (ct, sk) = h.encrypt(&a, 4);
    let rlk = h.keygen.relin_key(&mut h.rng, &sk);
    let pool = h.ctx.scratch();
    for _ in 0..64 {
        h.evaluator.mul_with_key(&ct, &ct, rlk.switching_key());
    }
    let free = pool.stats().free;
    assert!(free <= 64, "free list grew to {free} buffers");

    // A caller that recycles them runs warm `Mult`s entirely out of the
    // pool, and every buffer a `Mult` touches is a lease: the three tensor
    // legs (the operands are read in place, nothing is cloned), a raised
    // digit and its iNTT staging copy per digit, the two raised
    // accumulators the lifted legs are added into, and the special-limb
    // copy plus the output of each of the two merged ModDowns.
    h.evaluator
        .mul_with_key(&ct, &ct, rlk.switching_key())
        .recycle(pool);
    let warm = pool.stats();
    for _ in 0..5 {
        h.evaluator
            .mul_with_key(&ct, &ct, rlk.switching_key())
            .recycle(pool);
    }
    let after = pool.stats();
    assert_eq!(warm.misses, after.misses, "a warm Mult allocated");
    let beta = h.ctx.params().beta_at(4) as u64;
    assert_eq!(after.leases - warm.leases, 5 * (3 + 2 * beta + 2 + 4));
}
