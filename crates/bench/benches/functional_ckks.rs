//! Criterion benchmarks of the functional CKKS library: the Table-2
//! primitives measured for real at test-scale parameters, including the
//! standard-vs-merged multiplication (the ModDown merge of Figure 4).
use ckks::{CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator};
use criterion::{criterion_group, criterion_main, Criterion};
use fhe_math::cfft::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let ctx = CkksContext::new(
        CkksParams::builder()
            .log_degree(12)
            .levels(6)
            .scale_bits(40)
            .first_modulus_bits(50)
            .special_modulus_bits(50)
            .dnum(3)
            .build()
            .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let keygen = KeyGenerator::new(ctx.clone());
    let sk = keygen.secret_key(&mut rng);
    let rlk = keygen.relin_key(&mut rng, &sk);
    let gk = keygen.galois_keys(&mut rng, &sk, &[1], false);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());

    let values: Vec<Complex> = (0..encoder.slots())
        .map(|i| Complex::new((i as f64 * 0.01).sin(), 0.25))
        .collect();
    let pt = encoder.encode(&values, 6, ctx.params().scale()).unwrap();
    let ct = encryptor.encrypt_symmetric(&mut rng, &pt, &sk);

    c.bench_function("ckks/encode", |b| {
        b.iter(|| encoder.encode(&values, 6, ctx.params().scale()).unwrap())
    });
    c.bench_function("ckks/encrypt", |b| {
        b.iter(|| encryptor.encrypt_symmetric(&mut rng, &pt, &sk))
    });
    c.bench_function("ckks/add", |b| b.iter(|| evaluator.add(&ct, &ct)));
    c.bench_function("ckks/pt_mult", |b| b.iter(|| evaluator.mul_plain(&ct, &pt)));
    // Figure 4: `mul` runs the ModDown-merged sequence; the standard one
    // is kept as its reference.
    c.bench_function("ckks/mult", |b| b.iter(|| evaluator.mul(&ct, &ct, &rlk)));
    c.bench_function("ckks/mult_standard", |b| {
        b.iter(|| evaluator.mul_standard(&ct, &ct, &rlk))
    });
    c.bench_function("ckks/rotate", |b| b.iter(|| evaluator.rotate(&ct, 1, &gk)));
    c.bench_function("ckks/rescale", |b| b.iter(|| evaluator.rescale(&ct)));
}

criterion_group!(benches, bench);
criterion_main!(benches);
