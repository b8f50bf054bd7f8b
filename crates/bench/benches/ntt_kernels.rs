//! Criterion micro-benchmarks of the limb-wise and slot-wise kernels
//! (Table 3 of the paper): negacyclic NTT/iNTT, the fast basis extension
//! over flat limb-major buffers, and serial-vs-parallel comparisons of the
//! multithreaded kernels (full-poly NTT and hybrid key switching) at
//! production ring sizes N = 2^15 and 2^16.
use ckks::{CkksContext, CkksParams, KeyGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fhe_math::backend::DigitTerm;
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::sampling::sample_uniform_flat;
use fhe_math::NttTable;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn bench_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt");
    for log_n in [10u32, 12, 14] {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 50, n)[0];
        let table = NttTable::new(q, n).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("forward", n), &n, |b, _| {
            b.iter_batched(
                || data.clone(),
                |mut d| {
                    table.forward(&mut d);
                    d
                },
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("inverse", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut d = data.clone();
                    table.forward(&mut d);
                    d
                },
                |mut d| {
                    table.inverse(&mut d);
                    d
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// Scalar vs unrolled (lazy-reduction, radix-4) kernel backends on the
/// single-limb NTT — the headline readout for the `KernelBackend` layer —
/// then on the two accumulating kernels of a key switch (`NewLimb` and the
/// digit-fused inner product). N = 2^12..2^14 are the rings the benchmark
/// serves; N = 2^15 is the production ring size the backend work targets.
///
/// The 50-bit primes are the workloads' limbs, so on a CPU with AVX-512
/// IFMA the `unrolled` rows time the IFMA transform; the `unrolled-q55`
/// rows take a 55-bit prime, which keeps the unrolled backend on its
/// portable transform everywhere.
fn bench_backend_comparison(c: &mut Criterion) {
    use fhe_math::BackendKind;
    for log_n in [12u32, 13, 14, 15] {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 50, n)[0];
        let q55 = generate_ntt_primes(1, 55, n)[0];
        let mut group = c.benchmark_group(format!("ntt_backends_n{n}"));
        group.throughput(Throughput::Elements(n as u64));
        for (label, kind, q) in [
            ("scalar", BackendKind::Scalar, q),
            ("unrolled", BackendKind::Unrolled, q),
            ("unrolled-q55", BackendKind::Unrolled, q55),
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let table = NttTable::with_backend(q, n, kind.instance()).unwrap();
            group.bench_function(BenchmarkId::new(format!("{label}/forward"), n), |b| {
                b.iter_batched(
                    || data.clone(),
                    |mut d| {
                        table.forward(&mut d);
                        d
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
            group.bench_function(BenchmarkId::new(format!("{label}/inverse"), n), |b| {
                b.iter_batched(
                    || {
                        let mut d = data.clone();
                        table.forward(&mut d);
                        d
                    },
                    |mut d| {
                        table.inverse(&mut d);
                        d
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
        group.finish();
    }

    // The fused basis-extension inner loops, per backend.
    let n = 1usize << 12;
    let src_primes = generate_ntt_primes(8, 45, n);
    let dst_primes = generate_ntt_primes_excluding(4, 46, n, &src_primes);
    let mut rng = StdRng::seed_from_u64(6);
    let src = sample_uniform_flat(&mut rng, &src_primes, n);
    let mut group = c.benchmark_group(format!("basis_ext_backends_n{n}"));
    group.throughput(Throughput::Elements(n as u64));
    for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
        let src_basis = RnsBasis::with_backend(&src_primes, n, kind.instance()).unwrap();
        let dst_basis = RnsBasis::with_backend(&dst_primes, n, kind.instance()).unwrap();
        let ext = BasisExtender::new(&src_basis, &dst_basis);
        group.bench_function(BenchmarkId::new(kind.name(), n), |b| {
            let mut out = vec![0u64; dst_primes.len() * n];
            b.iter(|| {
                ext.extend_flat(&src, &mut out, n);
                out.last().copied()
            })
        });
    }
    group.finish();

    // The digit-fused key-switch inner product over one raised limb
    // (β = 3), per backend: L1/L2-resident at 2^12, streaming at 2^15.
    for log_n in [12u32, 15] {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 50, n)[0];
        let m = fhe_math::Modulus::new(q).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let operands: Vec<Vec<u64>> = (0..9)
            .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
            .collect();
        let terms: Vec<DigitTerm<'_>> = operands
            .chunks_exact(3)
            .map(|t| DigitTerm {
                d: &t[0],
                a: &t[1],
                b: &t[2],
            })
            .collect();
        let mut group = c.benchmark_group(format!("inner_product_n{n}"));
        group.throughput(Throughput::Elements(n as u64));
        for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
            let backend = kind.instance();
            group.bench_function(BenchmarkId::new(kind.name(), n), |b| {
                let (mut u, mut v) = (vec![0u64; n], vec![0u64; n]);
                b.iter(|| {
                    backend.inner_product_pair(&m, &terms, &mut u, &mut v);
                    (u.last().copied(), v.last().copied())
                })
            });
        }
        group.finish();
    }
}

fn bench_basis_extension(c: &mut Criterion) {
    let mut group = c.benchmark_group("basis_extension");
    let n = 1usize << 12;
    for src_limbs in [4usize, 8, 12] {
        let src_primes = generate_ntt_primes(src_limbs, 45, n);
        let dst_primes = generate_ntt_primes_excluding(4, 46, n, &src_primes);
        let src_basis = RnsBasis::new(&src_primes, n).unwrap();
        let dst_basis = RnsBasis::new(&dst_primes, n).unwrap();
        let ext = BasisExtender::new(&src_basis, &dst_basis);
        let mut rng = StdRng::seed_from_u64(2);
        let src = sample_uniform_flat(&mut rng, &src_primes, n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("extend_flat", src_limbs),
            &src_limbs,
            |b, _| {
                let mut out = vec![0u64; 4 * n];
                b.iter(|| {
                    ext.extend_flat(&src, &mut out, n);
                    out.last().copied()
                })
            },
        );
    }
    group.finish();
}

/// `serial` forces the limb loops onto the calling thread; `parallel` is
/// the unforced rule of `fhe_math::parallel` — what a library user gets.
const THREAD_ROWS: [(&str, Option<bool>); 2] = [("serial", Some(false)), ("parallel", None)];

/// Serial-vs-threaded readout of the limb-parallel kernels: full-poly NTT
/// at production ring sizes, and a hybrid key switch from one caller and
/// from two at once (where the rule should leave both on their own
/// thread, so the two rows should read alike).
fn bench_serial_vs_parallel(c: &mut Criterion) {
    for log_n in [15u32, 16] {
        let n = 1usize << log_n;
        let limbs = 8usize;
        let primes = generate_ntt_primes(limbs, 45, n);
        let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
        let mut rng = StdRng::seed_from_u64(3);
        let flat = sample_uniform_flat(&mut rng, &primes, n);
        let poly = RnsPoly::from_flat(basis, flat, Representation::Coefficient);
        let mut group = c.benchmark_group(format!("ntt_full_poly_n{n}"));
        group.throughput(Throughput::Elements((limbs * n) as u64));
        for (label, forced) in THREAD_ROWS {
            group.bench_function(BenchmarkId::new(label, n), |b| {
                fhe_math::parallel::set_forced(forced);
                b.iter_batched(
                    || poly.clone(),
                    |mut p| {
                        p.to_eval();
                        p
                    },
                    criterion::BatchSize::LargeInput,
                );
                fhe_math::parallel::set_forced(None);
            });
        }
        group.finish();
    }

    for (callers, log_n) in [(1usize, 13u32), (1, 15), (1, 16), (2, 13), (2, 15)] {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(log_n)
                .levels(6)
                .scale_bits(40)
                .first_modulus_bits(50)
                .dnum(3)
                .build()
                .unwrap(),
        );
        let n = ctx.params().degree();
        let mut rng = StdRng::seed_from_u64(4);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&mut rng, &sk);
        let ksk = rlk.switching_key();
        let basis = ctx.level_basis(6).clone();
        let moduli: Vec<u64> = basis.moduli().iter().map(|m| m.value()).collect();
        let x = RnsPoly::from_flat(
            basis,
            sample_uniform_flat(&mut rng, &moduli, n),
            Representation::Evaluation,
        );
        let switch = || {
            let (v, u) = ckks::keyswitch::keyswitch(&ctx, &x, ksk);
            v.recycle(ctx.scratch());
            u.recycle(ctx.scratch());
        };
        let name = ["keyswitch", "keyswitch_two_callers"][callers - 1];
        let mut group = c.benchmark_group(format!("{name}_n{n}"));
        group.sample_size(10);
        for (label, forced) in THREAD_ROWS {
            group.bench_function(BenchmarkId::new(label, n), |b| {
                fhe_math::parallel::set_forced(forced);
                // One key switch per caller per iteration, the extra
                // callers on scoped threads beside the timed one.
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 1..callers {
                            scope.spawn(switch);
                        }
                        switch();
                    })
                });
                fhe_math::parallel::set_forced(None);
            });
        }
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_ntt,
    bench_backend_comparison,
    bench_basis_extension,
    bench_serial_vs_parallel
);
criterion_main!(benches);
