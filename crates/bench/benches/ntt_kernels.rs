//! Criterion micro-benchmarks of the limb-wise and slot-wise kernels
//! (Table 3 of the paper): negacyclic NTT/iNTT, the fast basis extension
//! over flat limb-major buffers, the streaming single-word kernels, seeded
//! key expansion, and serial-vs-parallel comparisons of the
//! multithreaded kernels (full-poly NTT and hybrid key switching) at
//! production ring sizes N = 2^15 and 2^16.
use ckks::{CkksContext, CkksParams, KeyGenerator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fhe_math::backend::{DigitTerm, ScalarBackend, UnrolledBackend};
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::sampling::{sample_uniform_flat, SeededUniform};
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

/// The reference scalar kernels (`scalar` rows, called directly) against
/// the production lazy-reduction, radix-4 path (`unrolled` rows, through
/// the library's entry points) on the single-limb NTT, then on the two
/// accumulating kernels of a key switch (`NewLimb` and the digit-fused
/// inner product). N = 2^12..2^14 are the rings the benchmark serves;
/// N = 2^15 is the production ring size the kernel work targets.
///
/// The 50-bit primes are the workloads' limbs, so on a CPU with AVX-512
/// IFMA the `unrolled` rows time the IFMA transforms and multiply-accumulates;
/// the `unrolled-q55` rows take 55-bit primes, which keep the production
/// kernels on their portable paths everywhere.
fn bench_backend_comparison(c: &mut Criterion) {
    for log_n in [12u32, 13, 14, 15] {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 50, n)[0];
        let q55 = generate_ntt_primes(1, 55, n)[0];
        let mut group = c.benchmark_group(format!("ntt_backends_n{n}"));
        group.throughput(Throughput::Elements(n as u64));
        for (label, reference, q) in [
            ("scalar", true, q),
            ("unrolled", false, q),
            ("unrolled-q55", false, q55),
        ] {
            let mut rng = StdRng::seed_from_u64(5);
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let table = NttTable::new(q, n).unwrap();
            let forward = |d: &mut [u64]| {
                if reference {
                    ScalarBackend.ntt_forward(&table, d)
                } else {
                    table.forward(d)
                }
            };
            let inverse = |d: &mut [u64]| {
                if reference {
                    ScalarBackend.ntt_inverse(&table, d)
                } else {
                    table.inverse(d)
                }
            };
            group.bench_function(BenchmarkId::new(format!("{label}/forward"), n), |b| {
                b.iter_batched(
                    || data.clone(),
                    |mut d| {
                        forward(&mut d);
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
                        inverse(&mut d);
                        d
                    },
                    criterion::BatchSize::SmallInput,
                )
            });
        }
        group.finish();
    }

    // The fused basis-extension inner loops: the reference kernel over the
    // same slot blocks `extend_flat` splits the ring into, and
    // `extend_flat` itself — on 45/46-bit limbs, which take the IFMA lanes
    // where the CPU has them, and (`unrolled-q55`) on 55/56-bit limbs, which
    // keep the production kernel on its portable body everywhere.
    let n = 1usize << 12;
    let extender = |bits: u32| {
        let src_primes = generate_ntt_primes(8, bits, n);
        let dst_primes = generate_ntt_primes_excluding(4, bits + 1, n, &src_primes);
        let mut rng = StdRng::seed_from_u64(6);
        let src = sample_uniform_flat(&mut rng, &src_primes, n);
        let src_basis = RnsBasis::new(&src_primes, n).unwrap();
        let dst_basis = RnsBasis::new(&dst_primes, n).unwrap();
        (BasisExtender::new(&src_basis, &dst_basis), src)
    };
    let (ext, src) = extender(45);
    let mut group = c.benchmark_group(format!("basis_ext_backends_n{n}"));
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::new("scalar", n), |b| {
        let mut out = vec![0u64; ext.target_len() * n];
        let view = ext.view();
        b.iter(|| {
            let mut cols: Vec<&mut [u64]> = out.chunks_exact_mut(n).collect();
            fhe_math::parallel::for_each_slot_block(&mut cols, n, |range, cols| {
                ScalarBackend.basis_ext_block(&view, &src, n, range, cols);
            });
            out.last().copied()
        })
    });
    for (label, bits) in [("unrolled", 45), ("unrolled-q55", 55)] {
        let (ext, src) = extender(bits);
        group.bench_function(BenchmarkId::new(label, n), |b| {
            let mut out = vec![0u64; ext.target_len() * n];
            b.iter(|| {
                ext.extend_flat(&src, &mut out, n);
                out.last().copied()
            })
        });
    }
    group.finish();

    // The digit-fused key-switch inner product over one raised limb
    // (β = 3), reference and production: L1/L2-resident at 2^12, streaming
    // at 2^15. The `unrolled-q55` rows take a 55-bit prime, the portable
    // body on every CPU.
    for log_n in [12u32, 15] {
        let n = 1usize << log_n;
        let mut group = c.benchmark_group(format!("inner_product_n{n}"));
        group.throughput(Throughput::Elements(n as u64));
        for (label, reference, bits) in [
            ("scalar", true, 50),
            ("unrolled", false, 50),
            ("unrolled-q55", false, 55),
        ] {
            let q = generate_ntt_primes(1, bits, n)[0];
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
            group.bench_function(BenchmarkId::new(label, n), |b| {
                let (mut u, mut v) = (vec![0u64; n], vec![0u64; n]);
                b.iter(|| {
                    if reference {
                        ScalarBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
                    } else {
                        UnrolledBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
                    }
                    (u.last().copied(), v.last().copied())
                })
            });
        }
        group.finish();
    }
}

/// Three of the streaming kernels over one 2^14-word limb, the ring the
/// benchmark serves: `pointwise_add`, the rescale / `ModDown` combine
/// `sub_scale_shoup`, and `Rescale`'s centred lift from a modulus more
/// than twice the target (its lazy-Shoup arm). The `scalar` rows call the
/// reference loops. The `unrolled` rows take 50-bit limbs (the lift 50 →
/// 40 bits), which run on AVX-512 IFMA lanes where the CPU has them; the
/// `unrolled-q55` rows take 55-bit limbs (the lift 57 → 55 bits), which
/// keep the production kernel on its portable body everywhere.
fn bench_streaming(c: &mut Criterion) {
    let n = 1usize << 14;
    let mut group = c.benchmark_group(format!("streaming_n{n}"));
    group.throughput(Throughput::Elements(n as u64));
    for (label, reference, bits, lift_bits) in [
        ("scalar", true, 50, (50, 40)),
        ("unrolled", false, 50, (50, 40)),
        ("unrolled-q55", false, 55, (57, 55)),
    ] {
        let modulus = |bits| fhe_math::Modulus::new(generate_ntt_primes(1, bits, n)[0]).unwrap();
        let m = modulus(bits);
        let (from, to) = (modulus(lift_bits.0), modulus(lift_bits.1));
        let mut rng = StdRng::seed_from_u64(8);
        let mut limb = |q: u64| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
        let (a, b) = (limb(m.value()), limb(m.value()));
        let shifted = limb(from.value());
        let c = fhe_math::ShoupPair::new(&m, m.value() / 3);
        group.bench_function(BenchmarkId::new(format!("{label}/add"), n), |bench| {
            let mut dst = a.clone();
            bench.iter(|| {
                if reference {
                    ScalarBackend.pointwise_add(&m, &mut dst, &b);
                } else {
                    UnrolledBackend.pointwise_add(&m, &mut dst, &b);
                }
                dst.last().copied()
            })
        });
        group.bench_function(
            BenchmarkId::new(format!("{label}/sub_scale_shoup"), n),
            |bench| {
                let mut dst = a.clone();
                bench.iter(|| {
                    if reference {
                        ScalarBackend.sub_scale_shoup(&m, &b, &mut dst, c);
                    } else {
                        UnrolledBackend.sub_scale_shoup(&m, &b, &mut dst, c);
                    }
                    dst.last().copied()
                })
            },
        );
        group.bench_function(
            BenchmarkId::new(format!("{label}/lift_centered"), n),
            |bench| {
                let mut out = vec![0u64; n];
                bench.iter(|| {
                    if reference {
                        ScalarBackend.lift_centered(&from, &to, &shifted, &mut out);
                    } else {
                        UnrolledBackend.lift_centered(&from, &to, &shifted, &mut out);
                    }
                    out.last().copied()
                })
            },
        );
    }
    group.finish();
}

/// Seeded expansion of a switching key's `a_j` at the thrash ring's key
/// shape (N = 2^12, four digits of 15 limbs over `Q ∪ P`). The `q45` row
/// takes 45-bit limbs, which run on eight AVX-512 IFMA lanes where the CPU
/// has them; the `q55` row takes 55-bit limbs, which keep the serial body
/// everywhere.
fn bench_seed_expansion(c: &mut Criterion) {
    let n = 1usize << 12;
    let (count, limbs) = (4, 15);
    let mut group = c.benchmark_group(format!("seed_expand_n{n}"));
    group.throughput(Throughput::Elements((count * limbs * n) as u64));
    for (label, bits) in [("q45", 45), ("q55", 55)] {
        let expansion = SeededUniform::new(&generate_ntt_primes(limbs, bits, n), n, count);
        group.bench_function(BenchmarkId::new(label, n), |b| {
            b.iter(|| expansion.expand([7; 32]))
        });
    }
    group.finish();
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
    bench_streaming,
    bench_seed_expansion,
    bench_basis_extension,
    bench_serial_vs_parallel
);
criterion_main!(benches);
