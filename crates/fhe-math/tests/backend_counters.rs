//! Kernel-invariant operation accounting.
//!
//! Counters are recorded by the kernels' callers (`NttTable::forward`,
//! `extend_flat`, the `RnsPoly` ops) in *logical* units, never inside a
//! kernel, so the production kernels' blocking, lazy reduction and IFMA
//! lanes are invisible to the accounting. This regression test pins the
//! counts for a fixed workload.
//!
//! The NTT invocation counters (a view of the telemetry counters) are
//! process-global, so the whole check lives in one `#[test]` — this
//! file must not grow a second test or parallel test threads would race
//! the counts.

use fhe_math::backend::{ScalarBackend, UnrolledBackend};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{ntt, NttTable};

const N: usize = 64;
const FORWARD_RUNS: u64 = 3;
const INVERSE_RUNS: u64 = 2;

/// One fixed workload: a few transforms plus one basis extension.
fn workload() {
    let q = generate_ntt_primes(1, 50, N)[0];
    let table = NttTable::new(q, N).unwrap();
    let mut data: Vec<u64> = (0..N as u64).map(|k| k.wrapping_mul(0x9e37) % q).collect();
    for _ in 0..FORWARD_RUNS {
        table.forward(&mut data);
    }
    for _ in 0..INVERSE_RUNS {
        table.inverse(&mut data);
    }

    let src_primes = generate_ntt_primes(2, 45, N);
    let dst_primes = generate_ntt_primes_excluding(3, 46, N, &src_primes);
    let src = RnsBasis::new(&src_primes, N).unwrap();
    let dst = RnsBasis::new(&dst_primes, N).unwrap();
    let ext = BasisExtender::new(&src, &dst);
    let flat: Vec<u64> = src_primes
        .iter()
        .flat_map(|&q| (0..N as u64).map(move |k| k.wrapping_mul(0x1234_5677) % q))
        .collect();
    let mut out = vec![0u64; dst_primes.len() * N];
    ext.extend_flat(&flat, &mut out, N);
}

/// Counter deltas for one workload run.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    ntt_forward: u64,
    ntt_inverse: u64,
    telemetry: fhe_math::telemetry::Snapshot,
}

fn measure() -> Counts {
    ntt::counters::reset();
    fhe_math::telemetry::reset();
    workload();
    Counts {
        ntt_forward: ntt::counters::forward_count(),
        ntt_inverse: ntt::counters::inverse_count(),
        telemetry: fhe_math::telemetry::snapshot(),
    }
}

#[test]
fn op_counts_are_pinned() {
    let counts = measure();

    // Pin the invocation counts: they are properties of the workload, not
    // of the kernels.
    assert_eq!(counts.ntt_forward, FORWARD_RUNS);
    assert_eq!(counts.ntt_inverse, INVERSE_RUNS);

    let t = &counts.telemetry;
    assert_eq!(t.ntt_fwd, FORWARD_RUNS);
    assert_eq!(t.ntt_inv, INVERSE_RUNS);
    // Butterfly accounting: (n/2)·log2(n) mults per transform, and the
    // inverse adds an n-point `N^{-1}` scaling pass.
    let butterflies = (N as u64 / 2) * (N as u64).trailing_zeros() as u64;
    let transform_mults = (FORWARD_RUNS + INVERSE_RUNS) * butterflies + INVERSE_RUNS * N as u64;
    assert!(
        t.mults >= transform_mults,
        "expected at least {transform_mults} mults (transforms alone), got {}",
        t.mults
    );
    // NewLimb inner-product terms: src·dst per coefficient.
    assert_eq!(t.ext_terms, 2 * 3 * N as u64);

    // The kernels themselves record nothing, so the counts above are the
    // callers' whichever kernels run under them.
    let q = generate_ntt_primes(1, 50, N)[0];
    let table = NttTable::new(q, N).unwrap();
    let mut data = vec![1u64; N];
    fhe_math::telemetry::reset();
    UnrolledBackend.ntt_forward(&table, &mut data);
    UnrolledBackend.ntt_inverse(&table, &mut data);
    ScalarBackend.ntt_forward(&table, &mut data);
    ScalarBackend.ntt_inverse(&table, &mut data);
    assert_eq!(
        fhe_math::telemetry::snapshot(),
        fhe_math::telemetry::Snapshot::default()
    );
}
