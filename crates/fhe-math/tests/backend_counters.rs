//! Backend-invariant operation accounting.
//!
//! Counters are recorded at the dispatch sites (`NttTable::forward`,
//! `extend_flat`, the `RnsPoly` ops) in *logical* units, never inside a
//! backend, so every backend reports the same numbers for the same work —
//! the unrolled backend's blocking and lazy reduction are invisible to the
//! accounting. This regression test pins the counts for a fixed workload
//! under both backends.
//!
//! The NTT invocation counters (a view of the telemetry counters) are
//! process-global, so the whole check lives in one `#[test]` — this
//! file must not grow a second test or parallel test threads would race
//! the counts.

use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{ntt, BackendKind, NttTable};

const N: usize = 64;
const FORWARD_RUNS: u64 = 3;
const INVERSE_RUNS: u64 = 2;

/// One fixed workload: a few transforms plus one basis extension.
fn workload(kind: BackendKind) {
    let q = generate_ntt_primes(1, 50, N)[0];
    let table = NttTable::with_backend(q, N, kind.instance()).unwrap();
    let mut data: Vec<u64> = (0..N as u64).map(|k| k.wrapping_mul(0x9e37) % q).collect();
    for _ in 0..FORWARD_RUNS {
        table.forward(&mut data);
    }
    for _ in 0..INVERSE_RUNS {
        table.inverse(&mut data);
    }

    let src_primes = generate_ntt_primes(2, 45, N);
    let dst_primes = generate_ntt_primes_excluding(3, 46, N, &src_primes);
    let src = RnsBasis::with_backend(&src_primes, N, kind.instance()).unwrap();
    let dst = RnsBasis::with_backend(&dst_primes, N, kind.instance()).unwrap();
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

fn measure(kind: BackendKind) -> Counts {
    ntt::counters::reset();
    fhe_math::telemetry::reset();
    workload(kind);
    Counts {
        ntt_forward: ntt::counters::forward_count(),
        ntt_inverse: ntt::counters::inverse_count(),
        telemetry: fhe_math::telemetry::snapshot(),
    }
}

#[test]
fn op_counts_are_identical_across_backends_and_pinned() {
    let scalar = measure(BackendKind::Scalar);
    let unrolled = measure(BackendKind::Unrolled);
    assert_eq!(
        scalar, unrolled,
        "backends must record identical logical op counts"
    );

    // Pin the invocation counts: they are properties of the workload, not
    // of the backend.
    assert_eq!(scalar.ntt_forward, FORWARD_RUNS);
    assert_eq!(scalar.ntt_inverse, INVERSE_RUNS);

    let t = &scalar.telemetry;
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
}
