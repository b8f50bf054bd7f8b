//! Telemetry counter and span semantics: reset, bulk recording, inclusive
//! nesting, and a memory trace that holds touches and no spans.
//!
//! The counters are process-global by design (every thread that runs
//! kernels — a server's workers — counts into the one total), so these
//! assertions live in their own integration-test binary — Cargo gives it a
//! dedicated process — and run as a single sequential test function rather
//! than racing under the threaded test runner.

use fhe_math::prime::generate_ntt_primes;
use fhe_math::telemetry;
use fhe_math::{NttTable, ScratchPool};

#[test]
fn counter_and_span_semantics() {
    // --- reset() zeroes everything -------------------------------------
    telemetry::record_ops(3, 4);
    telemetry::reset();
    assert_eq!(telemetry::snapshot(), telemetry::Snapshot::default());

    // --- bulk recording feeds the matching counters --------------------
    telemetry::record_ops(10, 20);
    telemetry::record_basis_ext(2, 3, 5);
    let snap = telemetry::snapshot();
    // record_basis_ext: per coeff, src + src·dst + dst mults and
    // src·dst + dst adds over n = 5 coefficients.
    assert_eq!(snap.mults, 10 + 5 * (2 + 6 + 3));
    assert_eq!(snap.adds, 20 + 5 * (6 + 3));
    assert_eq!(snap.ext_terms, 5 * 6);

    // --- NTT hooks count whole-limb transforms and butterfly ops -------
    telemetry::reset();
    let n = 16usize;
    let q = generate_ntt_primes(1, 30, n)[0];
    let table = NttTable::new(q, n).unwrap();
    let mut data: Vec<u64> = (0..n as u64).collect();
    table.forward(&mut data);
    table.inverse(&mut data);
    let b = table.butterfly_count();
    let snap = telemetry::snapshot();
    assert_eq!(snap.ntt_fwd, 1);
    assert_eq!(snap.ntt_inv, 1);
    assert_eq!(snap.transforms(), 2);
    // Forward: b mults. Inverse: b butterflies + n normalization mults.
    assert_eq!(snap.mults, 2 * b + n as u64);
    assert_eq!(snap.adds, 4 * b);

    // --- scratch leases are the pool's count, not a counter's -----------
    telemetry::reset();
    let pool = ScratchPool::new();
    let buf = pool.take_vec(128);
    pool.recycle_vec(buf);
    let _guard = pool.take(64);
    assert_eq!(pool.stats().leases, 2);
    assert_eq!(telemetry::snapshot(), telemetry::Snapshot::default());

    // --- spans: a capturing thread reads each span's delta ------------
    telemetry::reset();
    drop(telemetry::span("uncaptured"));
    assert!(telemetry::capture_spans(8).is_empty(), "capture starts off");
    {
        let _s = telemetry::span("phase");
        telemetry::record_ops(7, 0);
    }
    {
        let _s = telemetry::span("phase");
        telemetry::record_ops(5, 1);
    }
    let spans = telemetry::capture_spans(8);
    let ops: Vec<_> = spans
        .iter()
        .map(|s| (s.name, s.ops.mults, s.ops.adds))
        .collect();
    assert_eq!(ops, [("phase", 7, 0), ("phase", 5, 1)]);

    // --- nesting is inclusive: inner ops count toward the outer span ---
    telemetry::reset();
    {
        let _outer = telemetry::span("outer");
        telemetry::record_ops(1, 0);
        {
            let _inner = telemetry::span("inner");
            telemetry::record_ops(2, 0);
        }
        telemetry::record_ops(4, 0);
    }
    let spans = telemetry::capture_spans(8);
    let (outer, inner) = (spans[0], spans[1]);
    assert_eq!((outer.name, inner.name), ("outer", "inner"));
    assert_eq!(inner.ops.mults, 2, "inner sees only its own window");
    assert_eq!(outer.ops.mults, 7, "outer includes the nested span");

    // --- a reset between a span's open and close must not panic --------
    telemetry::reset();
    {
        let _s = telemetry::span("crosses-reset");
        telemetry::record_ops(9, 9);
        telemetry::reset();
    }
    let spans = telemetry::capture_spans(0);
    assert_eq!(spans[0].name, "crosses-reset");
    assert_eq!(spans[0].ops.mults, 0, "delta saturates after reset");

    // --- the memory trace carries bytes only: spans leave no record ----
    let tag = telemetry::OperandTag::scratch();
    telemetry::trace_start();
    {
        let _outer = telemetry::span("outer");
        let _inner = telemetry::span("inner");
        telemetry::record_touch(tag, true, 0, 64);
    }
    drop(telemetry::span("after"));
    let records = telemetry::trace_stop();
    assert_eq!(
        records,
        [telemetry::TraceRecord::Touch {
            tag,
            write: true,
            offset: 0,
            bytes: 64,
        }],
        "a span opened while a trace records must leave nothing in it"
    );
}
