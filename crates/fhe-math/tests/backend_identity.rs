//! Scalar-vs-unrolled bit-identity of the kernel backends.
//!
//! The [`fhe_math::KernelBackend`] contract says every backend produces
//! fully reduced canonical residues, so running the same kernel through
//! [`BackendKind::Scalar`] and [`BackendKind::Unrolled`] must yield
//! byte-for-byte equal buffers — lazy reduction, blocking, and the fused
//! basis-extension loops are all internal representation choices. These
//! tests pin that equality for every trait method at the `fhe-math` layer;
//! the scheme-level pipelines are covered by the `backend_identity` suites
//! in `ckks` and `fhe-apps`.
//!
//! The unrolled transforms take AVX-512 IFMA lanes for moduli below `2^50`
//! on a CPU that has them and the portable path otherwise; the transform
//! test's moduli fall on both sides. On a CPU without IFMA the suite still
//! passes, exercising the portable path only.

use fhe_math::backend::DigitTerm;
use fhe_math::poly::{mod_down, mod_up, pmod_up, rescale, ModDownContext, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{BackendKind, Modulus, NttTable, ShoupPair};
use std::sync::Arc;

const KINDS: [BackendKind; 2] = [BackendKind::Scalar, BackendKind::Unrolled];

/// Deterministic pseudo-random residues for limb `i` of a flat buffer.
fn random_flat(seed: u64, moduli: &[u64], n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(moduli.len() * n);
    for (i, &q) in moduli.iter().enumerate() {
        for k in 0..n as u64 {
            let x = seed
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((i as u64) << 32)
                .wrapping_add(k)
                .wrapping_mul(0xd1342543de82ef95);
            out.push(x % q);
        }
    }
    out
}

/// Runs `f` once per backend kind and asserts both results are equal.
fn assert_backends_agree<T: PartialEq + std::fmt::Debug>(f: impl Fn(BackendKind) -> T) {
    let scalar = f(BackendKind::Scalar);
    let unrolled = f(BackendKind::Unrolled);
    assert_eq!(scalar, unrolled, "scalar and unrolled backends diverged");
}

#[test]
fn ntt_round_trip_is_bit_identical_across_sizes_and_moduli() {
    for log_n in [4usize, 6, 8, 10] {
        let n = 1usize << log_n;
        for bits in [30u32, 40, 49, 50, 61] {
            let q = generate_ntt_primes(1, bits, n)[0];
            let input = random_flat(q ^ n as u64, &[q], n);
            assert_backends_agree(|kind| {
                let table = NttTable::with_backend(q, n, kind.instance()).unwrap();
                let mut fwd = input.clone();
                table.forward(&mut fwd);
                let mut back = fwd.clone();
                table.inverse(&mut back);
                assert_eq!(back, input, "{kind:?} round trip lost data (n={n}, q={q})");
                fwd
            });
        }
    }
}

#[test]
fn pointwise_kernels_are_bit_identical() {
    let n = 257usize; // odd length exercises the blocked remainder path
    let q = generate_ntt_primes(1, 55, 256)[0];
    let m = Modulus::new(q).unwrap();
    let a = random_flat(11, &[q], n);
    let b = random_flat(22, &[q], n);
    let d = random_flat(33, &[q], n);
    let c = ShoupPair::new(&m, m.reduce(0x1234_5678_9abc_def0));

    assert_backends_agree(|kind| {
        let be = kind.instance();
        let mut add = a.clone();
        be.pointwise_add(&m, &mut add, &b);
        let mut sub = a.clone();
        be.pointwise_sub(&m, &mut sub, &b);
        let mut neg = a.clone();
        be.pointwise_neg(&m, &mut neg);
        let mut mul = a.clone();
        be.pointwise_mul(&m, &mut mul, &b);
        let mut into = vec![0u64; n];
        be.pointwise_mul_into(&m, &a, &b, &mut into);
        assert_eq!(into, mul, "{kind:?}: mul_into disagrees with in-place mul");
        let mut fma = d.clone();
        be.pointwise_mul_add(&m, &mut fma, &a, &b);
        for k in 0..n {
            assert_eq!(fma[k], m.add(d[k], mul[k]), "{kind:?} fma[{k}]");
        }
        let mut scaled = a.clone();
        be.scale_shoup(&m, &mut scaled, c);
        let mut combined = b.clone();
        be.sub_scale_shoup(&m, &a, &mut combined, c);
        let mut plus = a.clone();
        be.add_scalar(&m, &mut plus, q / 3);
        let mut minus = a.clone();
        be.sub_scalar(&m, &mut minus, q / 3);
        // Two digits; the accumulators start dirty because the kernel
        // must overwrite, not add to, them.
        let terms = [
            DigitTerm {
                d: &d,
                a: &b,
                b: &a,
            },
            DigitTerm {
                d: &a,
                a: &d,
                b: &b,
            },
        ];
        let (mut u, mut v) = (a.clone(), b.clone());
        be.inner_product_pair(&m, &terms, &mut u, &mut v);
        for k in 0..n {
            assert_eq!(
                u[k],
                m.mul_add(a[k], d[k], m.mul(d[k], b[k])),
                "{kind:?} u[{k}]"
            );
            assert_eq!(
                v[k],
                m.mul_add(a[k], b[k], m.mul(d[k], a[k])),
                "{kind:?} v[{k}]"
            );
        }
        (add, sub, neg, mul, fma, scaled, combined, plus, minus, u, v)
    });
}

#[test]
fn basis_extension_is_bit_identical() {
    let n = 128usize;
    let src_primes = generate_ntt_primes(3, 45, n);
    let dst_primes = generate_ntt_primes_excluding(2, 46, n, &src_primes);
    let flat = random_flat(77, &src_primes, n);
    assert_backends_agree(|kind| {
        let src = RnsBasis::with_backend(&src_primes, n, kind.instance()).unwrap();
        let dst = RnsBasis::with_backend(&dst_primes, n, kind.instance()).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        let mut out = vec![0u64; dst_primes.len() * n];
        ext.extend_flat(&flat, &mut out, n);
        out
    });
}

#[test]
fn mod_up_down_and_rescale_are_bit_identical() {
    let n = 64usize;
    let q_primes = generate_ntt_primes(3, 40, n);
    let p_primes = generate_ntt_primes_excluding(2, 41, n, &q_primes);
    let flat = random_flat(99, &q_primes, n);
    assert_backends_agree(|kind| {
        let q_basis = Arc::new(RnsBasis::with_backend(&q_primes, n, kind.instance()).unwrap());
        let p_basis = RnsBasis::with_backend(&p_primes, n, kind.instance()).unwrap();
        let ext = BasisExtender::new(&q_basis, &p_basis);
        let ctx = ModDownContext::new(q_basis.clone(), &p_basis);

        let poly = RnsPoly::from_flat(q_basis.clone(), flat.clone(), Representation::Evaluation);
        let raised = mod_up(&poly, &p_basis, &ext);
        let lowered = mod_down(&raised, &ctx);
        let praised = pmod_up(&poly, &p_basis);
        let rescaled = rescale(&poly);
        let mut all = raised.flat().to_vec();
        all.extend_from_slice(lowered.flat());
        all.extend_from_slice(praised.flat());
        all.extend_from_slice(rescaled.flat());
        all
    });
}

#[test]
fn full_poly_pipeline_is_bit_identical() {
    let n = 256usize;
    let primes = generate_ntt_primes(4, 50, n);
    let fa = random_flat(5, &primes, n);
    let fb = random_flat(6, &primes, n);
    assert_backends_agree(|kind| {
        let basis = Arc::new(RnsBasis::with_backend(&primes, n, kind.instance()).unwrap());
        let mut a = RnsPoly::from_flat(basis.clone(), fa.clone(), Representation::Coefficient);
        let mut b = RnsPoly::from_flat(basis.clone(), fb.clone(), Representation::Coefficient);
        a.to_eval();
        b.to_eval();
        let mut prod = RnsPoly::from_flat(basis, a.flat().to_vec(), Representation::Evaluation);
        prod.mul_assign_pointwise(&b);
        prod.add_assign(&a);
        prod.sub_assign(&b);
        prod.mul_scalar_assign(0x0123_4567_89ab_cdef);
        prod.negate();
        prod.to_coeff();
        prod.flat().to_vec()
    });
}

const KIND_NAMES: [(&str, BackendKind); 2] = [
    ("scalar", BackendKind::Scalar),
    ("unrolled", BackendKind::Unrolled),
];

#[test]
fn backend_names_round_trip_through_selection() {
    for (name, kind) in KIND_NAMES {
        assert_eq!(kind.name(), name);
        assert_eq!(kind.instance().name(), name);
    }
    for kind in KINDS {
        let table = NttTable::with_backend(65537, 16, kind.instance()).unwrap();
        assert_eq!(table.backend().name(), kind.name());
    }
}
