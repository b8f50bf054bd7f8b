//! Bit-identity of the production kernels with the reference ones.
//!
//! Every kernel emits fully reduced canonical residues, so the reference
//! [`ScalarBackend`] and the production entry points — [`NttTable`]'s
//! transforms, the `RnsPoly` ops, [`BasisExtender::extend_flat`] and
//! [`UnrolledBackend::inner_product_pair`] — must yield byte-for-byte
//! equal buffers on the same inputs: lazy reduction, blocking, and the
//! fused basis-extension loops are all internal representation choices.
//! The ring pipelines above them (`ModUp` / `ModDown` / `Rescale` /
//! `PModUp`, and an NTT–multiply–add chain) are pinned by digest; the
//! scheme-level pipelines are pinned the same way by the `backend_identity`
//! suites in `ckks` and `fhe-apps`.
//!
//! The production transforms, multiply-accumulates and streaming kernels
//! take AVX-512 IFMA lanes for moduli below `2^50` on a CPU that has them
//! and the portable path otherwise; the transform, multiply-accumulate and
//! streaming tests' moduli fall on both sides. On a CPU without IFMA the suite still passes, exercising
//! the portable path only.

use fhe_math::backend::{DigitTerm, ScalarBackend, UnrolledBackend};
use fhe_math::poly::{mod_down, mod_up, pmod_up, rescale, ModDownContext, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{Modulus, NttTable, ShoupPair};
use std::sync::Arc;

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

/// FNV-1a over a byte stream: a dependency-free digest for the pinned
/// outputs below.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a of `words`' little-endian bytes.
fn digest(words: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in words {
        fnv1a(&mut hash, &w.to_le_bytes());
    }
    hash
}

#[test]
fn ntt_round_trip_is_bit_identical_across_sizes_and_moduli() {
    for log_n in [4usize, 6, 8, 10] {
        let n = 1usize << log_n;
        for bits in [30u32, 40, 49, 50, 61] {
            let q = generate_ntt_primes(1, bits, n)[0];
            let input = random_flat(q ^ n as u64, &[q], n);
            let table = NttTable::new(q, n).unwrap();
            let mut reference = input.clone();
            ScalarBackend.ntt_forward(&table, &mut reference);
            let mut fwd = input.clone();
            table.forward(&mut fwd);
            assert_eq!(fwd, reference, "forward diverged (n={n}, q={q})");
            ScalarBackend.ntt_inverse(&table, &mut reference);
            table.inverse(&mut fwd);
            assert_eq!(fwd, reference, "inverse diverged (n={n}, q={q})");
            assert_eq!(fwd, input, "round trip lost data (n={n}, q={q})");
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
    // Two digits; the accumulators start dirty because the kernel must
    // overwrite, not add to, them.
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

    // Every kernel on one kernel set, outputs in a tuple.
    macro_rules! kernels {
        ($k:expr) => {{
            let mut add = a.clone();
            $k.pointwise_add(&m, &mut add, &b);
            let mut sub = a.clone();
            $k.pointwise_sub(&m, &mut sub, &b);
            let mut neg = a.clone();
            $k.pointwise_neg(&m, &mut neg);
            let mut mul = a.clone();
            $k.pointwise_mul(&m, &mut mul, &b);
            let mut into = vec![0u64; n];
            $k.pointwise_mul_into(&m, &a, &b, &mut into);
            let mut fma = d.clone();
            $k.pointwise_mul_add(&m, &mut fma, &a, &b);
            let mut scaled = a.clone();
            $k.scale_shoup(&m, &mut scaled, c);
            let mut combined = b.clone();
            $k.sub_scale_shoup(&m, &a, &mut combined, c);
            let mut plus = a.clone();
            $k.add_scalar(&m, &mut plus, q / 3);
            let mut minus = a.clone();
            $k.sub_scalar(&m, &mut minus, q / 3);
            let (mut u, mut v) = (a.clone(), b.clone());
            $k.inner_product_pair(&m, &terms, &mut u, &mut v);
            (
                add, sub, neg, mul, into, fma, scaled, combined, plus, minus, u, v,
            )
        }};
    }
    let reference = kernels!(ScalarBackend);
    let (add, sub, neg, mul, into, fma, scaled, _, _, _, u, v) = &reference;
    assert_eq!(into, mul, "mul_into disagrees with in-place mul");
    for k in 0..n {
        assert_eq!(fma[k], m.add(d[k], mul[k]), "fma[{k}]");
        assert_eq!(u[k], m.mul_add(a[k], d[k], m.mul(d[k], b[k])), "u[{k}]");
        assert_eq!(v[k], m.mul_add(a[k], b[k], m.mul(d[k], a[k])), "v[{k}]");
    }
    assert_eq!(kernels!(UnrolledBackend), reference, "kernel sets diverged");

    // The same kernels through the `RnsPoly` ops, over a one-limb ring of
    // degree 256: the kernels are slot-wise, so each op must match the
    // first 256 words of the reference.
    let n = 256usize;
    let basis = Arc::new(RnsBasis::new(&[q], n).unwrap());
    let poly =
        |w: &[u64]| RnsPoly::from_flat(basis.clone(), w[..n].to_vec(), Representation::Evaluation);
    let (pa, pb, pd) = (poly(&a), poly(&b), poly(&d));
    let mut got = pa.clone();
    got.add_assign(&pb);
    assert_eq!(got.flat(), &add[..n], "add_assign");
    let mut got = pa.clone();
    got.sub_assign(&pb);
    assert_eq!(got.flat(), &sub[..n], "sub_assign");
    let mut got = pa.clone();
    got.negate();
    assert_eq!(got.flat(), &neg[..n], "negate");
    let mut got = pa.clone();
    got.mul_assign_pointwise(&pb);
    assert_eq!(got.flat(), &mul[..n], "mul_assign_pointwise");
    let mut got = pd.clone();
    pa.mul_pointwise_into(&pb, &mut got);
    assert_eq!(got.flat(), &mul[..n], "mul_pointwise_into");
    let mut got = pd.clone();
    got.mul_add_assign_pointwise(&pa, &pb);
    assert_eq!(got.flat(), &fma[..n], "mul_add_assign_pointwise");
    let mut got = pa.clone();
    got.mul_scalar_assign(c.value);
    assert_eq!(got.flat(), &scaled[..n], "mul_scalar_assign");
}

/// The multiply-accumulate kernel's entry points against the reference on
/// both sides of the IFMA lanes' `2^50` bound: the three pointwise products,
/// and the inner product at β = 5 and β = 7, digit counts that used to run
/// the reference loop itself. Random and all-`(q − 1)` operands over a slot
/// count with a ragged tail after the last 8-slot block.
#[test]
fn multiply_accumulate_is_bit_identical_on_both_sides_of_2_pow_50() {
    let n = 259usize;
    for bits in [40u32, 50, 51, 55] {
        let q = generate_ntt_primes(1, bits, 256)[0];
        let m = Modulus::new(q).unwrap();
        for saturated in [false, true] {
            let limb = |seed: u64| {
                if saturated {
                    vec![q - 1; n]
                } else {
                    random_flat(seed, &[q], n)
                }
            };
            let (a, b, c) = (limb(1), limb(2), limb(3));
            let case = format!("{bits}-bit, saturated: {saturated}");

            let (mut reference, mut production) = (a.clone(), a.clone());
            ScalarBackend.pointwise_mul(&m, &mut reference, &b);
            UnrolledBackend.pointwise_mul(&m, &mut production, &b);
            assert_eq!(production, reference, "pointwise_mul, {case}");
            let (mut reference, mut production) = (c.clone(), c.clone());
            ScalarBackend.pointwise_mul_into(&m, &a, &b, &mut reference);
            UnrolledBackend.pointwise_mul_into(&m, &a, &b, &mut production);
            assert_eq!(production, reference, "pointwise_mul_into, {case}");
            let (mut reference, mut production) = (c.clone(), c.clone());
            ScalarBackend.pointwise_mul_add(&m, &mut reference, &a, &b);
            UnrolledBackend.pointwise_mul_add(&m, &mut production, &a, &b);
            assert_eq!(production, reference, "pointwise_mul_add, {case}");

            for beta in [5usize, 7] {
                let operands: Vec<Vec<u64>> = (0..3 * beta as u64).map(|i| limb(10 + i)).collect();
                let terms: Vec<DigitTerm<'_>> = operands
                    .chunks_exact(3)
                    .map(|t| DigitTerm {
                        d: &t[0],
                        a: &t[1],
                        b: &t[2],
                    })
                    .collect();
                let (mut u, mut v) = (a.clone(), b.clone());
                ScalarBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
                let (mut pu, mut pv) = (a.clone(), b.clone());
                UnrolledBackend.inner_product_pair(&m, &terms, &mut pu, &mut pv);
                assert_eq!((pu, pv), (u, v), "inner product, β = {beta}, {case}");
            }
        }
    }
}

/// The streaming kernel's entry points against the reference on both
/// sides of the IFMA lanes' `2^50` bound: add, sub and their `_into` forms,
/// neg, the scalar ops at `c ∈ {0, q − 1}` and a random `c`, and both
/// Shoup scalings with those constants — random and all-`(q − 1)` operands
/// over a slot count with a ragged tail after the last 8-slot block.
#[test]
fn streaming_kernels_are_bit_identical_on_both_sides_of_2_pow_50() {
    let n = 259usize;
    for bits in [40u32, 50, 51, 55] {
        let q = generate_ntt_primes(1, bits, 256)[0];
        let m = Modulus::new(q).unwrap();
        for saturated in [false, true] {
            let limb = |seed: u64| {
                if saturated {
                    vec![q - 1; n]
                } else {
                    random_flat(seed, &[q], n)
                }
            };
            let (a, b) = (limb(1), limb(2));
            for c in [0, q - 1, q / 3] {
                let case = format!("{bits}-bit, saturated: {saturated}, c = {c}");
                let s = ShoupPair::new(&m, c);
                macro_rules! kernels {
                    ($k:expr) => {{
                        let mut add = a.clone();
                        $k.pointwise_add(&m, &mut add, &b);
                        let mut add_into = vec![u64::MAX; n];
                        $k.pointwise_add_into(&m, &a, &b, &mut add_into);
                        let mut sub = a.clone();
                        $k.pointwise_sub(&m, &mut sub, &b);
                        let mut sub_into = vec![u64::MAX; n];
                        $k.pointwise_sub_into(&m, &a, &b, &mut sub_into);
                        let mut neg = a.clone();
                        $k.pointwise_neg(&m, &mut neg);
                        let mut plus = a.clone();
                        $k.add_scalar(&m, &mut plus, c);
                        let mut minus = a.clone();
                        $k.sub_scalar(&m, &mut minus, c);
                        let mut scaled = a.clone();
                        $k.scale_shoup(&m, &mut scaled, s);
                        let mut combined = b.clone();
                        $k.sub_scale_shoup(&m, &a, &mut combined, s);
                        [
                            add, add_into, sub, sub_into, neg, plus, minus, scaled, combined,
                        ]
                    }};
                }
                let reference = kernels!(ScalarBackend);
                assert_eq!(reference[0], reference[1], "add_into, {case}");
                assert_eq!(reference[2], reference[3], "sub_into, {case}");
                assert_eq!(kernels!(UnrolledBackend), reference, "{case}");
            }
        }
    }
}

/// `Rescale`'s centred lift against the reference for a source modulus at
/// most twice the target (the conditional-subtraction arm), between twice
/// the target and `2^50` (the lazy Shoup product on lanes), and at or
/// above `2^50`, which takes the portable body: shifted words at both ends
/// of the source range and in between, on a ragged slot count.
#[test]
fn centred_lift_is_bit_identical_on_both_sides_of_2_pow_50() {
    let n = 43usize;
    let prime = |bits: u32| Modulus::new(generate_ntt_primes(1, bits, 256)[0]).unwrap();
    for (from_bits, to_bits) in [
        (40, 40),
        (40, 50),
        (49, 49),
        (50, 40),
        (50, 45),
        (51, 40),
        (55, 50),
        (61, 49),
    ] {
        let (from, to) = (prime(from_bits), prime(to_bits));
        let f = from.value();
        let mut shifted = vec![0, 1, f / 2, f / 2 + 1, f - 2, f - 1, f - 1, f - 1];
        shifted.extend(random_flat(u64::from(from_bits), &[f], n - shifted.len()));
        for input in [shifted, vec![f - 1; n]] {
            let mut reference = vec![u64::MAX; n];
            ScalarBackend.lift_centered(&from, &to, &input, &mut reference);
            let mut production = vec![u64::MAX; n];
            UnrolledBackend.lift_centered(&from, &to, &input, &mut production);
            assert_eq!(production, reference, "from {from} to {to}");
        }
    }
}

/// `add_scalar` and `sub_scalar` take a reduced constant: `c ≥ q` is
/// refused once per call on either kernel set, where it would otherwise
/// leave a non-canonical word (`c = 2q` on `add_scalar`) or wrap
/// (`d + q − c` on `sub_scalar`).
#[test]
fn scalar_ops_refuse_an_unreduced_constant() {
    for bits in [50u32, 55] {
        let q = generate_ntt_primes(1, bits, 256)[0];
        let m = Modulus::new(q).unwrap();
        for c in [q, q + 1, 2 * q, u64::MAX] {
            for (reference, sub) in [(true, false), (true, true), (false, false), (false, true)] {
                let case = format!("reference: {reference}, sub: {sub}, c = {c} mod {q}");
                let err = std::panic::catch_unwind(|| {
                    let mut limb = vec![0u64; 24];
                    match (reference, sub) {
                        (true, false) => ScalarBackend.add_scalar(&m, &mut limb, c),
                        (true, true) => ScalarBackend.sub_scalar(&m, &mut limb, c),
                        (false, false) => UnrolledBackend.add_scalar(&m, &mut limb, c),
                        (false, true) => UnrolledBackend.sub_scalar(&m, &mut limb, c),
                    }
                })
                .expect_err(&format!("accepted, {case}"));
                let message = err.downcast_ref::<String>().map_or("", String::as_str);
                assert!(message.contains("is not reduced"), "{case}: {message}");
            }
        }
    }
}

#[test]
fn basis_extension_is_bit_identical() {
    let n = 128usize;
    let src_primes = generate_ntt_primes(3, 45, n);
    let dst_primes = generate_ntt_primes_excluding(2, 46, n, &src_primes);
    let flat = random_flat(77, &src_primes, n);
    let src = RnsBasis::new(&src_primes, n).unwrap();
    let dst = RnsBasis::new(&dst_primes, n).unwrap();
    let ext = BasisExtender::new(&src, &dst);
    let mut reference = vec![0u64; dst_primes.len() * n];
    let mut cols: Vec<&mut [u64]> = reference.chunks_exact_mut(n).collect();
    ScalarBackend.basis_ext_block(&ext.view(), &flat, n, 0..n, &mut cols);
    let mut out = vec![0u64; dst_primes.len() * n];
    ext.extend_flat(&flat, &mut out, n);
    assert_eq!(out, reference, "extend_flat diverged from the reference");
}

/// Recorded on the commit before the kernel sets lost their runtime
/// selector, where a basis built on the scalar kernels and one built on
/// the unrolled kernels both produced it.
#[test]
fn mod_up_down_and_rescale_are_bit_identical() {
    let n = 64usize;
    let q_primes = generate_ntt_primes(3, 40, n);
    let p_primes = generate_ntt_primes_excluding(2, 41, n, &q_primes);
    let flat = random_flat(99, &q_primes, n);
    let q_basis = Arc::new(RnsBasis::new(&q_primes, n).unwrap());
    let p_basis = RnsBasis::new(&p_primes, n).unwrap();
    let ext = BasisExtender::new(&q_basis, &p_basis);
    let ctx = ModDownContext::new(q_basis.clone(), &p_basis);

    let poly = RnsPoly::from_flat(q_basis.clone(), flat, Representation::Evaluation);
    let raised = mod_up(&poly, &p_basis, &ext);
    let lowered = mod_down(&raised, &ctx);
    let praised = pmod_up(&poly, &p_basis);
    let rescaled = rescale(&poly);
    let mut all = raised.flat().to_vec();
    all.extend_from_slice(lowered.flat());
    all.extend_from_slice(praised.flat());
    all.extend_from_slice(rescaled.flat());
    let got = digest(&all);
    assert_eq!(got, 0x6c7e_f0a5_6317_8e8c, "{got:#018x}");
}

/// Recorded like the digest above, on both kernel sets.
#[test]
fn full_poly_pipeline_is_bit_identical() {
    let n = 256usize;
    let primes = generate_ntt_primes(4, 50, n);
    let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
    let mut a = RnsPoly::from_flat(
        basis.clone(),
        random_flat(5, &primes, n),
        Representation::Coefficient,
    );
    let mut b = RnsPoly::from_flat(
        basis.clone(),
        random_flat(6, &primes, n),
        Representation::Coefficient,
    );
    a.to_eval();
    b.to_eval();
    let mut prod = RnsPoly::from_flat(basis, a.flat().to_vec(), Representation::Evaluation);
    prod.mul_assign_pointwise(&b);
    prod.add_assign(&a);
    prod.sub_assign(&b);
    prod.mul_scalar_assign(0x0123_4567_89ab_cdef);
    prod.negate();
    prod.to_coeff();
    let got = digest(prod.flat());
    assert_eq!(got, 0x61d9_98cc_5744_f91d, "{got:#018x}");
}
