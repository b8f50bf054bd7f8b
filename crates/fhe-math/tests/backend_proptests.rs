//! Property-based kernel equivalence: for random NTT-friendly moduli and
//! random sizes `2^1..=2^14` (below the unrolled transforms' block width,
//! and with and without their lone radix-2 sweep), the production entry
//! points must agree bit-for-bit with the reference [`ScalarBackend`], and
//! the production kernels' *lazy* transform entry points must stay inside
//! their range invariants — `[0, 4q)` forward, `[0, 2q)` inverse — up to
//! the 62-bit primes where `4q < 2^64` is tight.
//!
//! The unrolled transforms run on AVX-512 IFMA lanes when the CPU has them,
//! `q < 2^50` and `n ≥ 16`, and on the portable path otherwise, so the
//! moduli here fall on both sides of `2^50` and the 50-bit limit, where
//! `4q < 2^52` is tight, gets a test of its own. The multiply-accumulate
//! and streaming kernels choose the same way, per call, from every modulus
//! they touch. On a CPU without IFMA every test still passes, exercising
//! the portable path only.

use fhe_math::backend::{DigitTerm, ScalarBackend, UnrolledBackend};
use fhe_math::poly::{Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding, is_prime};
use fhe_math::rns::{BasisExtender, RnsBasis, MAX_SOURCE_LIMBS};
use fhe_math::{Modulus, NttTable};
use proptest::prelude::*;
use std::sync::Arc;

/// A random transform size `2^1..=2^14`.
fn size_strategy() -> impl Strategy<Value = usize> {
    (1u32..=14).prop_map(|log_n| 1usize << log_n)
}

/// A random `bits`-bit NTT prime for degree `n`: `seed` picks one of the
/// first three primes of that width so cases see different moduli. The
/// transform proptests draw 40–61 bits, both sides of the IFMA lanes'
/// `2^50` bound.
fn ntt_prime(bits: u32, n: usize, seed: u64) -> u64 {
    *generate_ntt_primes((seed % 3) as usize + 1, bits, n)
        .last()
        .unwrap()
}

/// Deterministic residues below `q`.
fn random_residues(seed: u64, q: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|k| {
            seed.wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(k)
                .wrapping_mul(0xd1342543de82ef95)
                % q
        })
        .collect()
}

/// Limb widths the accumulating kernels are swept over: narrow, the CKKS
/// working range, and the two widest the library admits — 62-bit limbs are
/// where a 128-bit sum of products has to be reduced part-way.
const WIDTHS: [u32; 5] = [20, 40, 50, 61, 62];

/// Degree of the bases the accumulating kernels are tested over. The
/// kernels take the slot count as an argument, so the degree only decides
/// which primes are admissible.
const SMALL_DEGREE: usize = 8;

/// The `count` largest primes `≡ 1 (mod 2·degree)` below `2^bits`, by a
/// downward scan of this file's own: [`generate_ntt_primes`] stops at 61
/// bits, one short of the widest the library admits.
fn ntt_primes_of_width(bits: u32, degree: usize, count: usize) -> Vec<u64> {
    let step = 2 * degree as u64;
    let mut candidate = (1u64 << bits) - step + 1;
    let mut out = Vec::new();
    while out.len() < count {
        if is_prime(candidate) {
            assert_eq!(64 - candidate.leading_zeros(), bits);
            out.push(candidate);
        }
        candidate -= step;
    }
    out
}

/// The 24 largest `bits`-bit primes for [`SMALL_DEGREE`] — enough for 12
/// source and 12 target limbs of one width.
fn primes_of_width(bits: u32) -> Vec<u64> {
    ntt_primes_of_width(bits, SMALL_DEGREE, 24)
}

/// `count` distinct primes of seed-chosen mixed widths, none in `taken`.
fn mixed_primes(seed: u64, count: usize, taken: &[u64]) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    let mut state = seed | 1;
    while out.len() < count {
        state = state
            .wrapping_mul(0x5851f42d4c957f2d)
            .wrapping_add(0x14057b7ef767814f);
        let bits = WIDTHS[(state >> 33) as usize % WIDTHS.len()];
        let fresh = primes_of_width(bits)
            .into_iter()
            .find(|q| !out.contains(q) && !taken.contains(q))
            .expect("24 primes per width cover 12 + 12 limbs");
        out.push(fresh);
    }
    out
}

/// The residue `x_i = −Q/q_i mod q_i` that drives `y_i = [x·Q̃_i]_{q_i}` to
/// `q_i − 1`, the largest term a basis extension can sum.
fn saturating_residue(q: u64, src_primes: &[u64]) -> u64 {
    let m = Modulus::new(q).unwrap();
    let q_star = src_primes
        .iter()
        .filter(|&&other| other != q)
        .fold(1u64, |acc, &other| m.mul(acc, m.reduce(other)));
    m.neg(q_star)
}

/// The kernel `inner_product_pair` replaced: one read-modify-write
/// `mul_add` pass over both accumulators per digit.
fn per_digit_fold(m: &Modulus, terms: &[DigitTerm<'_>], n: usize) -> (Vec<u64>, Vec<u64>) {
    let (mut u, mut v) = (vec![0u64; n], vec![0u64; n]);
    for t in terms {
        for k in 0..n {
            u[k] = m.mul_add(t.d[k], t.a[k], u[k]);
            v[k] = m.mul_add(t.d[k], t.b[k], v[k]);
        }
    }
    (u, v)
}

/// The reference basis extension: [`ScalarBackend`]'s kernel over every
/// slot of a flat limb-major buffer.
fn reference_extension(ext: &BasisExtender, flat: &[u64], n: usize) -> Vec<u64> {
    let mut out = vec![u64::MAX; ext.target_len() * n];
    let mut cols: Vec<&mut [u64]> = out.chunks_exact_mut(n).collect();
    ScalarBackend.basis_ext_block(&ext.view(), flat, n, 0..n, &mut cols);
    out
}

/// The production basis extension, [`BasisExtender::extend_flat`].
fn production_extension(ext: &BasisExtender, flat: &[u64], n: usize) -> Vec<u64> {
    let mut out = vec![u64::MAX; ext.target_len() * n];
    ext.extend_flat(flat, &mut out, n);
    out
}

/// Every word the unrolled transforms hold before their exit step is
/// `< 4q` (forward) or `< 2q` (inverse), and reference ≡ production ≡
/// round trip — on a saturated, a zero and a random limb, each taken as
/// coefficients and as a spectrum. This build checks overflow, so a
/// wrapped `x + 2q − t` panics here rather than passing.
fn check_lazy_transforms(bits: u32, log_n: u32, seed: u64) {
    let n = 1usize << log_n;
    let q = ntt_primes_of_width(bits, n, 1)[0];
    let table = NttTable::new(q, n).unwrap();
    let canonical = |lazy: &[u64]| lazy.iter().map(|&x| x % q).collect::<Vec<u64>>();
    for input in [
        vec![q - 1; n],
        vec![0; n],
        random_residues(seed ^ 0xabcd, q, n),
    ] {
        let mut spectrum = input.clone();
        ScalarBackend.ntt_forward(&table, &mut spectrum);
        let mut lazy = input.clone();
        UnrolledBackend.ntt_forward_lazy(&table, &mut lazy);
        assert!(lazy.iter().all(|&x| x < 4 * q), "forward q={q} n={n}");
        assert_eq!(canonical(&lazy), spectrum, "forward q={q} n={n}");
        let mut exact = input.clone();
        table.forward(&mut exact);
        assert_eq!(exact, spectrum, "forward q={q} n={n}");
        table.inverse(&mut exact);
        assert_eq!(exact, input, "round trip q={q} n={n}");

        let mut coeffs = input.clone();
        ScalarBackend.ntt_inverse(&table, &mut coeffs);
        let mut lazy = input.clone();
        UnrolledBackend.ntt_inverse_lazy(&table, &mut lazy);
        assert!(lazy.iter().all(|&x| x < 2 * q), "inverse q={q} n={n}");
        assert_eq!(canonical(&lazy), coeffs, "inverse q={q} n={n}");
        let mut exact = input;
        table.inverse(&mut exact);
        assert_eq!(exact, coeffs, "inverse q={q} n={n}");
    }
}

/// `4q < 2^64` is tight at 62 bits: every size the library serves and every
/// size below the block width, with and without the lone radix-2 sweep.
#[test]
fn lazy_transforms_hold_at_the_62_bit_limit_for_every_size() {
    for log_n in 1..=14 {
        check_lazy_transforms(62, log_n, u64::from(log_n));
    }
}

/// `4q < 2^52` is tight at 50 bits, the widest modulus the IFMA lanes
/// take: every size from below the lanes' 16-word minimum up to 2^16.
#[test]
fn lazy_transforms_hold_at_the_50_bit_limit_for_every_size() {
    for log_n in 1..=16 {
        check_lazy_transforms(50, log_n, u64::from(log_n));
    }
}

/// Eighteen saturated 62-bit products exceed `2^128`: without the mid-sum
/// reduction the accumulator overflows (a panic in this debug build, a
/// wrong residue in release), for the inner product and the basis
/// extension alike.
#[test]
fn eighteen_wide_products_need_the_mid_sum_reduction() {
    let primes = primes_of_width(62);
    let n = 11usize;
    let m = Modulus::new(primes[0]).unwrap();
    let full = vec![primes[0] - 1; n];
    let terms = vec![
        DigitTerm {
            d: &full,
            a: &full,
            b: &full
        };
        18
    ];
    let reference = per_digit_fold(&m, &terms, n);
    let (mut u, mut v) = (vec![0u64; n], vec![0u64; n]);
    ScalarBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
    assert_eq!((&u, &v), (&reference.0, &reference.1), "reference");
    UnrolledBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
    assert_eq!((&u, &v), (&reference.0, &reference.1), "production");

    let (src_primes, dst_primes) = primes.split_at(18);
    let src = RnsBasis::new(src_primes, SMALL_DEGREE).unwrap();
    // y_i = q_i − 1 on every limb but the first (see the proptest below).
    let mut flat = random_residues(7, src_primes[0], n);
    for &q in &src_primes[1..] {
        flat.extend(std::iter::repeat_n(saturating_residue(q, src_primes), n));
    }
    let dst = RnsBasis::new(dst_primes, SMALL_DEGREE).unwrap();
    let ext = BasisExtender::new(&src, &dst);
    for (label, out) in [
        ("reference", reference_extension(&ext, &flat, n)),
        ("production", production_extension(&ext, &flat, n)),
    ] {
        for k in 0..n {
            let residues: Vec<u64> = (0..18).map(|i| flat[i * n + k]).collect();
            let x = src.crt_reconstruct(&residues);
            for (j, &p) in dst_primes.iter().enumerate() {
                assert_eq!(out[j * n + k], x.rem_u64(p), "{label} slot {k} target {j}");
            }
        }
    }
}

/// Widths around the IFMA lanes' `2^50` bound: limbs of 49 and 50 bits
/// take the lanes (where the CPU has them), 51 and 55 bits never do.
const LANE_EDGE_WIDTHS: [u32; 4] = [49, 50, 51, 55];

/// Widths the streaming kernel is swept over: the lanes' edge, and the
/// narrowest and widest the library admits.
const STREAM_WIDTHS: [u32; 8] = [20, 40, 49, 50, 51, 55, 61, 62];

/// The source limbs of `flat` at slot `k`: random, or (every fourth seed)
/// driven so every `y_i` but the first is `q_i − 1`.
fn extension_source(seed: u64, src_primes: &[u64], n: usize) -> Vec<u64> {
    let mut flat = Vec::with_capacity(src_primes.len() * n);
    for (i, &q) in src_primes.iter().enumerate() {
        if seed.is_multiple_of(4) && i > 0 {
            flat.extend(std::iter::repeat_n(saturating_residue(q, src_primes), n));
        } else {
            flat.extend(random_residues(seed ^ (i as u64), q, n));
        }
    }
    flat
}

/// [`ScalarBackend`] and [`UnrolledBackend`]'s `basis_ext_block` on the same
/// slot range, each into its own windows.
fn extension_blocks(
    ext: &BasisExtender,
    flat: &[u64],
    n: usize,
    range: std::ops::Range<usize>,
) -> [Vec<u64>; 2] {
    let len = range.len();
    let run = |production: bool| {
        let mut out = vec![u64::MAX; ext.target_len() * len];
        let mut cols: Vec<&mut [u64]> = out.chunks_mut(len.max(1)).collect();
        cols.truncate(ext.target_len());
        if production {
            UnrolledBackend.basis_ext_block(&ext.view(), flat, n, range.clone(), &mut cols);
        } else {
            ScalarBackend.basis_ext_block(&ext.view(), flat, n, range.clone(), &mut cols);
        }
        out
    };
    [run(false), run(true)]
}

/// A source basis of `MAX_SOURCE_LIMBS` 50-bit limbs, and the 15 and 16
/// limbs on either side of the lanes' source limit: production ≡ reference
/// ≡ exact CRT on a ragged slot count.
#[test]
fn basis_extension_is_exact_at_every_source_limit() {
    let all = ntt_primes_of_width(50, SMALL_DEGREE, MAX_SOURCE_LIMBS);
    let dst_primes = primes_of_width(49)[..5].to_vec();
    let n = 21usize;
    for src_len in [15, 16, MAX_SOURCE_LIMBS] {
        let src_primes = &all[..src_len];
        let flat = extension_source(src_len as u64 * 4, src_primes, n);
        let src = RnsBasis::new(src_primes, SMALL_DEGREE).unwrap();
        let dst = RnsBasis::new(&dst_primes, SMALL_DEGREE).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        let out = production_extension(&ext, &flat, n);
        assert_eq!(out, reference_extension(&ext, &flat, n), "{src_len} limbs");
        for k in 0..n {
            let residues: Vec<u64> = (0..src_len).map(|i| flat[i * n + k]).collect();
            let x = src.crt_reconstruct(&residues);
            for (j, &p) in dst_primes.iter().enumerate() {
                assert_eq!(
                    out[j * n + k],
                    x.rem_u64(p),
                    "{src_len} limbs, slot {k}, target {j}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Reference ≡ production ≡ exact CRT, over mixed-width bases (so the
    /// reduction schedule is exercised on both sides of its threshold:
    /// eight or more 62-bit source limbs need a mid-sum reduction) and
    /// slot counts with a ragged tail after the last 8-slot block.
    #[test]
    fn basis_extension_is_exact_crt_on_both_backends(
        src_len in 1usize..=12,
        dst_len in 1usize..=12,
        blocks in 0usize..4,
        tail in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 8 * blocks + tail;
        let src_primes = mixed_primes(seed, src_len, &[]);
        let dst_primes = mixed_primes(seed.rotate_left(17), dst_len, &src_primes);
        let mut flat = Vec::with_capacity(src_len * n);
        for (i, &q) in src_primes.iter().enumerate() {
            // Every fourth case drives every y_i but the first to q_i − 1
            // (x_i = −Q/q_i mod q_i): the largest sums whose x/Q still
            // falls anywhere in [0, 1) rather than on the integer where
            // the float excess estimate is documented to be ambiguous.
            if seed % 4 == 0 && i > 0 {
                flat.extend(std::iter::repeat_n(saturating_residue(q, &src_primes), n));
            } else {
                flat.extend(random_residues(seed ^ (i as u64), q, n));
            }
        }
        let src = RnsBasis::new(&src_primes, SMALL_DEGREE).unwrap();
        let dst = RnsBasis::new(&dst_primes, SMALL_DEGREE).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        let scalar = reference_extension(&ext, &flat, n);
        prop_assert_eq!(&scalar, &production_extension(&ext, &flat, n));
        for k in 0..n {
            let residues: Vec<u64> = (0..src_len).map(|i| flat[i * n + k]).collect();
            let x = src.crt_reconstruct(&residues);
            for (j, &p) in dst_primes.iter().enumerate() {
                prop_assert_eq!(scalar[j * n + k], x.rem_u64(p), "slot {} target {}", k, j);
            }
        }
    }

    /// Production ≡ reference on slot ranges that start and end off the
    /// 8-slot grid, for sources of 1..=16 limbs around the lanes' 15-limb
    /// limit, and targets either all below `2^50` or with one at or above
    /// it, which sends the whole call to the portable body.
    #[test]
    fn basis_extension_blocks_match_the_reference_on_cut_ranges(
        src_len in 1usize..=16,
        dst_len in 1usize..=12,
        wide_target in any::<bool>(),
        start in 0usize..12,
        len in 0usize..40,
        seed in any::<u64>(),
    ) {
        let n = start + len + 5;
        let src_primes = ntt_primes_of_width(50, SMALL_DEGREE, src_len);
        let mut dst_primes = primes_of_width(49)[..dst_len].to_vec();
        if wide_target {
            dst_primes[seed as usize % dst_len] = primes_of_width(51)[0];
        }
        let flat = extension_source(seed, &src_primes, n);
        let src = RnsBasis::new(&src_primes, SMALL_DEGREE).unwrap();
        let dst = RnsBasis::new(&dst_primes, SMALL_DEGREE).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        let [reference, production] = extension_blocks(&ext, &flat, n, start..start + len);
        prop_assert_eq!(production, reference);
    }

    /// The multiply-accumulate's single-output shapes — the pointwise
    /// products — and its pair shape at 1..=16 terms, on both sides of
    /// `2^50`, random or all-`(q − 1)` operands, slot counts with a ragged
    /// tail: production ≡ reference.
    #[test]
    fn multiply_accumulate_agrees_across_backends(
        terms in 1usize..=16,
        bits in prop::sample::select(LANE_EDGE_WIDTHS.to_vec()),
        blocks in 0usize..4,
        tail in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n = 8 * blocks + tail;
        let q = primes_of_width(bits)[(seed % 24) as usize];
        let m = Modulus::new(q).unwrap();
        let limb = |salt: u64| {
            if seed % 4 == 0 {
                vec![q - 1; n]
            } else {
                random_residues(seed ^ salt, q, n)
            }
        };
        let (a, b, c) = (limb(1), limb(2), limb(3));
        let (mut reference, mut production) = (a.clone(), a.clone());
        ScalarBackend.pointwise_mul(&m, &mut reference, &b);
        UnrolledBackend.pointwise_mul(&m, &mut production, &b);
        prop_assert_eq!(&production, &reference, "pointwise_mul");
        let (mut reference, mut production) = (c.clone(), c.clone());
        ScalarBackend.pointwise_mul_into(&m, &a, &b, &mut reference);
        UnrolledBackend.pointwise_mul_into(&m, &a, &b, &mut production);
        prop_assert_eq!(&production, &reference, "pointwise_mul_into");
        let (mut reference, mut production) = (c.clone(), c.clone());
        ScalarBackend.pointwise_mul_add(&m, &mut reference, &a, &b);
        UnrolledBackend.pointwise_mul_add(&m, &mut production, &a, &b);
        prop_assert_eq!(&production, &reference, "pointwise_mul_add");

        let operands: Vec<Vec<u64>> = (0..3 * terms as u64).map(|i| limb(16 + i)).collect();
        let terms: Vec<DigitTerm<'_>> = operands
            .chunks_exact(3)
            .map(|t| DigitTerm { d: &t[0], a: &t[1], b: &t[2] })
            .collect();
        let (mut u, mut v) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        ScalarBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
        let (mut pu, mut pv) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        UnrolledBackend.inner_product_pair(&m, &terms, &mut pu, &mut pv);
        prop_assert_eq!((pu, pv), (u, v), "inner product");
    }

    /// The streaming kernel's ops — add, sub and their `_into` forms, neg,
    /// the scalar ops and both Shoup scalings — on both sides of `2^50`,
    /// random or all-`(q − 1)` operands, a constant of `0`, `q − 1` or
    /// anything between, slot counts with a ragged tail: production ≡
    /// reference.
    #[test]
    fn streaming_kernels_agree_across_backends(
        bits in prop::sample::select(STREAM_WIDTHS.to_vec()),
        blocks in 0usize..4,
        tail in 0usize..8,
        seed in any::<u64>(),
    ) {
        let n = 8 * blocks + tail;
        let q = primes_of_width(bits)[(seed % 24) as usize];
        let m = Modulus::new(q).unwrap();
        let limb = |salt: u64| {
            if seed % 4 == 0 {
                vec![q - 1; n]
            } else {
                random_residues(seed ^ salt, q, n)
            }
        };
        let (a, b) = (limb(1), limb(2));
        let c = [0, q - 1, (seed >> 8) % q][(seed >> 2) as usize % 3];
        let s = fhe_math::ShoupPair::new(&m, c);
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
                [add, add_into, sub, sub_into, neg, plus, minus, scaled, combined]
            }};
        }
        prop_assert_eq!(kernels!(UnrolledBackend), kernels!(ScalarBackend), "c = {}", c);
    }

    /// `Rescale`'s shifted lift ≡ `from_i64(to_centered(c))`, the pair it
    /// replaced, and ≡ the reference, at the ends of both halves of the
    /// centred range and in between — for a dropped modulus more than twice
    /// the kept one (the lazy Shoup arm, on lanes below `2^50` and on the
    /// portable body at or above it), under twice it, and narrower than
    /// it — on random or all-`(from − 1)` words and ragged slot counts.
    #[test]
    fn shifted_lift_is_the_centred_residue(
        from_bits in prop::sample::select(STREAM_WIDTHS.to_vec()),
        to_bits in prop::sample::select(STREAM_WIDTHS.to_vec()),
        blocks in 0usize..4,
        tail in 0usize..8,
        seed in any::<u64>(),
    ) {
        let from = Modulus::new(primes_of_width(from_bits)[(seed % 24) as usize]).unwrap();
        let to = Modulus::new(primes_of_width(to_bits)[(seed >> 8) as usize % 24]).unwrap();
        let h = from.value() / 2;
        let mut c = vec![0, h, h + 1, from.value() - 1];
        if seed % 4 == 0 {
            c.resize(4 + 8 * blocks + tail, from.value() - 1);
        } else {
            c.extend(random_residues(seed, from.value(), 8 * blocks + tail));
        }
        let shifted: Vec<u64> = c.iter().map(|&c| from.add(c, h)).collect();
        let mut lifted = vec![u64::MAX; c.len()];
        UnrolledBackend.lift_centered(&from, &to, &shifted, &mut lifted);
        let expect: Vec<u64> = c.iter().map(|&c| to.from_i64(from.to_centered(c))).collect();
        prop_assert_eq!(&lifted, &expect, "from {} to {}", from, to);
        let mut reference = vec![u64::MAX; c.len()];
        ScalarBackend.lift_centered(&from, &to, &shifted, &mut reference);
        prop_assert_eq!(&reference, &expect, "reference, from {} to {}", from, to);
    }

    /// The digit-fused inner product ≡ the per-digit fold it replaced, for
    /// every digit count a parameter set can ask for and past the point
    /// (eight 62-bit products) where the 128-bit sums must be reduced
    /// part-way; the accumulators start dirty because they are write-only.
    #[test]
    fn digit_fused_inner_product_matches_the_per_digit_fold(
        beta in 1usize..=18,
        bits in prop::sample::select(WIDTHS.to_vec()),
        blocks in 0usize..4,
        tail in 1usize..8,
        seed in any::<u64>(),
    ) {
        let n = 8 * blocks + tail;
        let q = primes_of_width(bits)[(seed % 24) as usize];
        let m = Modulus::new(q).unwrap();
        let operand = |salt: u64| -> Vec<Vec<u64>> {
            (0..beta as u64)
                .map(|j| {
                    if seed % 4 == 0 {
                        vec![q - 1; n]
                    } else {
                        random_residues(seed ^ (salt << 8 | j), q, n)
                    }
                })
                .collect()
        };
        let (d, a, b) = (operand(1), operand(2), operand(3));
        let terms: Vec<DigitTerm<'_>> = (0..beta)
            .map(|j| DigitTerm { d: &d[j], a: &a[j], b: &b[j] })
            .collect();
        let reference = per_digit_fold(&m, &terms, n);
        let (mut u, mut v) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        ScalarBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
        prop_assert_eq!((&u, &v), (&reference.0, &reference.1), "reference");
        let (mut u, mut v) = (vec![u64::MAX; n], vec![u64::MAX; n]);
        UnrolledBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
        prop_assert_eq!((&u, &v), (&reference.0, &reference.1), "production");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ntt_forward_and_inverse_agree_across_backends(
        bits in 40u32..=61,
        n in size_strategy(),
        seed in any::<u64>(),
    ) {
        let q = ntt_prime(bits, n, seed);
        let input = random_residues(seed, q, n);
        let table = NttTable::new(q, n).unwrap();

        let mut fs = input.clone();
        ScalarBackend.ntt_forward(&table, &mut fs);
        let mut fu = input.clone();
        table.forward(&mut fu);
        prop_assert_eq!(&fs, &fu);

        let mut is_ = fs.clone();
        ScalarBackend.ntt_inverse(&table, &mut is_);
        let mut iu = fu.clone();
        table.inverse(&mut iu);
        prop_assert_eq!(&is_, &input);
        prop_assert_eq!(&iu, &input);
    }

    #[test]
    fn lazy_transforms_stay_in_range_and_reduce_to_the_scalar_result(
        bits in 20u32..=62,
        log_n in 1u32..=14,
        seed in any::<u64>(),
    ) {
        // A width with no prime `≡ 1 (mod 2n)` in it is widened to one
        // that has some.
        check_lazy_transforms(bits.max(log_n + 8), log_n, seed);
    }

    #[test]
    fn pointwise_kernels_agree_across_backends(
        bits in 50u32..=61,
        n in size_strategy(),
        seed in any::<u64>(),
    ) {
        let q = ntt_prime(bits, n, seed);
        let m = Modulus::new(q).unwrap();
        let a = random_residues(seed, q, n);
        let b = random_residues(seed ^ 0x5555, q, n);
        // The reference kernels, then the production ones: the kernels
        // directly and the `RnsPoly` ops over a one-limb basis.
        let mut add = a.clone();
        ScalarBackend.pointwise_add(&m, &mut add, &b);
        let mut mul = a.clone();
        ScalarBackend.pointwise_mul(&m, &mut mul, &b);
        let mut fma = add.clone();
        ScalarBackend.pointwise_mul_add(&m, &mut fma, &a, &b);
        let (mut u, mut v) = (b.clone(), a.clone());
        let term = DigitTerm { d: &mul, a: &a, b: &b };
        ScalarBackend.inner_product_pair(&m, &[term, term], &mut u, &mut v);

        let (mut pu, mut pv) = (b.clone(), a.clone());
        UnrolledBackend.inner_product_pair(&m, &[term, term], &mut pu, &mut pv);
        prop_assert_eq!((&pu, &pv), (&u, &v));
        let basis = Arc::new(RnsBasis::new(&[q], n).unwrap());
        let poly = |w: &[u64]| RnsPoly::from_flat(basis.clone(), w.to_vec(), Representation::Evaluation);
        let (pa, pb) = (poly(&a), poly(&b));
        let mut padd = pa.clone();
        padd.add_assign(&pb);
        prop_assert_eq!(padd.flat(), &add[..]);
        let mut pmul = pa.clone();
        pmul.mul_assign_pointwise(&pb);
        prop_assert_eq!(pmul.flat(), &mul[..]);
        let mut pfma = padd.clone();
        pfma.mul_add_assign_pointwise(&pa, &pb);
        prop_assert_eq!(pfma.flat(), &fma[..]);
    }

    #[test]
    fn basis_extension_agrees_across_backends(
        bits in 50u32..=60,
        n in size_strategy(),
        seed in any::<u64>(),
    ) {
        let src_primes = generate_ntt_primes(2, bits, n);
        let dst_primes = generate_ntt_primes_excluding(2, bits + 1, n, &src_primes);
        let mut flat = Vec::with_capacity(2 * n);
        for (i, &q) in src_primes.iter().enumerate() {
            flat.extend(random_residues(seed ^ (i as u64), q, n));
        }
        let src = RnsBasis::new(&src_primes, n).unwrap();
        let dst = RnsBasis::new(&dst_primes, n).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        prop_assert_eq!(reference_extension(&ext, &flat, n), production_extension(&ext, &flat, n));
    }

    #[test]
    fn poly_round_trip_agrees_across_backends(
        bits in 40u32..=61,
        n in size_strategy(),
        seed in any::<u64>(),
    ) {
        let primes = generate_ntt_primes(2, bits, n);
        let mut flat = Vec::with_capacity(2 * n);
        for (i, &q) in primes.iter().enumerate() {
            flat.extend(random_residues(seed ^ (i as u64), q, n));
        }
        let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
        let mut p = RnsPoly::from_flat(basis.clone(), flat.clone(), Representation::Coefficient);
        p.to_eval();
        let mut reference = flat.clone();
        for (i, limb) in reference.chunks_exact_mut(n).enumerate() {
            ScalarBackend.ntt_forward(basis.ntt_table(i), limb);
        }
        prop_assert_eq!(p.flat(), &reference[..]);
        p.to_coeff();
        prop_assert_eq!(p.flat(), &flat[..]);
    }
}
