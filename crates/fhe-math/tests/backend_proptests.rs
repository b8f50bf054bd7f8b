//! Property-based backend equivalence: for random NTT-friendly moduli and
//! random sizes `2^1..=2^14` (below the unrolled transforms' block width,
//! and with and without their lone radix-2 sweep), the scalar and unrolled
//! backends must agree bit-for-bit, and the unrolled backend's *lazy*
//! transform entry points must stay inside their range invariants —
//! `[0, 4q)` forward, `[0, 2q)` inverse — up to the 62-bit primes where
//! `4q < 2^64` is tight.
//!
//! The unrolled transforms run on AVX-512 IFMA lanes when the CPU has them,
//! `q < 2^50` and `n ≥ 16`, and on the portable path otherwise, so the
//! moduli here fall on both sides of `2^50` and the 50-bit limit, where
//! `4q < 2^52` is tight, gets a test of its own. On a CPU without IFMA
//! every test still passes, exercising the portable path only.

use fhe_math::backend::{DigitTerm, UnrolledBackend};
use fhe_math::poly::{lift_centered, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding, is_prime};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{BackendKind, KernelBackend, Modulus, NttTable};
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

/// Every word the unrolled transforms hold before their exit step is
/// `< 4q` (forward) or `< 2q` (inverse), and scalar ≡ unrolled ≡ round
/// trip — on a saturated, a zero and a random limb, each taken as
/// coefficients and as a spectrum. This build checks overflow, so a
/// wrapped `x + 2q − t` panics here rather than passing.
fn check_lazy_transforms(bits: u32, log_n: u32, seed: u64) {
    let n = 1usize << log_n;
    let q = ntt_primes_of_width(bits, n, 1)[0];
    let scalar = NttTable::with_backend(q, n, BackendKind::Scalar.instance()).unwrap();
    let unrolled = NttTable::with_backend(q, n, BackendKind::Unrolled.instance()).unwrap();
    let canonical = |lazy: &[u64]| lazy.iter().map(|&x| x % q).collect::<Vec<u64>>();
    for input in [
        vec![q - 1; n],
        vec![0; n],
        random_residues(seed ^ 0xabcd, q, n),
    ] {
        let mut spectrum = input.clone();
        scalar.forward(&mut spectrum);
        let mut lazy = input.clone();
        UnrolledBackend.ntt_forward_lazy(&unrolled, &mut lazy);
        assert!(lazy.iter().all(|&x| x < 4 * q), "forward q={q} n={n}");
        assert_eq!(canonical(&lazy), spectrum, "forward q={q} n={n}");
        let mut exact = input.clone();
        unrolled.forward(&mut exact);
        assert_eq!(exact, spectrum, "forward q={q} n={n}");
        unrolled.inverse(&mut exact);
        assert_eq!(exact, input, "round trip q={q} n={n}");

        let mut coeffs = input.clone();
        scalar.inverse(&mut coeffs);
        let mut lazy = input.clone();
        UnrolledBackend.ntt_inverse_lazy(&unrolled, &mut lazy);
        assert!(lazy.iter().all(|&x| x < 2 * q), "inverse q={q} n={n}");
        assert_eq!(canonical(&lazy), coeffs, "inverse q={q} n={n}");
        let mut exact = input;
        unrolled.inverse(&mut exact);
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
    for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
        let (mut u, mut v) = (vec![0u64; n], vec![0u64; n]);
        kind.instance()
            .inner_product_pair(&m, &terms, &mut u, &mut v);
        assert_eq!((&u, &v), (&reference.0, &reference.1), "{kind:?}");
    }

    let (src_primes, dst_primes) = primes.split_at(18);
    let src = RnsBasis::new(src_primes, SMALL_DEGREE).unwrap();
    // y_i = q_i − 1 on every limb but the first (see the proptest below).
    let mut flat = random_residues(7, src_primes[0], n);
    for &q in &src_primes[1..] {
        flat.extend(std::iter::repeat_n(saturating_residue(q, src_primes), n));
    }
    for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
        let src_k = RnsBasis::with_backend(src_primes, SMALL_DEGREE, kind.instance()).unwrap();
        let dst_k = RnsBasis::with_backend(dst_primes, SMALL_DEGREE, kind.instance()).unwrap();
        let mut out = vec![0u64; dst_primes.len() * n];
        BasisExtender::new(&src_k, &dst_k).extend_flat(&flat, &mut out, n);
        for k in 0..n {
            let residues: Vec<u64> = (0..18).map(|i| flat[i * n + k]).collect();
            let x = src.crt_reconstruct(&residues);
            for (j, &p) in dst_primes.iter().enumerate() {
                assert_eq!(out[j * n + k], x.rem_u64(p), "{kind:?} slot {k} target {j}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scalar ≡ unrolled ≡ exact CRT, over mixed-width bases (so the
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
        let run = |kind: BackendKind| {
            let src = RnsBasis::with_backend(&src_primes, SMALL_DEGREE, kind.instance()).unwrap();
            let dst = RnsBasis::with_backend(&dst_primes, SMALL_DEGREE, kind.instance()).unwrap();
            let mut out = vec![u64::MAX; dst_len * n];
            BasisExtender::new(&src, &dst).extend_flat(&flat, &mut out, n);
            out
        };
        let scalar = run(BackendKind::Scalar);
        prop_assert_eq!(&scalar, &run(BackendKind::Unrolled));
        let src = RnsBasis::new(&src_primes, SMALL_DEGREE).unwrap();
        for k in 0..n {
            let residues: Vec<u64> = (0..src_len).map(|i| flat[i * n + k]).collect();
            let x = src.crt_reconstruct(&residues);
            for (j, &p) in dst_primes.iter().enumerate() {
                prop_assert_eq!(scalar[j * n + k], x.rem_u64(p), "slot {} target {}", k, j);
            }
        }
    }

    /// `Rescale`'s shifted lift ≡ `from_i64(to_centered(c))`, the pair it
    /// replaced, at the ends of both halves of the centred range and in
    /// between — for a dropped modulus more than twice the kept one (the
    /// Barrett arm), under twice it, and narrower than it.
    #[test]
    fn shifted_lift_is_the_centred_residue(
        from_bits in prop::sample::select(WIDTHS.to_vec()),
        to_bits in prop::sample::select(WIDTHS.to_vec()),
        seed in any::<u64>(),
    ) {
        let from = Modulus::new(primes_of_width(from_bits)[(seed % 24) as usize]).unwrap();
        let to = Modulus::new(primes_of_width(to_bits)[(seed >> 8) as usize % 24]).unwrap();
        let h = from.value() / 2;
        let mut c = vec![0, h, h + 1, from.value() - 1];
        c.extend(random_residues(seed, from.value(), 13));
        let shifted: Vec<u64> = c.iter().map(|&c| from.add(c, h)).collect();
        let mut lifted = vec![u64::MAX; c.len()];
        lift_centered(&from, &to, &shifted, &mut lifted);
        let expect: Vec<u64> = c.iter().map(|&c| to.from_i64(from.to_centered(c))).collect();
        prop_assert_eq!(lifted, expect, "from {} to {}", from, to);
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
        for kind in [BackendKind::Scalar, BackendKind::Unrolled] {
            let (mut u, mut v) = (vec![u64::MAX; n], vec![u64::MAX; n]);
            kind.instance().inner_product_pair(&m, &terms, &mut u, &mut v);
            prop_assert_eq!((&u, &v), (&reference.0, &reference.1), "{:?}", kind);
        }
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
        let scalar = NttTable::with_backend(q, n, BackendKind::Scalar.instance()).unwrap();
        let unrolled = NttTable::with_backend(q, n, BackendKind::Unrolled.instance()).unwrap();

        let mut fs = input.clone();
        scalar.forward(&mut fs);
        let mut fu = input.clone();
        unrolled.forward(&mut fu);
        prop_assert_eq!(&fs, &fu);

        let mut is_ = fs.clone();
        scalar.inverse(&mut is_);
        let mut iu = fu.clone();
        unrolled.inverse(&mut iu);
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
        let scalar = BackendKind::Scalar.instance();
        let unrolled = BackendKind::Unrolled.instance();

        let run = |be: &Arc<dyn KernelBackend>| {
            let mut add = a.clone();
            be.pointwise_add(&m, &mut add, &b);
            let mut mul = a.clone();
            be.pointwise_mul(&m, &mut mul, &b);
            let mut fma = add.clone();
            be.pointwise_mul_add(&m, &mut fma, &a, &b);
            let (mut u, mut v) = (b.clone(), a.clone());
            let term = DigitTerm { d: &mul, a: &a, b: &b };
            be.inner_product_pair(&m, &[term, term], &mut u, &mut v);
            (add, mul, fma, u, v)
        };
        prop_assert_eq!(run(&scalar), run(&unrolled));
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
        let run = |kind: BackendKind| {
            let src = RnsBasis::with_backend(&src_primes, n, kind.instance()).unwrap();
            let dst = RnsBasis::with_backend(&dst_primes, n, kind.instance()).unwrap();
            let ext = BasisExtender::new(&src, &dst);
            let mut out = vec![0u64; dst_primes.len() * n];
            ext.extend_flat(&flat, &mut out, n);
            out
        };
        prop_assert_eq!(run(BackendKind::Scalar), run(BackendKind::Unrolled));
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
        let run = |kind: BackendKind| {
            let basis = Arc::new(RnsBasis::with_backend(&primes, n, kind.instance()).unwrap());
            let mut p = RnsPoly::from_flat(basis, flat.clone(), Representation::Coefficient);
            p.to_eval();
            let eval = p.flat().to_vec();
            p.to_coeff();
            prop_assert_eq!(p.flat(), &flat[..]);
            Ok(eval)
        };
        prop_assert_eq!(run(BackendKind::Scalar)?, run(BackendKind::Unrolled)?);
    }
}
