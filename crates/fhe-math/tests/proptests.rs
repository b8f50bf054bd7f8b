//! Property-based tests of the number-theoretic substrate: field axioms,
//! transform identities, and exactness of the RNS machinery on arbitrary
//! inputs.

use fhe_math::automorph::Automorphism;
use fhe_math::bigint::UBig;
use fhe_math::cfft::{Complex, SpecialFft};
use fhe_math::poly::{mod_down, mod_up, pmod_up, ModDownContext, Representation, RnsPoly};
use fhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
use fhe_math::rns::{BasisExtender, RnsBasis};
use fhe_math::{Modulus, NttTable};
use proptest::prelude::*;
use std::sync::Arc;

fn modulus_strategy() -> impl Strategy<Value = Modulus> {
    prop_oneof![
        Just(Modulus::new(65537).unwrap()),
        Just(Modulus::new((1 << 45) - 229).unwrap()),
        Just(Modulus::new((1 << 61) - 1).unwrap()),
        Just(Modulus::new(97).unwrap()),
    ]
}

proptest! {
    #[test]
    fn modular_ops_match_u128_reference(
        q in modulus_strategy(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (a, b) = (a % q.value(), b % q.value());
        let m = q.value() as u128;
        prop_assert_eq!(q.add(a, b) as u128, (a as u128 + b as u128) % m);
        prop_assert_eq!(q.sub(a, b) as u128, (a as u128 + m - b as u128) % m);
        prop_assert_eq!(q.mul(a, b) as u128, (a as u128 * b as u128) % m);
        prop_assert_eq!(q.neg(a) as u128, (m - a as u128) % m);
    }

    #[test]
    fn multiplication_distributes_over_addition(
        q in modulus_strategy(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let (a, b, c) = (a % q.value(), b % q.value(), c % q.value());
        prop_assert_eq!(q.mul(a, q.add(b, c)), q.add(q.mul(a, b), q.mul(a, c)));
    }

    #[test]
    fn shoup_multiplication_matches_barrett(
        q in modulus_strategy(),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (a, b) = (a % q.value(), b % q.value());
        let bs = q.shoup(b);
        prop_assert_eq!(q.mul_shoup(a, b, bs), q.mul(a, b));
    }

    #[test]
    fn inverse_is_two_sided(q in modulus_strategy(), a in 1u64..u64::MAX) {
        let a = a % q.value();
        prop_assume!(a != 0);
        if let Some(inv) = q.inv(a) {
            prop_assert_eq!(q.mul(a, inv), 1);
            prop_assert_eq!(q.mul(inv, a), 1);
        }
    }

    #[test]
    fn centered_representatives_roundtrip(q in modulus_strategy(), a in any::<u64>()) {
        let a = a % q.value();
        prop_assert_eq!(q.from_i64(q.to_centered(a)), a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ntt_roundtrip_on_random_polynomials(seed in any::<u64>()) {
        let n = 64usize;
        let q = generate_ntt_primes(1, 40, n)[0];
        let table = NttTable::new(q, n).unwrap();
        let mut data: Vec<u64> = (0..n as u64)
            .map(|i| (seed.wrapping_mul(i.wrapping_add(1)).wrapping_mul(0x9e3779b97f4a7c15)) % q)
            .collect();
        let orig = data.clone();
        table.forward(&mut data);
        table.inverse(&mut data);
        prop_assert_eq!(data, orig);
    }

    #[test]
    fn ntt_multiplication_is_commutative(sa in any::<u64>(), sb in any::<u64>()) {
        let n = 32usize;
        let q = generate_ntt_primes(1, 30, n)[0];
        let table = NttTable::new(q, n).unwrap();
        let m = *table.modulus();
        let gen = |s: u64| -> Vec<u64> {
            (0..n as u64).map(|i| s.wrapping_mul(i + 3) % q).collect()
        };
        let (mut a, mut b) = (gen(sa), gen(sb));
        table.forward(&mut a);
        table.forward(&mut b);
        let ab: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.mul(x, y)).collect();
        let ba: Vec<u64> = b.iter().zip(&a).map(|(&x, &y)| m.mul(x, y)).collect();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn crt_roundtrip_arbitrary_residues(seed in any::<u64>()) {
        let n = 16usize;
        let primes = generate_ntt_primes(4, 28, n);
        let basis = RnsBasis::new(&primes, n).unwrap();
        let residues: Vec<u64> = primes
            .iter()
            .enumerate()
            .map(|(i, &p)| seed.wrapping_mul(0x9e3779b9).wrapping_add(i as u64 * 0xabcdef) % p)
            .collect();
        let x = basis.crt_reconstruct(&residues);
        for (i, &p) in primes.iter().enumerate() {
            prop_assert_eq!(x.rem_u64(p), residues[i]);
        }
        prop_assert!(x < basis.product());
    }

    #[test]
    fn basis_extension_is_exact_everywhere(seed in any::<u64>()) {
        let n = 16usize;
        let src_primes = generate_ntt_primes(3, 26, n);
        let dst_primes = generate_ntt_primes_excluding(3, 27, n, &src_primes);
        let src = RnsBasis::new(&src_primes, n).unwrap();
        let dst = RnsBasis::new(&dst_primes, n).unwrap();
        let ext = BasisExtender::new(&src, &dst);
        let residues: Vec<u64> = src_primes
            .iter()
            .enumerate()
            .map(|(i, &p)| seed.wrapping_mul(0x2545f491).wrapping_add(i as u64) % p)
            .collect();
        let x = src.crt_reconstruct(&residues);
        let mut out = vec![0u64; 3];
        ext.extend_coeff(&residues, &mut out);
        for (j, &p) in dst_primes.iter().enumerate() {
            prop_assert_eq!(out[j], x.rem_u64(p));
        }
    }

    #[test]
    fn automorphism_composition(k1 in 0usize..16, k2 in 0usize..16) {
        // σ_{k1} ∘ σ_{k2} = σ_{k1·k2 mod 2N} on coefficients.
        let n = 32usize;
        let two_n = 2 * n as u64;
        let (k1, k2) = (2 * k1 as u64 + 1, 2 * k2 as u64 + 1);
        let q = generate_ntt_primes(1, 28, n)[0];
        let table = NttTable::new(q, n).unwrap();
        let a1 = Automorphism::new(k1, &table);
        let a2 = Automorphism::new(k2, &table);
        let a12 = Automorphism::new((k1 * k2) % two_n, &table);
        let src: Vec<u64> = (0..n as u64).map(|i| (i * 37 + 11) % q).collect();
        let mut tmp = vec![0u64; n];
        let mut lhs = vec![0u64; n];
        a2.apply_coeff(&src, &mut tmp, q);
        a1.apply_coeff(&tmp, &mut lhs, q);
        let mut rhs = vec![0u64; n];
        a12.apply_coeff(&src, &mut rhs, q);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn special_fft_roundtrip(res in prop::collection::vec(-1000.0f64..1000.0, 16)) {
        let fft = SpecialFft::new(16);
        let mut vals: Vec<Complex> = res
            .iter()
            .enumerate()
            .map(|(i, &r)| Complex::new(r, (i as f64 - 8.0) * 0.5))
            .collect();
        let orig = vals.clone();
        fft.inverse(&mut vals);
        fft.forward(&mut vals);
        for (a, b) in vals.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }
}

/// A deterministic pseudo-random flat limb-major buffer with every residue
/// reduced mod its limb modulus.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn full_poly_ntt_roundtrip_is_the_identity(seed in any::<u64>()) {
        let n = 64usize;
        let primes = generate_ntt_primes(4, 30, n);
        let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
        let x = RnsPoly::from_flat(
            basis,
            random_flat(seed, &primes, n),
            Representation::Coefficient,
        );
        let mut y = x.clone();
        y.to_eval();
        prop_assert_eq!(y.representation(), Representation::Evaluation);
        y.to_coeff();
        prop_assert_eq!(y.flat(), x.flat());
    }

    #[test]
    fn pmod_up_then_mod_down_is_the_identity(seed in any::<u64>()) {
        // PModUp lifts x to P·x over B ∪ B'; ModDown divides by P. The
        // composite is exact — this is the invariant the merged-ModDown
        // multiplication path (Figure 4c) rests on.
        let n = 32usize;
        let q_primes = generate_ntt_primes(3, 28, n);
        let p_primes = generate_ntt_primes_excluding(2, 29, n, &q_primes);
        let q = Arc::new(RnsBasis::new(&q_primes, n).unwrap());
        let p = RnsBasis::new(&p_primes, n).unwrap();
        let x = RnsPoly::from_flat(
            q.clone(),
            random_flat(seed, &q_primes, n),
            Representation::Evaluation,
        );
        let lifted = pmod_up(&x, &p);
        prop_assert_eq!(lifted.limb_count(), q_primes.len() + p_primes.len());
        let ctx = ModDownContext::new(q, &p);
        let back = mod_down(&lifted, &ctx);
        prop_assert_eq!(back.flat(), x.flat());
    }

    #[test]
    fn mod_up_matches_crt_reconstruction(seed in any::<u64>()) {
        // The lifted limbs produced by ModUp must carry exactly
        // [x mod p_j] for the non-negative CRT representative x — the fast
        // basis extension may not wrap by a stray multiple of Q.
        let n = 16usize;
        let q_primes = generate_ntt_primes(3, 26, n);
        let p_primes = generate_ntt_primes_excluding(2, 27, n, &q_primes);
        let q = Arc::new(RnsBasis::new(&q_primes, n).unwrap());
        let p = RnsBasis::new(&p_primes, n).unwrap();
        let ext = BasisExtender::new(&q, &p);
        let x = RnsPoly::from_flat(
            q.clone(),
            random_flat(seed, &q_primes, n),
            Representation::Coefficient,
        );
        let mut ev = x.clone();
        ev.to_eval();
        let mut raised = mod_up(&ev, &p, &ext);
        raised.to_coeff();
        let l = q_primes.len();
        for k in 0..n {
            let residues: Vec<u64> = (0..l).map(|i| x.limb(i)[k]).collect();
            let big = q.crt_reconstruct(&residues);
            for (j, &pj) in p_primes.iter().enumerate() {
                prop_assert_eq!(raised.limb(l + j)[k], big.rem_u64(pj));
            }
            // The original limbs ride along untouched.
            for i in 0..l {
                prop_assert_eq!(raised.limb(i)[k], x.limb(i)[k]);
            }
        }
    }

    #[test]
    fn automorphism_commutes_with_the_ntt(seed in any::<u64>(), k in 0usize..32) {
        // σ_k applied to coefficients, then transformed, equals transforming
        // first and applying σ_k as an evaluation-domain permutation.
        let n = 64usize;
        let k = 2 * k as u64 + 1; // any odd Galois element
        let primes = generate_ntt_primes(3, 28, n);
        let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
        let auto = Automorphism::new(k, basis.ntt_table(0));
        let x = RnsPoly::from_flat(
            basis,
            random_flat(seed, &primes, n),
            Representation::Coefficient,
        );
        let mut coeff_first = x.automorphism(&auto);
        coeff_first.to_eval();
        let mut eval_first = x.clone();
        eval_first.to_eval();
        let eval_first = eval_first.automorphism(&auto);
        prop_assert_eq!(coeff_first.flat(), eval_first.flat());
    }
}

proptest! {
    #[test]
    fn ubig_matches_u128_semantics(a in any::<u64>(), b in any::<u64>(), m in 1u64..u64::MAX) {
        let mut x = UBig::from(a);
        x.mul_small(b);
        let expect = a as u128 * b as u128;
        prop_assert_eq!(x.rem_u64(m) as u128, expect % m as u128);
        let mut y = UBig::from(expect);
        y.add_small(a);
        prop_assert_eq!(y.rem_u64(m) as u128, (expect + a as u128) % m as u128);
    }

    #[test]
    fn ubig_ordering_is_total_on_samples(a in any::<u128>(), b in any::<u128>()) {
        let (ua, ub) = (UBig::from(a), UBig::from(b));
        prop_assert_eq!(ua.cmp(&ub), a.cmp(&b));
    }

    #[test]
    fn ubig_shift_halves(a in any::<u128>(), sh in 0usize..100) {
        let x = UBig::from(a);
        prop_assert_eq!(x.shr(sh), UBig::from(a >> sh.min(127)));
    }
}

proptest! {
    /// Every limb of a polynomial built from signed coefficients is each
    /// coefficient's `rem_euclid`, whether the coefficients all sit below
    /// the limb's modulus (the branch-free loop) or some reach past it.
    #[test]
    fn signed_coefficients_reduce_like_rem_euclid(
        raw in prop::collection::vec(any::<i64>(), 16),
        shift in 0u32..64,
    ) {
        let n = 16;
        let mut primes = generate_ntt_primes(2, 20, n);
        primes.extend(generate_ntt_primes_excluding(2, 50, n, &primes));
        let basis = Arc::new(RnsBasis::new(&primes, n).unwrap());
        let coeffs: Vec<i64> = raw.iter().map(|&c| c >> shift).collect();
        let poly = RnsPoly::from_signed_coeffs(basis, &coeffs);
        for (limb, &q) in poly.flat().chunks_exact(n).zip(&primes) {
            let want: Vec<u64> = coeffs.iter().map(|&c| c.rem_euclid(q as i64) as u64).collect();
            prop_assert_eq!(limb, &want[..], "q = {}, shift = {}", q, shift);
        }
    }
}
