//! Secret-key and noise distributions for RLWE-based schemes.
//!
//! CKKS key generation samples the secret from a ternary distribution and
//! encryption noise from a centered discrete Gaussian (σ ≈ 3.2 per the
//! Homomorphic Encryption Standard). Uniform ring elements are used for the
//! `a` component of ciphertexts and switching keys — the component the MAD
//! key-compression optimization replaces with a PRNG seed.

use crate::ifma::{self, Lanes};
use crate::xoshiro::{Jump, State};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Standard deviation of the encryption noise mandated by the HE standard.
pub const NOISE_STDDEV: f64 = 3.2;

/// Samples a ternary secret polynomial with coefficients in `{-1, 0, 1}`
/// (as signed integers), each nonzero with probability 2/3.
pub fn sample_ternary<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    let die = Uniform::new(0u8, 3);
    (0..n)
        .map(|_| match die.sample(rng) {
            0 => -1,
            1 => 0,
            _ => 1,
        })
        .collect()
}

/// Samples a ternary secret with exactly `hamming_weight` nonzero
/// coefficients (sparse secrets, as used by bootstrapping-oriented
/// parameter sets).
///
/// # Panics
///
/// Panics if `hamming_weight > n`.
pub fn sample_sparse_ternary<R: Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    hamming_weight: usize,
) -> Vec<i64> {
    assert!(hamming_weight <= n, "hamming weight exceeds degree");
    let mut s = vec![0i64; n];
    let mut placed = 0;
    while placed < hamming_weight {
        let idx = rng.gen_range(0..n);
        if s[idx] == 0 {
            s[idx] = if rng.gen::<bool>() { 1 } else { -1 };
            placed += 1;
        }
    }
    s
}

/// Samples a rounded centered Gaussian with standard deviation
/// [`NOISE_STDDEV`], truncated at six standard deviations.
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<i64> {
    let bound = (6.0 * NOISE_STDDEV).ceil() as i64;
    (0..n)
        .map(|_| {
            loop {
                // Box–Muller.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let v = (z * NOISE_STDDEV).round() as i64;
                if v.abs() <= bound {
                    return v;
                }
            }
        })
        .collect()
}

/// Samples a uniform polynomial with coefficients in `[0, q)` for each limb
/// modulus in `moduli`, returned as a flat limb-major buffer (limb `i` =
/// `out[i·n .. (i+1)·n]`).
///
/// Sampling order is limb-major and sequential in the RNG stream, so a
/// seeded generator reproduces the exact buffer — the property the MAD
/// key-compression optimization relies on to regenerate `a` components
/// from a 32-byte seed.
pub fn sample_uniform_flat<R: Rng + ?Sized>(rng: &mut R, moduli: &[u64], n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(moduli.len() * n);
    for &q in moduli {
        let die = Uniform::new(0u64, q);
        out.extend((0..n).map(|_| die.sample(rng)));
    }
    out
}

/// The uniform polynomials a seed expands into, for one shape: exactly
/// what `StdRng::from_seed(seed)` followed by `count` calls of
/// [`sample_uniform_flat`]`(rng, moduli, n)` draws — the `a_j` of a seeded
/// switching key.
///
/// Where the CPU has AVX-512 IFMA, every modulus is below `2^50` and `n` is
/// a multiple of 8, eight xoshiro256++ generators on lanes draw eight
/// stretches of that one stream at once. Lane `j` owns limbs
/// `[j·c, (j+1)·c)` of the `count·|moduli|`, `c = ⌈count·|moduli|/8⌉`, so it
/// starts `j·c·n` draws in: one GF(2) jump by `c·n` steps from lane
/// `j − 1`'s start, the jump polynomial built once here. Elsewhere, and for
/// the all-zero seed (which `from_seed` remixes through splitmix64), the
/// serial loop runs. Both emit the same words.
#[derive(Clone, Debug)]
pub struct SeededUniform {
    moduli: Vec<u64>,
    n: usize,
    count: usize,
    /// `c`: the limbs each lane draws.
    per_lane: usize,
    /// The lanes, and the jump from one lane's start to the next's.
    lanes: Option<(Lanes, Jump)>,
}

impl SeededUniform {
    /// The expansion into `count` polynomials of `n`-word limbs mod
    /// `moduli`.
    ///
    /// # Panics
    ///
    /// Panics if a modulus is zero.
    pub fn new(moduli: &[u64], n: usize, count: usize) -> Self {
        assert!(moduli.iter().all(|&q| q > 0), "a modulus is zero");
        let per_lane = (count * moduli.len()).div_ceil(8);
        let lanes = ifma::uniform_lanes(moduli, n).map(|l| (l, Jump::new((per_lane * n) as u64)));
        Self {
            moduli: moduli.to_vec(),
            n,
            count,
            per_lane,
            lanes,
        }
    }

    /// The `count` polynomials `seed` expands into, each a flat limb-major
    /// buffer of its own as [`sample_uniform_flat`] returns it.
    pub fn expand(&self, seed: [u8; 32]) -> Vec<Vec<u64>> {
        if let (Some((lanes, jump)), Some(first)) = (&self.lanes, State::from_seed(seed)) {
            let mut starts = [first; 8];
            for j in 1..8 {
                starts[j] = starts[j - 1].jumped(jump);
            }
            return lanes.uniform(&starts, &self.moduli, self.n, self.count, self.per_lane);
        }
        let mut rng = StdRng::from_seed(seed);
        (0..self.count)
            .map(|_| sample_uniform_flat(&mut rng, &self.moduli, self.n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ternary_values_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let s = sample_ternary(&mut rng, 4096);
        assert!(s.iter().all(|&x| (-1..=1).contains(&x)));
        // Each value should occur with roughly 1/3 probability.
        let zeros = s.iter().filter(|&&x| x == 0).count();
        assert!((zeros as f64 / 4096.0 - 1.0 / 3.0).abs() < 0.05);
    }

    #[test]
    fn sparse_ternary_exact_weight() {
        let mut rng = StdRng::seed_from_u64(11);
        let s = sample_sparse_ternary(&mut rng, 1024, 64);
        assert_eq!(s.iter().filter(|&&x| x != 0).count(), 64);
    }

    #[test]
    #[should_panic(expected = "hamming weight")]
    fn sparse_ternary_rejects_overweight() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = sample_sparse_ternary(&mut rng, 8, 9);
    }

    #[test]
    fn gaussian_moments_plausible() {
        let mut rng = StdRng::seed_from_u64(3);
        let e = sample_gaussian(&mut rng, 1 << 14);
        let n = e.len() as f64;
        let mean = e.iter().sum::<i64>() as f64 / n;
        let var = e.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!(mean.abs() < 0.2, "mean {mean} too far from 0");
        assert!(
            (var.sqrt() - NOISE_STDDEV).abs() < 0.3,
            "stddev {} too far from {NOISE_STDDEV}",
            var.sqrt()
        );
        let bound = (6.0 * NOISE_STDDEV).ceil() as i64;
        assert!(e.iter().all(|&x| x.abs() <= bound));
    }

    #[test]
    fn uniform_limbs_respect_moduli() {
        let mut rng = StdRng::seed_from_u64(5);
        let moduli = [97u64, 65537, (1 << 30) + 3];
        let flat = sample_uniform_flat(&mut rng, &moduli, 512);
        assert_eq!(flat.len(), 3 * 512);
        for (i, limb) in flat.chunks_exact(512).enumerate() {
            assert!(limb.iter().all(|&x| x < moduli[i]));
        }
    }

    #[test]
    fn uniform_flat_is_seed_reproducible() {
        let moduli = [(1u64 << 30) + 3, (1 << 31) + 11];
        let a = sample_uniform_flat(&mut StdRng::seed_from_u64(99), &moduli, 64);
        let b = sample_uniform_flat(&mut StdRng::seed_from_u64(99), &moduli, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn seeded_expansion_takes_the_lanes_where_it_can() {
        let narrow = [(1u64 << 50) - 1, 97, 1 << 40];
        assert_eq!(
            SeededUniform::new(&narrow, 64, 3).lanes.is_some(),
            ifma::detected()
        );
        assert!(SeededUniform::new(&[1 << 50, 97], 64, 3).lanes.is_none());
        assert!(SeededUniform::new(&narrow, 20, 3).lanes.is_none());
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let a = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        let b = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        assert_eq!(a, b);
    }
}
