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
use rand::Rng;

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
/// switching key, or (its first polynomial) a fresh ciphertext's `c_1` —
/// or any selection of their limbs.
///
/// The vendored `Uniform` takes one draw `r` per word and maps it to
/// `⌊r·q/2^64⌋`, so limb `i` of polynomial `p` is the `n` draws from
/// stream offset `t·n`, `t = p·|moduli| + i`. A selection of limbs is drawn
/// in runs that follow each other in the stream, each run from the seed's
/// state jumped to its first word; the jump to every place a run can start
/// is built once, by [`SeededUniform::new`]. [`SeededUniform::expand`] is
/// the selection of every limb of every polynomial: one run.
///
/// Where the CPU has AVX-512 IFMA, every modulus is below `2^50` and `n` is
/// a multiple of 64, eight xoshiro256++ generators on lanes draw the
/// selection at once, its words split evenly between them: with each limb
/// cut into eighths of `n/8` words, lane `j` draws eighths `[j·m, (j+1)·m)`
/// of the selection's `8·m`, restarting from a jumped state wherever its
/// next eighth does not follow its last in the stream; the lanes that
/// restart at one eighth's boundary are jumped together, in one 8-lane
/// pass of 256 steps. Elsewhere one generator draws the limbs in order.
/// Both emit the same words.
#[derive(Clone, Debug)]
pub struct SeededUniform {
    moduli: Vec<u64>,
    n: usize,
    count: usize,
    /// From the stream's start to every place a run can start in the
    /// `count·|moduli|` limbs: where the lanes draw, `jumps[8t + r]` to
    /// eighth `r` of limb `t` (`(8t + r)·n/8` steps); where one generator
    /// does, `jumps[t]` to limb `t` (`t·n` steps).
    jumps: Vec<Jump>,
    lanes: Option<Lanes>,
}

/// One limb of a selection: the `n` draws from stream offset `t·n`, each
/// mapped below `q`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LimbDraw {
    pub(crate) t: usize,
    pub(crate) q: u64,
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
        let lanes = ifma::uniform_lanes(moduli, n);
        let split = if lanes.is_some() { ifma::LANES } else { 1 };
        let step = Jump::new((n / split) as u64);
        let jumps = std::iter::successors(Some(Jump::new(0)), |j| Some(j.then(&step)))
            .take(count * moduli.len() * split)
            .collect();
        Self {
            moduli: moduli.to_vec(),
            n,
            count,
            jumps,
            lanes,
        }
    }

    /// The `count` polynomials `seed` expands into, each a flat limb-major
    /// buffer of its own as [`sample_uniform_flat`] returns it.
    pub fn expand(&self, seed: [u8; 32]) -> Vec<Vec<u64>> {
        let every: Vec<usize> = (0..self.moduli.len()).collect();
        let mut out: Vec<Vec<u64>> = (0..self.count)
            .map(|_| Vec::with_capacity(every.len() * self.n))
            .collect();
        self.expand_limbs(seed, &every, &mut out);
        out
    }

    /// The first `out.len()` of the polynomials `seed` expands into, each
    /// at only the limbs `limbs` (increasing indices into the moduli):
    /// appends to buffer `p`, in that order, those limbs of
    /// [`SeededUniform::expand`]'s polynomial `p`, and draws nothing else.
    /// A buffer grows only if its spare capacity is short of the
    /// `limbs.len()·n` words.
    ///
    /// # Panics
    ///
    /// Panics if there are more buffers than the shape's count, or `limbs`
    /// is not strictly increasing within the moduli.
    pub fn expand_limbs(&self, seed: [u8; 32], limbs: &[usize], out: &mut [Vec<u64>]) {
        let (width, polys) = (self.moduli.len(), out.len());
        assert!(polys <= self.count, "{polys} polynomials of {}", self.count);
        assert!(
            limbs.windows(2).all(|w| w[0] < w[1]) && limbs.last().is_none_or(|&i| i < width),
            "limbs {limbs:?} are not an increasing selection of {width}"
        );
        let draws: Vec<LimbDraw> = (0..polys)
            .flat_map(|p| {
                limbs.iter().map(move |&i| LimbDraw {
                    t: p * width + i,
                    q: self.moduli[i],
                })
            })
            .collect();
        self.draw(seed, &draws, out);
    }

    /// Limb `limb` of each of the first `polys` polynomials `seed` expands
    /// into, appended to `out` polynomial after polynomial: the words
    /// [`SeededUniform::expand_limbs`] would append for `&[limb]` to
    /// `polys` buffers, in one. `out` grows only if its spare capacity is
    /// short of the `polys·n` words — the one-limb draw a key switch makes
    /// just before it multiplies that limb.
    ///
    /// # Panics
    ///
    /// Panics if `polys` exceeds the shape's count or `limb` is not a
    /// modulus index.
    pub fn expand_limb(&self, seed: [u8; 32], limb: usize, polys: usize, out: &mut Vec<u64>) {
        let width = self.moduli.len();
        assert!(polys <= self.count, "{polys} polynomials of {}", self.count);
        assert!(limb < width, "limb {limb} of {width}");
        let draws: Vec<LimbDraw> = (0..polys)
            .map(|p| LimbDraw {
                t: p * width + limb,
                q: self.moduli[limb],
            })
            .collect();
        self.draw(seed, &draws, std::slice::from_mut(out));
    }

    /// Appends the limbs `draws` names to the `out.len()` buffers, an equal
    /// share each in order.
    fn draw(&self, seed: [u8; 32], draws: &[LimbDraw], out: &mut [Vec<u64>]) {
        let first = State::from_seed(seed);
        if let Some(lanes) = self.lanes {
            return lanes.uniform(draws, out, self.n, first, &self.jumps);
        }
        let per_poly = draws.len() / out.len().max(1);
        let mut state = first;
        for (g, d) in draws.iter().enumerate() {
            if g == 0 || draws[g - 1].t + 1 != d.t {
                state = first.jumped(&self.jumps[d.t]);
            }
            let q = d.q as u128;
            out[g / per_poly]
                .extend((0..self.n).map(|_| ((state.next() as u128 * q) >> 64) as u64));
        }
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
        assert!(SeededUniform::new(&narrow, 32, 3).lanes.is_none());
    }

    #[test]
    fn every_limb_or_eighth_has_its_jump() {
        let serial = SeededUniform::new(&[97, 101, 103], 32, 4);
        assert_eq!(serial.jumps.len(), 12);
        assert_eq!(serial.jumps[5], Jump::new(5 * 32));
        let shape = SeededUniform::new(&[97, 101, 103], 64, 4);
        let split = if ifma::detected() { 8 } else { 1 };
        assert_eq!(shape.jumps.len(), 12 * split);
        assert_eq!(
            shape.jumps[5 * split + split - 1],
            Jump::new(6 * 64 - 64 / split as u64)
        );
    }

    #[test]
    fn one_limb_of_several_polynomials_is_their_selected_limbs() {
        // Lane-sized (where the CPU has the lanes) and portable shapes.
        for n in [64, 32] {
            let shape = SeededUniform::new(&[97, (1 << 40) + 15, 103, 1 << 30], n, 3);
            for limb in 0..4 {
                for polys in 0..=3 {
                    let mut want = vec![Vec::new(); polys];
                    shape.expand_limbs([5; 32], &[limb], &mut want);
                    let mut got = vec![7];
                    shape.expand_limb([5; 32], limb, polys, &mut got);
                    assert_eq!(got, [vec![7], want.concat()].concat(), "n {n} limb {limb}");
                }
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let a = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        let b = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        assert_eq!(a, b);
    }
}
