//! Secret-key and noise distributions for RLWE-based schemes.
//!
//! CKKS key generation samples the secret from a ternary distribution and
//! encryption noise from a centered discrete Gaussian (σ ≈ 3.2 per the
//! Homomorphic Encryption Standard). Uniform ring elements are used for the
//! `a` component of ciphertexts and switching keys — the component the MAD
//! key-compression optimization replaces with a PRNG seed.

use crate::ifma::{self, Lanes};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

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
/// seeded generator reproduces the exact buffer. A published `a` (a key's,
/// a fresh ciphertext's) is not drawn so but expanded from a seed by
/// [`SeededUniform`], which draws any limb without the others.
pub fn sample_uniform_flat<R: Rng + ?Sized>(rng: &mut R, moduli: &[u64], n: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(moduli.len() * n);
    for &q in moduli {
        let die = Uniform::new(0u64, q);
        out.extend((0..n).map(|_| die.sample(rng)));
    }
    out
}

/// A 32-byte seed to publish in place of a uniform polynomial: the first
/// 32 bytes of ChaCha20 block 0 (RFC 8439 §2.3, zero nonce) keyed by 32
/// bytes drawn from `rng`. `rng` gives up exactly those 32 bytes, as a raw
/// `rng.gen::<[u8; 32]>()` would, but what is published is no window onto
/// the stream that the draws after it (a key's or a ciphertext's error)
/// come from.
pub fn fresh_seed<R: Rng + ?Sized>(rng: &mut R) -> [u8; 32] {
    let block = chacha20_block(&rng.gen(), 0, &[0; 12]);
    let mut seed = [0u8; 32];
    for (bytes, word) in seed.chunks_exact_mut(4).zip(block) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    seed
}

/// The ChaCha20 block function (RFC 8439 §2.3): the sixteen output words
/// of block `counter` under `key` and `nonce`.
fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let word = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let mut start = [0u32; 16];
    start[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    for (w, b) in start[4..12].iter_mut().zip(key.chunks_exact(4)) {
        *w = word(b);
    }
    start[12] = counter;
    for (w, b) in start[13..].iter_mut().zip(nonce.chunks_exact(4)) {
        *w = word(b);
    }
    let mut x = start;
    for _ in 0..10 {
        // A column round, then a diagonal round.
        for [a, b, c, d] in [
            [0, 4, 8, 12],
            [1, 5, 9, 13],
            [2, 6, 10, 14],
            [3, 7, 11, 15],
            [0, 5, 10, 15],
            [1, 6, 11, 12],
            [2, 7, 8, 13],
            [3, 4, 9, 14],
        ] {
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(16);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(12);
            x[a] = x[a].wrapping_add(x[b]);
            x[d] = (x[d] ^ x[a]).rotate_left(8);
            x[c] = x[c].wrapping_add(x[d]);
            x[b] = (x[b] ^ x[c]).rotate_left(7);
        }
    }
    for (x, s) in x.iter_mut().zip(start) {
        *x = x.wrapping_add(s);
    }
    x
}

/// The uniform polynomials a seed expands into, for one shape: the `a_j`
/// of a seeded switching key, or (its first polynomial) a fresh
/// ciphertext's `c_1`, or any selection of their limbs.
///
/// Limb `i` of polynomial `p` is limb `t = p·|moduli| + i` of the
/// expansion, and each limb is a stream of its own: its word `w` is the
/// `⌊w/8⌋`-th output of xoshiro256++ generator `(t, w mod 8)`, started
/// from `limb_generators(seed, t)`, mapped below `q` by `⌊r·q/2^64⌋`
/// (the vendored `Uniform`'s map). So any limb is drawn without drawing
/// another, and the limbs `0..ℓ` of the first polynomial do not depend on
/// the limb count.
///
/// Where the CPU has AVX-512 IFMA, every modulus is below `2^50` and `n` is
/// a multiple of 8, the eight generators of a limb run on lanes, one step
/// drawing one 8-word block; elsewhere they run as eight scalar states.
/// Both emit the same words.
#[derive(Clone, Debug)]
pub struct SeededUniform {
    moduli: Vec<u64>,
    n: usize,
    count: usize,
    lanes: Option<Lanes>,
}

/// SplitMix64's output function: a bijection of the words in which every
/// input bit reaches every output bit.
fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The start states of the eight xoshiro256++ generators limb `t` of
/// `seed`'s expansion draws from: word `k` of generator `j`'s state is
/// `mix64(seed_k ⊕ mix64(4·(8t + j) + k + 1))` for the seed's
/// little-endian words `seed_k`, with the low bit of word 3 set. Every
/// seed word reaches every generator; word 0 is a bijection of `8t + j`,
/// so no two generators start alike; the set bit keeps every state off
/// all-zero, the one state xoshiro never leaves, whatever the seed.
pub(crate) fn limb_generators(seed: &[u8; 32], t: usize) -> [[u64; 4]; 8] {
    std::array::from_fn(|j| {
        let mut s = [0; 4];
        for (k, (word, bytes)) in s.iter_mut().zip(seed.chunks_exact(8)).enumerate() {
            let seed_k = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            *word = mix64(seed_k ^ mix64(4 * (8 * t + j) as u64 + k as u64 + 1));
        }
        s[3] |= 1;
        s
    })
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
        Self {
            moduli: moduli.to_vec(),
            n,
            count,
            lanes: ifma::uniform_lanes(moduli, n),
        }
    }

    /// The `count` polynomials `seed` expands into, each a flat limb-major
    /// buffer of its own (limb `i` = words `i·n .. (i+1)·n`).
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
        for (p, out) in out.iter_mut().enumerate() {
            out.reserve(limbs.len() * self.n);
            for &i in limbs {
                self.draw(&seed, p * width + i, self.moduli[i], out);
            }
        }
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
        out.reserve(polys * self.n);
        for p in 0..polys {
            self.draw(&seed, p * width + limb, self.moduli[limb], out);
        }
    }

    /// Appends limb `t` of `seed`'s expansion, mod `q`, to `out`. The
    /// portable body runs each generator as the vendored `StdRng`, which
    /// is xoshiro256++ and starts at the state its seed's words spell
    /// (none is all-zero). It fills 64 words at a time, each generator
    /// stepping through its eight words of them in turn, so its state
    /// stays in registers (word by word round-robin spills all eight
    /// states).
    fn draw(&self, seed: &[u8; 32], t: usize, q: u64, out: &mut Vec<u64>) {
        let states = limb_generators(seed, t);
        if let Some(lanes) = self.lanes {
            return lanes.uniform(&states, q, self.n, out);
        }
        let mut generators = states.map(|state| {
            let mut bytes = [0u8; 32];
            for (b, word) in bytes.chunks_exact_mut(8).zip(state) {
                b.copy_from_slice(&word.to_le_bytes());
            }
            StdRng::from_seed(bytes)
        });
        let q = q as u128;
        let mut words = [0u64; 64];
        for start in (0..self.n).step_by(64) {
            let block = &mut words[..(self.n - start).min(64)];
            for (j, g) in generators.iter_mut().enumerate() {
                for word in block.iter_mut().skip(j).step_by(8) {
                    *word = ((g.next_u64() as u128 * q) >> 64) as u64;
                }
            }
            out.extend_from_slice(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            SeededUniform::new(&narrow, 8, 3).lanes.is_some(),
            ifma::detected()
        );
        assert!(SeededUniform::new(&[1 << 50, 97], 64, 3).lanes.is_none());
        assert!(SeededUniform::new(&narrow, 20, 3).lanes.is_none());
    }

    #[test]
    fn one_limb_of_several_polynomials_is_their_selected_limbs() {
        // Lane-sized (where the CPU has the lanes) and portable shapes.
        for n in [64, 20] {
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
    fn no_two_generators_start_alike_even_for_a_crafted_seed() {
        let mut starts = std::collections::HashSet::new();
        for t in 0..64 {
            for state in limb_generators(&[0; 32], t) {
                assert!(starts.insert(state), "limb {t}");
            }
        }
        // The seed that would cancel generator `(0, 0)`'s inner words.
        let mut crafted = [0u8; 32];
        for (k, bytes) in crafted.chunks_exact_mut(8).enumerate() {
            bytes.copy_from_slice(&mix64(k as u64 + 1).to_le_bytes());
        }
        assert!(limb_generators(&crafted, 0).iter().all(|s| *s != [0; 4]));
    }

    #[test]
    fn chacha20_block_matches_rfc_8439() {
        // RFC 8439 §2.3.2: the state after the block function.
        let key: [u8; 32] = std::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        assert_eq!(
            chacha20_block(&key, 1, &nonce),
            [
                0xe4e7_f110,
                0x1559_3bd1,
                0x1fdd_0f50,
                0xc471_20a3,
                0xc7f4_d1c7,
                0x0368_c033,
                0x9aaa_2204,
                0x4e6c_d4c3,
                0x4664_82d2,
                0x09aa_9f07,
                0x05d7_c214,
                0xa202_8bd9,
                0xd19c_12b5,
                0xb94e_16de,
                0xe883_d0cb,
                0x4e3c_50a2,
            ]
        );
    }

    #[test]
    fn a_fresh_seed_takes_32_bytes_and_publishes_none_of_them() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut raw = rng.clone();
        let seed = fresh_seed(&mut rng);
        assert_ne!(seed, raw.gen::<[u8; 32]>());
        assert_eq!(
            rng.gen::<u64>(),
            raw.gen::<u64>(),
            "the stream moved 32 bytes"
        );
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let a = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        let b = sample_ternary(&mut StdRng::seed_from_u64(42), 64);
        assert_eq!(a, b);
    }
}
