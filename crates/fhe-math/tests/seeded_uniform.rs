//! Seeded expansion against the stream it reproduces: for random seeds and
//! the all-zero seed, [`SeededUniform::expand`] must return exactly the
//! polynomials that `StdRng::from_seed(seed)` followed by `count` calls of
//! [`sample_uniform_flat`] draws, each in a buffer of exactly its own size.
//!
//! The expansion runs on eight AVX-512 IFMA lanes when the CPU has them,
//! every modulus is below `2^50` and `n` is a multiple of 8, and serially
//! otherwise (and for the all-zero seed, which `from_seed` remixes). So the
//! moduli here fall on both sides of `2^50`, and the limb totals (10, 12,
//! 24, 33, 60) leave the last lanes short or empty. On a CPU without IFMA
//! every test still passes, exercising the serial body only.

use fhe_math::sampling::{sample_uniform_flat, SeededUniform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Limb sizes: the smallest the lanes take, and the benchmark's rings.
const DEGREES: [usize; 5] = [16, 32, 4096, 8192, 16384];

/// `(count, limbs per polynomial)`: 10, 12, 24, 33 and 60 limbs in all —
/// the last is the `dnum = 4`, `L + α = 15` key of the thrash ring.
const SHAPES: [(usize, usize); 5] = [(2, 5), (3, 4), (3, 8), (3, 11), (4, 15)];

/// What `StdRng::from_seed(seed)` and `count` serial draws give.
fn reference(seed: [u8; 32], moduli: &[u64], n: usize, count: usize) -> Vec<Vec<u64>> {
    let mut rng = StdRng::from_seed(seed);
    (0..count)
        .map(|_| sample_uniform_flat(&mut rng, moduli, n))
        .collect()
}

/// `limbs` moduli from `rng`: widths from 1 bit up to just below `2^50`
/// (the lanes' bound, `2^50 − 1` itself included), and with `wide` one
/// limb at `2^50` or above.
fn moduli(rng: &mut StdRng, limbs: usize, wide: bool) -> Vec<u64> {
    let mut moduli: Vec<u64> = (0..limbs)
        .map(|i| match i % 4 {
            0 => (1 << 50) - 1,
            1 => rng.gen_range(1..1 << 20),
            _ => rng.gen_range(1 << 40..1 << 50),
        })
        .collect();
    if wide {
        let at = rng.gen_range(0..limbs);
        moduli[at] = rng.gen_range(1 << 50..1 << 62);
    }
    moduli
}

fn assert_expands_like_the_stream(seed: [u8; 32], moduli: &[u64], n: usize, count: usize) {
    let got = SeededUniform::new(moduli, n, count).expand(seed);
    let want = reference(seed, moduli, n, count);
    assert_eq!(got.len(), count);
    for (d, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            got.capacity(),
            moduli.len() * n,
            "digit {d} owns more than itself"
        );
        assert!(
            got == want,
            "digit {d} differs (n = {n}, {} limbs)",
            moduli.len()
        );
    }
}

#[test]
fn every_degree_and_ragged_shape_expands_like_the_stream() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for n in DEGREES {
        for (count, limbs) in SHAPES {
            let seed: [u8; 32] = rng.gen();
            let moduli = moduli(&mut rng, limbs, false);
            assert_expands_like_the_stream(seed, &moduli, n, count);
        }
    }
}

#[test]
fn the_all_zero_seed_expands_like_the_stream() {
    let mut rng = StdRng::seed_from_u64(0);
    for (count, limbs) in SHAPES {
        let moduli = moduli(&mut rng, limbs, false);
        assert_expands_like_the_stream([0; 32], &moduli, 4096, count);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn seeded_expansion_is_the_serial_stream(
        case in any::<u64>(),
        zero_seed in 0u8..6,
        wide in any::<bool>(),
        n in prop::sample::select(DEGREES.to_vec()),
        (count, limbs) in prop::sample::select(SHAPES.to_vec()),
    ) {
        let mut rng = StdRng::seed_from_u64(case);
        let seed: [u8; 32] = if zero_seed == 0 { [0; 32] } else { rng.gen() };
        let moduli = moduli(&mut rng, limbs, wide);
        assert_expands_like_the_stream(seed, &moduli, n, count);
    }
}
