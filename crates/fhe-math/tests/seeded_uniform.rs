//! Seeded expansion against the stream it reproduces: for random seeds and
//! the all-zero seed, [`SeededUniform::expand`] must return exactly the
//! polynomials that `StdRng::from_seed(seed)` followed by `count` calls of
//! [`sample_uniform_flat`] draws, each in a buffer of exactly its own size,
//! and [`SeededUniform::expand_limbs`] exactly the limbs it selects of
//! them.
//!
//! The expansion runs on eight AVX-512 IFMA lanes when the CPU has them,
//! every modulus is below `2^50` and `n` is a multiple of 64, and serially
//! otherwise. The lanes split a selection's words evenly, an eighth of a
//! limb at a time, so a lane's stretch starts part-way through a limb
//! unless the limb count is a multiple of 8. So the moduli here fall on
//! both sides of `2^50`, and the limb totals (1, 2, 3, 6, 10, 12, 24, 33,
//! 60) put the lanes' starts at every eighth. On a CPU without IFMA every
//! test still passes, exercising the serial body only.

use fhe_math::sampling::{sample_uniform_flat, SeededUniform};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Limb sizes: one the lanes never take, the smallest they take, and the
/// benchmark's rings.
const DEGREES: [usize; 5] = [32, 64, 4096, 8192, 16384];

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

/// The limbs `limbs` of each of the first `polys` polynomials of `full`.
fn slices(full: &[Vec<u64>], polys: usize, limbs: &[usize], n: usize) -> Vec<Vec<u64>> {
    full[..polys]
        .iter()
        .map(|p| {
            limbs
                .iter()
                .flat_map(|&i| &p[i * n..(i + 1) * n])
                .copied()
                .collect()
        })
        .collect()
}

fn assert_selects_like_the_full_expansion(
    seed: [u8; 32],
    moduli: &[u64],
    n: usize,
    count: usize,
    polys: usize,
    limbs: &[usize],
) {
    let shape = SeededUniform::new(moduli, n, count);
    let got = expand_limbs(&shape, seed, polys, limbs, n);
    let want = slices(&shape.expand(seed), polys, limbs, n);
    assert_eq!(got.len(), polys);
    for (p, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got.capacity(), limbs.len() * n, "polynomial {p} owns more");
        assert!(
            got == want,
            "polynomial {p} of {polys} differs at limbs {limbs:?} (n = {n}, {} limbs)",
            moduli.len()
        );
    }
}

/// [`SeededUniform::expand_limbs`] into `polys` fresh buffers, each
/// reserved at exactly the selection's size.
fn expand_limbs(
    shape: &SeededUniform,
    seed: [u8; 32],
    polys: usize,
    limbs: &[usize],
    n: usize,
) -> Vec<Vec<u64>> {
    let mut out: Vec<Vec<u64>> = (0..polys)
        .map(|_| Vec::with_capacity(limbs.len() * n))
        .collect();
    shape.expand_limbs(seed, limbs, &mut out);
    out
}

/// A key switch's selection at `ell` of `levels` Q-limbs and `special`
/// P-limbs: `Q_ℓ ∪ P`.
fn raised(ell: usize, levels: usize, special: usize) -> Vec<usize> {
    (0..ell).chain(levels..levels + special).collect()
}

#[test]
fn a_raised_selection_is_the_matching_slices_of_the_full_expansion() {
    let mut rng = StdRng::seed_from_u64(0x7e11);
    // The thrash ring's key (L = 12, α = 3, dnum = 4), a dnum = 3 key
    // (L = 8, α = 3) and a ragged one (L = 5, α = 2): every level, the
    // β(ℓ) digits a key switch there reads.
    for (levels, special, count) in [(12, 3, 4), (8, 3, 3), (5, 2, 3)] {
        for wide in [false, true] {
            let moduli = moduli(&mut rng, levels + special, wide);
            for ell in 1..=levels {
                let polys = ell.div_ceil(special).min(count);
                let seed: [u8; 32] = if ell == 2 { [0; 32] } else { rng.gen() };
                let limbs = raised(ell, levels, special);
                assert_selects_like_the_full_expansion(seed, &moduli, 64, count, polys, &limbs);
            }
        }
    }
}

#[test]
fn degenerate_selections_draw_nothing_or_everything() {
    let mut rng = StdRng::seed_from_u64(3);
    let moduli = moduli(&mut rng, 5, false);
    for n in [32, 64] {
        let shape = SeededUniform::new(&moduli, n, 3);
        assert!(expand_limbs(&shape, [1; 32], 0, &[0, 1], n).is_empty());
        assert!(expand_limbs(&shape, [1; 32], 2, &[], n)
            .iter()
            .all(Vec::is_empty));
        let every: Vec<usize> = (0..5).collect();
        assert_eq!(
            expand_limbs(&shape, [1; 32], 3, &every, n),
            shape.expand([1; 32])
        );
    }
}

#[test]
fn a_short_selection_fills_every_lane() {
    // A fresh ciphertext's `c_1` at a low level is a few limbs of the first
    // polynomial: 1, 2, 3 and 6 limbs leave whole-limb lanes idle, 10 a
    // ragged last round. Each is the prefix of the first polynomial, and
    // the same limbs picked out of the middle of the second.
    let mut rng = StdRng::seed_from_u64(0x1a4e);
    for n in [1 << 12, 1 << 13] {
        let moduli = moduli(&mut rng, 15, false);
        for m in [1usize, 2, 3, 6, 10] {
            let seed: [u8; 32] = rng.gen();
            let prefix: Vec<usize> = (0..m).collect();
            assert_selects_like_the_full_expansion(seed, &moduli, n, 2, 1, &prefix);
            let inner: Vec<usize> = (15 - m..15).collect();
            assert_selects_like_the_full_expansion(seed, &moduli, n, 2, 2, &inner);
        }
    }
}

#[test]
fn an_expansion_appends_behind_what_a_buffer_holds() {
    let mut rng = StdRng::seed_from_u64(0xa99e);
    let moduli = moduli(&mut rng, 6, false);
    let shape = SeededUniform::new(&moduli, 4096, 2);
    let want = expand_limbs(&shape, [9; 32], 2, &[1, 2, 4], 4096);
    let mut out = vec![vec![7u64; 5], vec![]];
    shape.expand_limbs([9; 32], &[1, 2, 4], &mut out);
    assert_eq!(out[0][..5], [7; 5]);
    assert_eq!(out[0][5..], want[0][..]);
    assert_eq!(out[1], want[1]);
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

    #[test]
    fn any_selection_is_the_matching_slices(
        case in any::<u64>(),
        zero_seed in 0u8..6,
        wide in any::<bool>(),
        n in prop::sample::select(DEGREES[..3].to_vec()),
        (count, limbs) in prop::sample::select(SHAPES.to_vec()),
        pick in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(case);
        let seed: [u8; 32] = if zero_seed == 0 { [0; 32] } else { rng.gen() };
        let moduli = moduli(&mut rng, limbs, wide);
        let polys = rng.gen_range(0..=count);
        let chosen: Vec<usize> = (0..limbs).filter(|i| pick >> (i % 64) & 1 == 1).collect();
        assert_selects_like_the_full_expansion(seed, &moduli, n, count, polys, &chosen);
    }
}
