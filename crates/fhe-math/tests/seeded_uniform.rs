//! Seeded expansion against its definition: for random seeds and the
//! all-zero seed, [`SeededUniform::expand`] must return exactly the
//! polynomials [`reference`] restates — limb `t` of the expansion a stream
//! of its own, word `w` the `⌊w/8⌋`-th output of xoshiro256++ generator
//! `(t, w mod 8)` mapped below `q` — each in a buffer of exactly its own
//! size, and [`SeededUniform::expand_limbs`] exactly the limbs it selects
//! of them. A pinned digest catches a silent redefinition, and an
//! independence check catches generators that are not told apart.
//!
//! The expansion runs on eight AVX-512 IFMA lanes when the CPU has them,
//! every modulus is below `2^50` and `n` is a multiple of 8, and on eight
//! scalar states otherwise. So the moduli here fall on both sides of
//! `2^50`, and one degree (20) is not a multiple of 8. On a CPU without
//! IFMA every test still passes, exercising the scalar body only.

use fhe_math::sampling::SeededUniform;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Limb sizes: one the lanes never take (not a multiple of 8), two short
/// ones, and the benchmark's rings.
const DEGREES: [usize; 6] = [20, 32, 64, 4096, 8192, 16384];

/// `(count, limbs per polynomial)`: 10, 12, 24, 33 and 60 limbs in all —
/// the last is the `dnum = 4`, `L + α = 15` key of the thrash ring.
const SHAPES: [(usize, usize); 5] = [(2, 5), (3, 4), (3, 8), (3, 11), (4, 15)];

/// SplitMix64's output function.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The definition, one word at a time: generator `(t, j)` starts from
/// `mix64(seed_k ⊕ mix64(4·(8t + j) + k + 1))` for its state words `k`,
/// word 3 with its low bit set, and steps as xoshiro256++.
fn reference(seed: [u8; 32], moduli: &[u64], n: usize, count: usize) -> Vec<Vec<u64>> {
    let seed_word = |k: usize| u64::from_le_bytes(seed[8 * k..8 * k + 8].try_into().unwrap());
    let mut out = vec![Vec::new(); count];
    for (p, poly) in out.iter_mut().enumerate() {
        for (i, &q) in moduli.iter().enumerate() {
            let t = (p * moduli.len() + i) as u64;
            let mut states = [[0u64; 4]; 8];
            for (j, s) in states.iter_mut().enumerate() {
                for (k, word) in s.iter_mut().enumerate() {
                    *word = mix64(seed_word(k) ^ mix64(4 * (8 * t + j as u64) + k as u64 + 1));
                }
                s[3] |= 1;
            }
            for w in 0..n {
                let s = &mut states[w % 8];
                let r = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
                let x = s[1] << 17;
                s[2] ^= s[0];
                s[3] ^= s[1];
                s[1] ^= s[2];
                s[0] ^= s[3];
                s[2] ^= x;
                s[3] = s[3].rotate_left(45);
                poly.push(((r as u128 * q as u128) >> 64) as u64);
            }
        }
    }
    out
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

/// FNV-1a over the little-endian bytes of every word of `polys`.
fn digest(polys: &[Vec<u64>]) -> u64 {
    polys.iter().flatten().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// A redefinition of the expansion (another derivation, another map, a
/// reordering of the lanes) fails here even if the reference follows it:
/// one fixed seed's expansion, on a narrow shape (the lanes, where the CPU
/// has them) and a wide one (the scalar body), hashes to a recorded value.
#[test]
fn a_fixed_seed_expands_to_the_recorded_digest() {
    let seed: [u8; 32] = std::array::from_fn(|i| i as u8);
    let narrow = [(1 << 50) - 27, 97, (1 << 36) + 31];
    let wide = [(1 << 60) - 93, 65_537];
    let got = [
        digest(&SeededUniform::new(&narrow, 64, 2).expand(seed)),
        digest(&SeededUniform::new(&wide, 64, 2).expand(seed)),
    ];
    assert_eq!(
        got,
        [0x2fe4_ef10_6496_728b, 0x18d3_87ee_0195_f651],
        "{got:#018x?}"
    );
}

/// The generators of one expansion are told apart: no two `(limb, lane)`
/// generators share their first output (word `j < 8` of limb `t` is
/// generator `(t, j)`'s first, mapped below `q ≈ 2^50`), and in every limb
/// each of 16 equal buckets of `[0, q)` holds `n/16` words within a
/// quarter — over `8 192` words a bucket's count has σ ≈ 22, so a quarter
/// (128) is about six σ.
#[test]
fn every_limb_and_lane_draws_its_own_stream() {
    let n = 8192;
    let moduli = [
        (1 << 50) - 27,
        (1 << 50) - 55,
        (1 << 49) + 69,
        (1 << 50) - 1,
    ];
    let expansion = SeededUniform::new(&moduli, n, 4).expand([0x3c; 32]);
    let mut first = std::collections::HashSet::new();
    for (p, poly) in expansion.iter().enumerate() {
        for (i, (&q, limb)) in moduli.iter().zip(poly.chunks_exact(n)).enumerate() {
            for (j, &w) in limb[..8].iter().enumerate() {
                assert!(first.insert(w), "polynomial {p} limb {i} lane {j}");
            }
            let mut buckets = [0usize; 16];
            for &w in limb {
                buckets[(w as u128 * 16 / q as u128) as usize] += 1;
            }
            assert!(
                buckets.iter().all(|&b| b.abs_diff(n / 16) <= n / 64),
                "polynomial {p} limb {i}: {buckets:?}"
            );
        }
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
        n in prop::sample::select(DEGREES[..4].to_vec()),
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
