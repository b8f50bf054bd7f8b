//! The limb codec: every residue a wire format carries, packed to the width
//! of its modulus.
//!
//! A limb mod `q` travels as `w(q) = ⌈bitlen(q)/8⌉` bytes per word,
//! little-endian ([`limb_width`]): 5 bytes for a 40-bit prime, 7 for a
//! 50-bit one, 8 only above 56 bits. A 64-bit word of a 40-bit limb would
//! carry three zero bytes the modulus already implies. [`unpack_limb`]
//! checks every word against `q` in the same pass that widens it, so a
//! decoder never walks a limb twice.
//!
//! Where the CPU has `avx512vbmi`, the whole 8-word blocks of a limb take
//! the lane body in `ifma`: one byte permute packs eight words into `8·w`
//! bytes behind a masked store, and the reverse is a masked load, the
//! inverse permute and one unsigned compare against `q`. Everywhere else,
//! and for the words past the last whole block, the portable body runs. It
//! is const-generic over `w`, so every shift and mask is a constant: it
//! packs eight words into `w` `u64`s by shifts, and unpacks each word as one
//! unaligned 8-byte little-endian load at its `w`-byte offset masked to `w`
//! bytes (the last words, whose 8 bytes would reach past the limb, are read
//! `w` bytes each).

use crate::ifma;

/// The bytes a residue mod `q` takes on the wire: `⌈bitlen(q)/8⌉`, in
/// `1..=8` for any `q ≥ 2`.
pub fn limb_width(q: u64) -> usize {
    (u64::BITS - q.leading_zeros()).div_ceil(8).max(1) as usize
}

/// Appends `words`, each packed to its low `w` bytes little-endian, to
/// `out`: `w · words.len()` bytes. Every word must fit in `w` bytes, which
/// a residue mod `q` does at `w = limb_width(q)`; higher bytes are dropped.
///
/// # Panics
///
/// Panics if `w` is not in `1..=8`.
pub fn pack_limb(words: &[u64], w: usize, out: &mut Vec<u8>) {
    assert!((1..=8).contains(&w), "limb width {w} outside 1..=8");
    let rest = match ifma::pack_lanes() {
        Some(lanes) => {
            let whole = words.len() - words.len() % 8;
            lanes.pack(&words[..whole], w, out);
            &words[whole..]
        }
        None => words,
    };
    pack_portable(rest, w, out);
}

/// Appends the words packed in `bytes` at `w` bytes each to `out`, and
/// returns whether every one of them is below `q` — the range check a
/// decoder owes each residue, in the pass that widens it. On `false` the
/// appended words are unspecified. `q` is below `2^62`, as every modulus
/// a context supports is.
///
/// # Panics
///
/// Panics if `w` is not in `1..=8` or `bytes.len()` is not a multiple of
/// `w`.
pub fn unpack_limb(bytes: &[u8], w: usize, q: u64, out: &mut Vec<u64>) -> bool {
    assert!((1..=8).contains(&w), "limb width {w} outside 1..=8");
    assert!(
        bytes.len().is_multiple_of(w),
        "{} bytes are not whole {w}-byte words",
        bytes.len()
    );
    let (ok, rest) = match ifma::pack_lanes() {
        Some(lanes) => {
            let whole = bytes.len() - bytes.len() % (8 * w);
            (lanes.unpack(&bytes[..whole], w, q, out), &bytes[whole..])
        }
        None => (true, bytes),
    };
    unpack_portable(rest, w, q, out) && ok
}

/// [`pack_limb`] without the lanes.
fn pack_portable(words: &[u64], w: usize, out: &mut Vec<u8>) {
    match w {
        1 => pack_blocks::<1>(words, out),
        2 => pack_blocks::<2>(words, out),
        3 => pack_blocks::<3>(words, out),
        4 => pack_blocks::<4>(words, out),
        5 => pack_blocks::<5>(words, out),
        6 => pack_blocks::<6>(words, out),
        7 => pack_blocks::<7>(words, out),
        _ => pack_blocks::<8>(words, out),
    }
}

/// [`unpack_limb`] without the lanes.
fn unpack_portable(bytes: &[u8], w: usize, q: u64, out: &mut Vec<u64>) -> bool {
    match w {
        1 => unpack_words::<1>(bytes, q, out),
        2 => unpack_words::<2>(bytes, q, out),
        3 => unpack_words::<3>(bytes, q, out),
        4 => unpack_words::<4>(bytes, q, out),
        5 => unpack_words::<5>(bytes, q, out),
        6 => unpack_words::<6>(bytes, q, out),
        7 => unpack_words::<7>(bytes, q, out),
        _ => unpack_words::<8>(bytes, q, out),
    }
}

/// How many of `len` packed `W`-byte words have all 8 bytes from their
/// start inside the `W·len` bytes: every word but the last `⌈8/W⌉ − 1`.
fn whole_loads<const W: usize>(len: usize) -> usize {
    (W * len + W).saturating_sub(8) / W
}

/// Word `i` of a block starts at bit `8·W·i` of the block's `W` `u64`s:
/// in word `(W·i)/8`, shifted by `(8·W·i) mod 64`, its high bits spilling
/// into the next word when it crosses one. The whole blocks are written in
/// place behind one `resize`, the ragged tail a word at a time.
fn pack_blocks<const W: usize>(words: &[u64], out: &mut Vec<u8>) {
    let (blocks, tail) = words.as_chunks::<8>();
    let at = out.len();
    out.resize(at + 8 * W * blocks.len(), 0);
    for (dst, block) in out[at..].chunks_exact_mut(8 * W).zip(blocks) {
        let mut acc = [0u64; W];
        for (i, &x) in block.iter().enumerate() {
            let (k, s) = (8 * W * i / 64, 8 * W * i % 64);
            acc[k] |= x << s;
            if s + 8 * W > 64 {
                acc[k + 1] |= x >> (64 - s);
            }
        }
        for (d, a) in dst.chunks_exact_mut(8).zip(acc) {
            d.copy_from_slice(&a.to_le_bytes());
        }
    }
    for &x in tail {
        out.extend_from_slice(&x.to_le_bytes()[..W]);
    }
}

/// The reverse of [`pack_blocks`], with the range check folded in: each
/// word is one unaligned 8-byte little-endian load masked to `W` bytes (the
/// last words read `W` bytes each), and `x < q` exactly when `x − q` wraps
/// negative while `x` itself has a clear top bit (every supported `q` is
/// below `2^62`), so the AND of `(x − q) & !x` over the limb keeps its sign
/// bit iff no word is out of range.
fn unpack_words<const W: usize>(bytes: &[u8], q: u64, out: &mut Vec<u64>) -> bool {
    debug_assert!(q < 1 << 62);
    let field = u64::MAX >> (64 - 8 * W);
    let len = bytes.len() / W;
    let whole = whole_loads::<W>(len);
    let at = out.len();
    out.resize(at + len, 0);
    let (head, tail) = out[at..].split_at_mut(whole);
    let mut ok = u64::MAX;
    for (i, x) in head.iter_mut().enumerate() {
        let word = u64::from_le_bytes(bytes[W * i..W * i + 8].try_into().expect("8 bytes"));
        *x = word & field;
        ok &= x.wrapping_sub(q) & !*x;
    }
    for (b, x) in bytes[W * whole..].chunks_exact(W).zip(tail) {
        let mut word = [0u8; 8];
        word[..W].copy_from_slice(b);
        *x = u64::from_le_bytes(word);
        ok &= x.wrapping_sub(q) & !*x;
    }
    ok >> 63 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The wire form byte by byte: byte `b` of word `x` is `x >> 8b`.
    fn reference_pack(words: &[u64], w: usize) -> Vec<u8> {
        words
            .iter()
            .flat_map(|&x| (0..w).map(move |b| (x >> (8 * b)) as u8))
            .collect()
    }

    fn reference_unpack(bytes: &[u8], w: usize) -> Vec<u64> {
        bytes
            .chunks_exact(w)
            .map(|b| b.iter().rev().fold(0u64, |x, &byte| x << 8 | byte as u64))
            .collect()
    }

    /// `len` pseudo-random words below `bound`.
    fn words(seed: u64, len: usize, bound: u64) -> Vec<u64> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s % bound
            })
            .collect()
    }

    fn field(w: usize) -> u64 {
        u64::MAX >> (64 - 8 * w)
    }

    #[test]
    fn the_width_is_the_modulus_bytes() {
        for (q, w) in [
            (2, 1),
            (255, 1),
            (256, 2),
            ((1 << 36) - 5, 5),
            ((1 << 40) - 87, 5),
            ((1 << 40) + 1, 6),
            ((1 << 50) - 27, 7),
            ((1 << 56) - 5, 7),
            ((1 << 56) + 1, 8),
            ((1 << 61) - 1, 8),
        ] {
            assert_eq!(limb_width(q), w, "q = {q:#x}");
        }
    }

    #[test]
    fn a_word_at_or_above_q_fails_wherever_it_sits() {
        for w in 1..=8 {
            let q = field(w).min((1 << 61) - 1) - 2;
            for len in [1usize, 7, 8, 9, 16, 37] {
                let good = words(len as u64 + w as u64, len, q);
                let mut bytes = Vec::new();
                pack_limb(&good, w, &mut bytes);
                let mut out = Vec::new();
                assert!(unpack_limb(&bytes, w, q, &mut out));
                assert_eq!(out, good);
                for at in [0, len / 2, len - 1] {
                    for bad in [q, q + 1, field(w)] {
                        let mut words = good.clone();
                        words[at] = bad;
                        let mut bytes = Vec::new();
                        pack_limb(&words, w, &mut bytes);
                        let mut out = vec![7];
                        assert!(
                            !unpack_limb(&bytes, w, q, &mut out),
                            "w {w} len {len} word {at}: {bad:#x} accepted"
                        );
                        assert_eq!(out.len(), 1 + len, "appends every word");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn the_portable_body_matches_the_per_byte_reference(
            w in 1usize..=8,
            len in 0usize..70,
            seed in any::<u64>(),
        ) {
            let words = words(seed, len, field(w).min(u64::MAX - 1));
            let mut packed = vec![0xa5];
            pack_portable(&words, w, &mut packed);
            prop_assert_eq!(&packed[1..], &reference_pack(&words, w)[..]);
            let mut back = vec![3];
            prop_assert!(unpack_portable(&packed[1..], w, 1 << 61, &mut back) || w == 8);
            prop_assert_eq!(&back[1..], &reference_unpack(&packed[1..], w)[..]);
            prop_assert_eq!(&back[1..], &words[..]);
        }

        #[test]
        fn the_entry_points_match_the_portable_body(
            w in 1usize..=8,
            len in 0usize..140,
            seed in any::<u64>(),
            q_bits in 0u32..62,
            below in any::<bool>(),
        ) {
            // Where the CPU has VBMI this is the lane body against the
            // portable one; elsewhere both sides are portable.
            let q = (1u64 << q_bits.min(8 * w as u32 - 1)) + 1;
            let bound = if below { q } else { field(w).min(u64::MAX - 1) };
            let words = words(seed, len, bound);
            let (mut lanes, mut portable) = (vec![1, 2], vec![1, 2]);
            pack_limb(&words, w, &mut lanes);
            pack_portable(&words, w, &mut portable);
            prop_assert_eq!(&lanes, &portable);
            let (mut lanes, mut portable) = (vec![9], vec![9]);
            let ok = unpack_limb(&portable_bytes(&words, w), w, q, &mut lanes);
            let want = unpack_portable(&portable_bytes(&words, w), w, q, &mut portable);
            prop_assert_eq!(ok, want);
            prop_assert_eq!(ok, words.iter().all(|&x| x < q));
            prop_assert_eq!(&lanes, &portable);
        }
    }

    fn portable_bytes(words: &[u64], w: usize) -> Vec<u8> {
        let mut out = Vec::new();
        pack_portable(words, w, &mut out);
        out
    }
}
