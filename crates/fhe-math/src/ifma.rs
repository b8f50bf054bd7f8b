//! The unrolled backend's transforms on AVX-512 IFMA: eight 52-bit lanes
//! per instruction.
//!
//! `vpmadd52luq` / `vpmadd52huq` multiply the low 52 bits of each 64-bit
//! lane and add the low / high 52 bits of the 104-bit product to an
//! accumulator, so a lazy Shoup product of eight words takes three of them
//! where the portable transform takes three scalar multiplies per word.
//! The butterflies keep the portable invariants — forward words in
//! `[0, 4q)` (Harvey), inverse words in `[0, 2q)` (Gentleman–Sande) — and
//! every such word fits 52 bits exactly when `q < 2^50`. Both paths emit
//! canonical residues, so their outputs are bit-identical.
//!
//! The path reads the tables every [`NttTable`] already holds. For a
//! twiddle `w < q`, `⌊⌊w·2^64/q⌋ / 2^12⌋ = ⌊w·2^52/q⌋`, so the 52-bit Shoup
//! companion is [`ShoupPair::shoup`]` >> 12`. The long stages broadcast
//! one pair per group; the three short stages (`t` = 4, 2, 1) run on two
//! 8-word blocks in two registers and load their twiddle pairs as words
//! (`ShoupPair` is `#[repr(C)]`), split by lane permutes.
//!
//! This is the crate's only `unsafe` code. A [`Lanes`] is made only after
//! the CPU was found to have `avx512f` and `avx512ifma`, which is what the
//! `unsafe fn`s below require; the rest is memory access through
//! fixed-size arrays.
//!
//! [`ShoupPair::shoup`]: crate::backend::ShoupPair::shoup

use crate::ntt::NttTable;
use std::sync::OnceLock;

/// Moduli below this bound take the lanes: `4q < 2^52`.
const MODULUS_BOUND: u64 = 1 << 50;

/// The shortest transform the lanes take: the short stages work on two
/// 8-word blocks at a time.
pub(crate) const MIN_SIZE: usize = 16;

/// Whether this CPU has `avx512f` and `avx512ifma` (detected once).
pub(crate) fn detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512ifma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Proof that this CPU has the lanes; only [`lanes`] makes one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes(());

/// The lanes for a transform of `n` words mod `q`, or `None` where the
/// portable transform runs: a CPU without IFMA, `q ≥ 2^50` or `n < 16`.
pub(crate) fn lanes(q: u64, n: usize) -> Option<Lanes> {
    (q < MODULUS_BOUND && n >= MIN_SIZE && detected()).then_some(Lanes(()))
}

impl Lanes {
    /// The forward transform of `data` (canonical input): every word
    /// reduced to `[0, q)` when `canonical`, else left in `[0, 4q)`.
    pub(crate) fn forward(self, table: &NttTable, data: &mut [u64], canonical: bool) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of both functions.
        unsafe {
            if canonical {
                x86::forward::<true>(table, data);
            } else {
                x86::forward::<false>(table, data);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (table, data, canonical);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }

    /// The inverse transform of `data` (canonical input), `N⁻¹` included:
    /// every word reduced to `[0, q)` when `canonical`, else left in
    /// `[0, 2q)`.
    pub(crate) fn inverse(self, table: &NttTable, data: &mut [u64], canonical: bool) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of both functions.
        unsafe {
            if canonical {
                x86::inverse::<true>(table, data);
            } else {
                x86::inverse::<false>(table, data);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (table, data, canonical);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::backend::ShoupPair;
    use crate::ntt::NttTable;
    use std::arch::x86_64::*;

    /// One register: eight words.
    type Words = [u64; 8];

    /// Lane indices for `_mm512_permutex2var_epi64`: `0..8` pick from the
    /// first operand, `8..16` from the second.
    type Order = [i64; 8];

    /// Two blocks `A`, `B` as the `t = 4` butterflies pair them:
    /// `[A0..A3 B0..B3]` against `[A4..A7 B4..B7]`.
    const SPAN4: (Order, Order) = ([0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7, 12, 13, 14, 15]);
    /// From the `t = 4` order to the `t = 2` order,
    /// `[A0 A1 A4 A5 B0 B1 B4 B5]` against `[A2 A3 A6 A7 B2 B3 B6 B7]`, and
    /// back.
    const SPAN4_TO_2: (Order, Order) = ([0, 1, 8, 9, 4, 5, 12, 13], [2, 3, 10, 11, 6, 7, 14, 15]);
    /// From the `t = 2` order to the `t = 1` order,
    /// `[A0 A2 A4 A6 B0 B2 B4 B6]` against `[A1 A3 A5 A7 B1 B3 B5 B7]`, and
    /// back.
    const SPAN2_TO_1: (Order, Order) = ([0, 8, 2, 10, 4, 12, 6, 14], [1, 9, 3, 11, 5, 13, 7, 15]);
    /// Even words against odd words: two blocks into the `t = 1` order,
    /// and a pair table into values and companions.
    const EVEN_ODD: (Order, Order) = ([0, 2, 4, 6, 8, 10, 12, 14], [1, 3, 5, 7, 9, 11, 13, 15]);
    /// The `t = 1` order back to two blocks.
    const INTERLEAVE: (Order, Order) = ([0, 8, 1, 9, 2, 10, 3, 11], [4, 12, 5, 13, 6, 14, 7, 15]);

    /// The low 52 bits of a lane.
    const LOW52: i64 = (1 << 52) - 1;

    /// A twiddle per lane: its value and its 52-bit Shoup companion.
    #[derive(Clone, Copy)]
    struct Twiddle {
        value: __m512i,
        shoup: __m512i,
    }

    /// The modulus in every lane, and twice it.
    #[derive(Clone, Copy)]
    struct Q {
        q: __m512i,
        q2: __m512i,
    }

    /// The inverse's last stage: `N⁻¹`, and its one twiddle times `N⁻¹`.
    #[derive(Clone, Copy)]
    struct Scale {
        n_inv: Twiddle,
        w_n_inv: Twiddle,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn modulus(table: &NttTable) -> Q {
        let q = table.modulus().value();
        Q {
            q: _mm512_set1_epi64(q as i64),
            q2: _mm512_set1_epi64(2 * q as i64),
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn order(o: Order) -> __m512i {
        _mm512_setr_epi64(o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7])
    }

    /// Two registers rearranged by an `(Order, Order)` pair.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn permute(u: __m512i, v: __m512i, (lo, hi): (Order, Order)) -> (__m512i, __m512i) {
        (
            _mm512_permutex2var_epi64(u, order(lo), v),
            _mm512_permutex2var_epi64(u, order(hi), v),
        )
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(words: &Words) -> __m512i {
        // SAFETY: `words` is eight readable words; the load is unaligned.
        unsafe { _mm512_loadu_epi64(words.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store(words: &mut Words, x: __m512i) {
        // SAFETY: `words` is eight writable words; the store is unaligned.
        unsafe { _mm512_storeu_epi64(words.as_mut_ptr().cast(), x) }
    }

    /// The words of a pair table: `ShoupPair` is `#[repr(C)]`, two words
    /// with no padding (asserted beside it), so `P` pairs are `2P` words,
    /// value then companion.
    #[inline]
    fn pair_words<const P: usize>(pairs: &[ShoupPair; P]) -> *const i64 {
        pairs.as_ptr().cast()
    }

    /// The 52-bit companions of a register of 64-bit ones.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn companion52(shoup: __m512i) -> __m512i {
        _mm512_srli_epi64::<12>(shoup)
    }

    /// One twiddle in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(w: ShoupPair) -> Twiddle {
        Twiddle {
            value: _mm512_set1_epi64(w.value as i64),
            shoup: _mm512_set1_epi64((w.shoup >> 12) as i64),
        }
    }

    /// The `t = 4` twiddles of two blocks, each in four lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn spread2(pairs: &[ShoupPair; 2]) -> Twiddle {
        // SAFETY: the mask reads the first four words, the two pairs; the
        // other lanes are not read.
        let x = unsafe { _mm512_maskz_loadu_epi64(0x0f, pair_words(pairs)) };
        Twiddle {
            value: _mm512_permutexvar_epi64(order([0, 0, 0, 0, 2, 2, 2, 2]), x),
            shoup: companion52(_mm512_permutexvar_epi64(order([1, 1, 1, 1, 3, 3, 3, 3]), x)),
        }
    }

    /// The `t = 2` twiddles of two blocks, each in two adjacent lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn spread4(pairs: &[ShoupPair; 4]) -> Twiddle {
        // SAFETY: four pairs are eight readable words.
        let x = unsafe { _mm512_loadu_epi64(pair_words(pairs)) };
        Twiddle {
            value: _mm512_permutexvar_epi64(order([0, 0, 2, 2, 4, 4, 6, 6]), x),
            shoup: companion52(_mm512_permutexvar_epi64(order([1, 1, 3, 3, 5, 5, 7, 7]), x)),
        }
    }

    /// The `t = 1` twiddles of two blocks, one per lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn spread8(pairs: &[ShoupPair; 8]) -> Twiddle {
        // SAFETY: eight pairs are sixteen readable words.
        let (lo, hi) = unsafe {
            let words = pair_words(pairs);
            (_mm512_loadu_epi64(words), _mm512_loadu_epi64(words.add(8)))
        };
        let (value, shoup) = permute(lo, hi, EVEN_ODD);
        Twiddle {
            value,
            shoup: companion52(shoup),
        }
    }

    /// `x − m` where `x ≥ m`, else `x`: the wrapped difference is the
    /// larger one exactly when `x < m`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn csub(x: __m512i, m: __m512i) -> __m512i {
        _mm512_min_epu64(x, _mm512_sub_epi64(x, m))
    }

    /// The lazy Shoup product `a·w mod q` in `[0, 2q)`, for `a < 2^52`:
    /// `q̂ = ⌊a·w′/2^52⌋`, and `a·w − q̂·q < 2q < 2^52` comes out exact from
    /// the low halves modulo `2^52`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn mul_lazy(a: __m512i, w: Twiddle, q: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        let q_hat = _mm512_madd52hi_epu64(zero, a, w.shoup);
        let r = _mm512_sub_epi64(
            _mm512_madd52lo_epu64(zero, a, w.value),
            _mm512_madd52lo_epu64(zero, q_hat, q),
        );
        _mm512_and_si512(r, _mm512_set1_epi64(LOW52))
    }

    /// Harvey's forward butterfly, words in `[0, 4q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn ct(u: __m512i, v: __m512i, w: Twiddle, q: Q) -> (__m512i, __m512i) {
        let x = csub(u, q.q2);
        let t = mul_lazy(v, w, q.q);
        (
            _mm512_add_epi64(x, t),
            _mm512_sub_epi64(_mm512_add_epi64(x, q.q2), t),
        )
    }

    /// The inverse (Gentleman–Sande) butterfly, words in `[0, 2q)`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn gs(u: __m512i, v: __m512i, w: Twiddle, q: Q) -> (__m512i, __m512i) {
        let diff = _mm512_sub_epi64(_mm512_add_epi64(u, q.q2), v);
        (csub(_mm512_add_epi64(u, v), q.q2), mul_lazy(diff, w, q.q))
    }

    /// The inverse's last stage, `N⁻¹` folded in: `u' = (u+v)·N⁻¹`,
    /// `v' = (u−v)·(w·N⁻¹)`, reduced to `[0, q)` when `CANONICAL`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn scaled<const CANONICAL: bool>(u: __m512i, v: __m512i, s: Scale, q: Q) -> (__m512i, __m512i) {
        let x = mul_lazy(_mm512_add_epi64(u, v), s.n_inv, q.q);
        let y = mul_lazy(
            _mm512_sub_epi64(_mm512_add_epi64(u, q.q2), v),
            s.w_n_inv,
            q.q,
        );
        if CANONICAL {
            (csub(x, q.q), csub(y, q.q))
        } else {
            (x, y)
        }
    }

    /// `words` as registers.
    fn blocks(words: &mut [u64]) -> std::slice::IterMut<'_, Words> {
        words.as_chunks_mut().0.iter_mut()
    }

    /// Two blocks and the twiddles their three short stages use: two for
    /// `t` = 4, four for `t` = 2, eight for `t` = 1.
    type ShortStages<'a> = (
        &'a mut [Words; 2],
        &'a [ShoupPair; 2],
        &'a [ShoupPair; 4],
        &'a [ShoupPair; 8],
    );

    /// The limb two blocks at a time, with their short-stage twiddles.
    fn short_stage_pairs<'a>(
        data: &'a mut [u64],
        roots: &'a [ShoupPair],
    ) -> impl Iterator<Item = ShortStages<'a>> {
        let n = data.len();
        let (w4, w2, w1) = (&roots[n / 8..n / 4], &roots[n / 4..n / 2], &roots[n / 2..n]);
        (data.as_chunks_mut().0.as_chunks_mut().0.iter_mut())
            .zip(w4.as_chunks().0)
            .zip(w2.as_chunks().0)
            .zip(w1.as_chunks().0)
            .map(|(((pair, w4), w2), w1)| (pair, w4, w2, w1))
    }

    /// The forward transform, canonical input; see [`super::Lanes::forward`].
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn forward<const CANONICAL: bool>(table: &NttTable, data: &mut [u64]) {
        let n = data.len();
        let roots = table.forward_roots();
        let q = modulus(table);
        let (mut m, mut t) = (1, n / 2);
        // The long stages (`t` ≥ 8) pair up as in the portable transform;
        // an odd one out goes first, alone.
        if (n / 8).trailing_zeros() % 2 == 1 {
            let w = splat(roots[1]);
            let (us, vs) = data.split_at_mut(t);
            for (u, v) in blocks(us).zip(blocks(vs)) {
                let (x, y) = ct(load(u), load(v), w, q);
                store(u, x);
                store(v, y);
            }
            (m, t) = (2, n / 4);
        }
        while t > 8 {
            forward_pair(data, roots, m, t, q);
            (m, t) = (4 * m, t / 4);
        }
        forward_tail::<CANONICAL>(data, roots, q);
    }

    /// Forward stages `(m, t)` and `(2m, t/2)` in one sweep, four registers
    /// a quarter-group apart through both.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn forward_pair(data: &mut [u64], roots: &[ShoupPair], m: usize, t: usize, q: Q) {
        for (i, group) in data.chunks_exact_mut(2 * t).enumerate() {
            let w = splat(roots[m + i]);
            let (w_lo, w_hi) = (splat(roots[2 * m + 2 * i]), splat(roots[2 * m + 2 * i + 1]));
            let (lo, hi) = group.split_at_mut(t);
            let (a, b) = lo.split_at_mut(t / 2);
            let (c, d) = hi.split_at_mut(t / 2);
            for (((a, b), c), d) in blocks(a).zip(blocks(b)).zip(blocks(c)).zip(blocks(d)) {
                let (a1, c1) = ct(load(a), load(c), w, q);
                let (b1, d1) = ct(load(b), load(d), w, q);
                let (a2, b2) = ct(a1, b1, w_lo, q);
                let (c2, d2) = ct(c1, d1, w_hi, q);
                store(a, a2);
                store(b, b2);
                store(c, c2);
                store(d, d2);
            }
        }
    }

    /// The last three forward stages on two blocks at a time, in registers,
    /// reduced to `[0, q)` on the stores when `CANONICAL`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn forward_tail<const CANONICAL: bool>(data: &mut [u64], roots: &[ShoupPair], q: Q) {
        for ([x, y], w4, w2, w1) in short_stage_pairs(data, roots) {
            let (u, v) = permute(load(x), load(y), SPAN4);
            let (u, v) = ct(u, v, spread2(w4), q);
            let (u, v) = permute(u, v, SPAN4_TO_2);
            let (u, v) = ct(u, v, spread4(w2), q);
            let (u, v) = permute(u, v, SPAN2_TO_1);
            let (u, v) = ct(u, v, spread8(w1), q);
            let (u, v) = if CANONICAL {
                (csub(csub(u, q.q2), q.q), csub(csub(v, q.q2), q.q))
            } else {
                (u, v)
            };
            let (u, v) = permute(u, v, INTERLEAVE);
            store(x, u);
            store(y, v);
        }
    }

    /// The inverse transform, canonical input; see [`super::Lanes::inverse`].
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn inverse<const CANONICAL: bool>(table: &NttTable, data: &mut [u64]) {
        let n = data.len();
        let roots = table.inverse_roots();
        let q = modulus(table);
        let scale = Scale {
            n_inv: splat(table.n_inv()),
            w_n_inv: splat(table.n_inv_last_root()),
        };
        inverse_head(data, roots, q);
        // Whichever sweep holds the last stage scales: the last pair, or a
        // lone radix-2 sweep when the long stages are odd in number.
        let mut t = 8;
        while 4 * t < n {
            inverse_pair::<false, CANONICAL>(data, roots, t, q, scale);
            t *= 4;
        }
        if 2 * t < n {
            inverse_pair::<true, CANONICAL>(data, roots, t, q, scale);
        } else {
            let (us, vs) = data.split_at_mut(t);
            for (u, v) in blocks(us).zip(blocks(vs)) {
                let (x, y) = scaled::<CANONICAL>(load(u), load(v), scale, q);
                store(u, x);
                store(v, y);
            }
        }
    }

    /// The first three inverse stages on two blocks at a time, in
    /// registers.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn inverse_head(data: &mut [u64], roots: &[ShoupPair], q: Q) {
        for ([x, y], w4, w2, w1) in short_stage_pairs(data, roots) {
            let (u, v) = permute(load(x), load(y), EVEN_ODD);
            let (u, v) = gs(u, v, spread8(w1), q);
            let (u, v) = permute(u, v, SPAN2_TO_1);
            let (u, v) = gs(u, v, spread4(w2), q);
            let (u, v) = permute(u, v, SPAN4_TO_2);
            let (u, v) = gs(u, v, spread2(w4), q);
            let (u, v) = permute(u, v, SPAN4);
            store(x, u);
            store(y, v);
        }
    }

    /// Inverse stages of spans `t` and `2t` in one sweep, the mirror of
    /// [`forward_pair`]; the second is the scaled last stage when
    /// `SCALED`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn inverse_pair<const SCALED: bool, const CANONICAL: bool>(
        data: &mut [u64],
        roots: &[ShoupPair],
        t: usize,
        q: Q,
        scale: Scale,
    ) {
        let h = data.len() / (2 * t);
        for (i, group) in data.chunks_exact_mut(4 * t).enumerate() {
            let (w_lo, w_hi) = (splat(roots[h + 2 * i]), splat(roots[h + 2 * i + 1]));
            let w = splat(roots[h / 2 + i]);
            let (lo, hi) = group.split_at_mut(2 * t);
            let (a, b) = lo.split_at_mut(t);
            let (c, d) = hi.split_at_mut(t);
            for (((a, b), c), d) in blocks(a).zip(blocks(b)).zip(blocks(c)).zip(blocks(d)) {
                let (a1, b1) = gs(load(a), load(b), w_lo, q);
                let (c1, d1) = gs(load(c), load(d), w_hi, q);
                let ((a2, c2), (b2, d2)) = if SCALED {
                    (
                        scaled::<CANONICAL>(a1, c1, scale, q),
                        scaled::<CANONICAL>(b1, d1, scale, q),
                    )
                } else {
                    (gs(a1, c1, w, q), gs(b1, d1, w, q))
                };
                store(a, a2);
                store(b, b2);
                store(c, c2);
                store(d, d2);
            }
        }
    }
}
