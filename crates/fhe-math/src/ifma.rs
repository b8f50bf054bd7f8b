//! The production (`UnrolledBackend`) kernels on AVX-512 IFMA: eight 52-bit
//! lanes per instruction, for the transforms, for the multiply-accumulate
//! kernel that carries `NewLimb`, the key-switch inner product and the
//! pointwise products, for the streaming kernel that carries every
//! single-word pass — add, sub, neg, the scalar ops, the Shoup scalings
//! and the centred lift — and for the seeded uniform expansion that
//! regenerates a compressed switching key's `a_j`.
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
//! The multiply-accumulate sums `Σ aᵢ·bᵢ` of operands below `2^50` in two
//! accumulators per output — `madd52lo` adds each product's low 52 bits,
//! `madd52hi` its high bits — and reduces once: `lo >> 52` folds into `hi`,
//! then two lazy Shoup products `hi·(2^52 mod p)` and `(lo mod 2^52)·1` and
//! two conditional subtractions give the canonical residue.
//! [`lane_products`] bounds the sum (sixteen products); longer ones reduce in
//! runs. Lanes run across eight slots; a ragged tail of fewer than eight
//! slots takes the portable body. Its constants are computed per call and
//! live on the stack.
//!
//! The streaming kernel maps a limb eight slots at a time: an add or a
//! subtract, or one lazy Shoup product (the transforms' `mul_lazy`, with
//! the companion `shoup >> 12`), then one `min_epu64` conditional
//! subtraction. Every operand is below `2q < 2^51` where it meets that
//! subtraction, and below `2^52` where it enters `mul_lazy` — `y + q − x`
//! for `sub_scale_shoup`, the lift's shifted word `x < from < 2^50`.
//!
//! The seeded expansion runs eight xoshiro256++ generators, one per lane,
//! each started, and restarted where its limbs skip part of the stream, by
//! a GF(2) jump to its own stretch of the one stream
//! (`sampling::SeededUniform` says which). Eight steps draw eight words per
//! lane; the `Uniform` draw `⌊r·q/2^64⌋` for `q < 2^50` is two `madd52hi`
//! and one `madd52lo`; an 8×8 transpose — the short stages' three
//! permutes — turns them into one 8-word block per lane, stored into that
//! lane's limb of its digit's own buffer, so nothing is zero-filled first.
//!
//! The limb codec (`codec`) packs eight words of a limb into `8·w` bytes
//! with one `vpermb` and a masked store, and unpacks them with a masked
//! load, the inverse `vpermb` (zeroing the bytes above `w`) and one
//! `cmplt_epu64` against the modulus. It needs `avx512bw` and `avx512vbmi`,
//! not IFMA, so it has its own proof, [`PackLanes`].
//!
//! This is the crate's only `unsafe` code. A [`Lanes`] is made only after
//! the CPU was found to have `avx512f` and `avx512ifma`, and a
//! [`PackLanes`] only after it was found to have `avx512f`, `avx512bw` and
//! `avx512vbmi`, which is what the `unsafe fn`s below require; the rest is
//! memory access through fixed-size arrays, the seeded expansion's stores
//! into buffers it reserved itself, and the codec's masked loads and
//! stores inside slices and reserved capacity, each buffer written whole
//! before its length is set.
//!
//! [`ShoupPair::shoup`]: crate::backend::ShoupPair::shoup
//! [`lane_products`]: crate::modular::lane_products

use crate::backend::{BasisExtView, DigitTerm, SlotOp, Start};
use crate::modular::Modulus;
use crate::ntt::NttTable;
use crate::sampling::LimbDraw;
use crate::xoshiro::State;
use std::sync::OnceLock;

/// Moduli below this bound take the lanes: `4q < 2^52`.
const MODULUS_BOUND: u64 = 1 << 50;

/// The shortest transform the lanes take: the short stages work on two
/// 8-word blocks at a time.
pub(crate) const MIN_SIZE: usize = 16;

/// The longest source basis a basis extension takes on lanes: its
/// `e·Q mod p_j` table has `ℓ + 1 ≤ 16` entries, two registers that one
/// `permutex2var` indexes by the excess.
const MAX_EXTENSION_SOURCE: usize = 15;

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

/// Whether this CPU has `avx512f`, `avx512bw` and `avx512vbmi` (detected
/// once): what the limb codec's byte permutes need.
fn vbmi_detected() -> bool {
    static DETECTED: OnceLock<bool> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vbmi")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Proof that this CPU has the byte permutes; only [`pack_lanes`] makes
/// one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PackLanes(());

/// The limb codec's lanes, or `None` where its portable body runs: a CPU
/// without `avx512vbmi`.
pub(crate) fn pack_lanes() -> Option<PackLanes> {
    vbmi_detected().then_some(PackLanes(()))
}

impl PackLanes {
    /// Appends the whole 8-word blocks of `words`, each word packed to its
    /// low `w` bytes little-endian, to `out`; see `codec::pack_limb`.
    /// `words.len()` is a multiple of 8 and `w` is in `1..=8`.
    pub(crate) fn pack(self, words: &[u64], w: usize, out: &mut Vec<u8>) {
        assert!(words.len().is_multiple_of(8) && (1..=8).contains(&w));
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `vbmi_detected()` found avx512f,
        // avx512bw and avx512vbmi, the target features of the function;
        // the assertion above is the rest of its contract.
        unsafe {
            x86::pack(words, w, out);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (words, w, out);
            unreachable!("a `PackLanes` is only made on x86-64");
        }
    }

    /// Appends the words of the whole `8·w`-byte blocks of `bytes` to
    /// `out`, and returns whether every one is below `q`; see
    /// `codec::unpack_limb`. `bytes.len()` is a multiple of `8·w` and `w`
    /// is in `1..=8`.
    pub(crate) fn unpack(self, bytes: &[u8], w: usize, q: u64, out: &mut Vec<u64>) -> bool {
        assert!((1..=8).contains(&w) && bytes.len().is_multiple_of(8 * w));
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as `pack`.
        unsafe {
            x86::unpack(bytes, w, q, out)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (bytes, w, q, out);
            unreachable!("a `PackLanes` is only made on x86-64");
        }
    }
}

/// Proof that this CPU has the lanes; only [`lanes`], [`sum_lanes`],
/// [`extension_lanes`] and [`uniform_lanes`] make one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lanes(());

/// The lanes for a transform of `n` words mod `q`, or `None` where the
/// portable transform runs: a CPU without IFMA, `q ≥ 2^50` or `n < 16`.
pub(crate) fn lanes(q: u64, n: usize) -> Option<Lanes> {
    (q < MODULUS_BOUND && n >= MIN_SIZE && detected()).then_some(Lanes(()))
}

/// The lanes for a multiply-accumulate or a streaming kernel whose operands
/// are residues mod `moduli`, or `None` where the portable body runs: a CPU
/// without IFMA or any modulus at or above `2^50`.
pub(crate) fn sum_lanes<'a>(moduli: impl IntoIterator<Item = &'a Modulus>) -> Option<Lanes> {
    (detected() && moduli.into_iter().all(|m| m.value() < MODULUS_BOUND)).then_some(Lanes(()))
}

/// The lanes for a basis extension, or `None` where the portable body runs:
/// as [`sum_lanes`] over the source and target moduli, and a source basis of
/// at most [`MAX_EXTENSION_SOURCE`] limbs.
pub(crate) fn extension_lanes(ext: &BasisExtView<'_>) -> Option<Lanes> {
    if ext.source_moduli.len() > MAX_EXTENSION_SOURCE {
        return None;
    }
    sum_lanes(ext.source_moduli.iter().chain(ext.target_moduli))
}

/// The lanes for seeded uniform expansion into `n`-word limbs mod
/// `moduli`, or `None` where the portable body runs: a CPU without IFMA, a
/// modulus at or above `2^50`, or `n` not a multiple of 8.
pub(crate) fn uniform_lanes(moduli: &[u64], n: usize) -> Option<Lanes> {
    (detected() && n.is_multiple_of(8) && moduli.iter().all(|&q| q < MODULUS_BOUND))
        .then_some(Lanes(()))
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

    /// The multiply-accumulate over the whole 8-slot blocks of `u`: see
    /// `backend::sum_products`, whose portable body takes the slots past
    /// the last whole block. Every operand is a canonical residue mod `m`.
    pub(crate) fn sum_products<const PAIR: bool>(
        self,
        m: &Modulus,
        start: Start<'_>,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of the function.
        unsafe {
            x86::sum_products::<PAIR>(m, start, terms, u, v);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (m, start, terms, u, v);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }

    /// The streaming kernel over the whole 8-slot blocks of `out`: see
    /// `backend::map_limb`, whose portable body takes the slots past the
    /// last whole block. Every operand is a canonical residue mod `m` (the
    /// lift's shifted limb one mod its `from`), and every modulus is below
    /// `2^50`.
    pub(crate) fn map_limb(
        self,
        m: &Modulus,
        op: SlotOp<'_>,
        out: &mut [u64],
        x: Option<&[u64]>,
        y: &[u64],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of the function.
        unsafe {
            x86::map_limb(m, op, out, x, y);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (m, op, out, x, y);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }

    /// `NewLimb` over the whole 8-slot blocks of the `n` slots, written to
    /// `cols[j][k]`: see `backend::UnrolledBackend::basis_ext_block`, whose
    /// portable body takes the slots past the last whole block.
    pub(crate) fn new_limb(
        self,
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        cols: &mut [&mut [u64]],
    ) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of the function.
        unsafe {
            x86::new_limb(ext, src, n, cols);
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (ext, src, n, cols);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }

    /// The limbs `draws` names, drawn by eight generators into `polys`
    /// buffers of equal length (draw `g` is limb `g mod m/polys` of buffer
    /// `g·polys/m`): lane `j` draws `[j·c, (j+1)·c)` of the `m`,
    /// `c = ⌈m/8⌉`, starting each run of stream-adjacent limbs from
    /// `restart(t)`, the state at limb `t`'s first word; see
    /// `sampling::SeededUniform`. Every modulus is below `2^50` and `n` is a
    /// multiple of 8.
    pub(crate) fn uniform(
        self,
        draws: &[LimbDraw],
        polys: usize,
        n: usize,
        restart: &dyn Fn(usize) -> State,
    ) -> Vec<Vec<u64>> {
        assert!(n.is_multiple_of(8) && draws.len() == polys * (draws.len() / polys.max(1)));
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `self` exists only where `detected()` found avx512f and
        // avx512ifma, the target features of the function; the assertion
        // above is the rest of its contract.
        unsafe {
            x86::uniform(draws, polys, n, &|t| restart(t).0)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (draws, polys, n, restart);
            unreachable!("a `Lanes` is only made on x86-64");
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::MAX_EXTENSION_SOURCE;
    use crate::backend::{BasisExtView, DigitTerm, ShoupPair, SlotOp, Start};
    use crate::modular::{lane_products, Modulus};
    use crate::ntt::NttTable;
    use crate::sampling::LimbDraw;
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

    /// The eight words of `words` from `at` on.
    #[inline(always)]
    fn words_at(words: &[u64], at: usize) -> &Words {
        words[at..at + 8].try_into().expect("eight words")
    }

    /// The eight writable words of `words` from `at` on.
    #[inline(always)]
    fn words_at_mut(words: &mut [u64], at: usize) -> &mut Words {
        (&mut words[at..at + 8]).try_into().expect("eight words")
    }

    /// How many products a [`Sum`] takes onto a carried residue before it
    /// is reduced: every operand is below `2^50`.
    const RUN: usize = lane_products(50);

    /// The constants that reduce a [`Sum`] mod one `p < 2^50`.
    #[derive(Clone, Copy)]
    struct Reducer {
        p: __m512i,
        p2: __m512i,
        /// `2^52 mod p` and its companion: the weight of the high word.
        radix: Twiddle,
        /// 1 and its companion `⌊2^52/p⌋`: the low word's reduction.
        one: Twiddle,
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn reducer(m: &Modulus) -> Reducer {
        let p = m.value();
        Reducer {
            p: _mm512_set1_epi64(p as i64),
            p2: _mm512_set1_epi64(2 * p as i64),
            radix: splat(ShoupPair::new(m, m.reduce_u128(1 << 52))),
            one: splat(ShoupPair::new(m, 1)),
        }
    }

    /// `Σ aᵢ·bᵢ` per lane as `lo + hi·2^52`: `madd52lo` adds each product's
    /// low 52 bits to `lo`, `madd52hi` its high bits to `hi`. [`RUN`]
    /// products onto a carried residue keep `hi + (lo >> 52) < 2^52`
    /// ([`lane_products`]), which [`Sum::reduce`] needs.
    #[derive(Clone, Copy)]
    struct Sum {
        lo: __m512i,
        hi: __m512i,
    }

    impl Sum {
        /// A sum holding `x` (zero or a carried residue below `2^50`).
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn new(x: __m512i) -> Sum {
            Sum {
                lo: x,
                hi: _mm512_setzero_si512(),
            }
        }

        /// Adds `a·b`, both below `2^50`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn add(&mut self, a: __m512i, b: __m512i) {
            self.lo = _mm512_madd52lo_epu64(self.lo, a, b);
            self.hi = _mm512_madd52hi_epu64(self.hi, a, b);
        }

        /// The sum mod `p`, canonical: fold `lo >> 52` into `hi`, then
        /// `hi·(2^52 mod p) + (lo mod 2^52)·1` as two lazy Shoup products,
        /// each in `[0, 2p)`, and two conditional subtractions.
        #[inline]
        #[target_feature(enable = "avx512f,avx512ifma")]
        fn reduce(self, r: &Reducer) -> __m512i {
            let hi = _mm512_add_epi64(self.hi, _mm512_srli_epi64::<52>(self.lo));
            let lo = _mm512_and_si512(self.lo, _mm512_set1_epi64(LOW52));
            let x = _mm512_add_epi64(mul_lazy(hi, r.radix, r.p), mul_lazy(lo, r.one, r.p));
            csub(csub(x, r.p2), r.p)
        }
    }

    /// The multiply-accumulate over the whole 8-slot blocks of `u` (and
    /// `v` when `PAIR`); see [`super::Lanes::sum_products`].
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn sum_products<const PAIR: bool>(
        m: &Modulus,
        start: Start<'_>,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    ) {
        let r = reducer(m);
        let zero = _mm512_setzero_si512();
        for at in (0..u.len() - u.len() % 8).step_by(8) {
            let (mut su, mut sv, mut room) = match start {
                Start::Zero => (Sum::new(zero), Sum::new(zero), RUN),
                Start::Out => {
                    let sv = if PAIR { load(words_at(v, at)) } else { zero };
                    (Sum::new(load(words_at(u, at))), Sum::new(sv), RUN)
                }
                Start::OutTimes(f) => {
                    let f = load(words_at(f, at));
                    let (mut su, mut sv) = (Sum::new(zero), Sum::new(zero));
                    su.add(load(words_at(u, at)), f);
                    if PAIR {
                        sv.add(load(words_at(v, at)), f);
                    }
                    (su, sv, RUN - 1)
                }
            };
            for t in terms {
                if room == 0 {
                    su = Sum::new(su.reduce(&r));
                    if PAIR {
                        sv = Sum::new(sv.reduce(&r));
                    }
                    room = RUN;
                }
                room -= 1;
                let d = load(words_at(t.d, at));
                su.add(d, load(words_at(t.a, at)));
                if PAIR {
                    sv.add(d, load(words_at(t.b, at)));
                }
            }
            store(words_at_mut(u, at), su.reduce(&r));
            if PAIR {
                store(words_at_mut(v, at), sv.reduce(&r));
            }
        }
    }

    /// One target limb's constants in [`new_limb`].
    #[derive(Clone, Copy)]
    struct Target {
        reducer: Reducer,
        /// `e·Q mod p_j` for `e` in `0..8` and `8..16` (zero past `ℓ`).
        excess: (__m512i, __m512i),
    }

    /// How many target limbs' constants [`new_limb`] holds at once.
    const TARGETS: usize = 16;

    /// `NewLimb` over the whole 8-slot blocks of `range`; see
    /// [`super::Lanes::new_limb`]. Per block: `y_i` as a lazy Shoup product
    /// and one conditional subtraction, the excess estimate `Σ y_i/q_i` in
    /// f64 lanes in ascending limb order (the reference's rounding), then
    /// per target limb one [`Sum`] over the broadcast `Q_i^*` and the
    /// excess's `e·Q mod p_j` picked by one `permutex2var`.
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn new_limb(
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        cols: &mut [&mut [u64]],
    ) {
        let l = ext.source_moduli.len();
        assert!(l <= MAX_EXTENSION_SOURCE, "{l} source limbs");
        let zero = _mm512_setzero_si512();
        let unset = Twiddle {
            value: zero,
            shoup: zero,
        };
        let mut q_tilde = [unset; MAX_EXTENSION_SOURCE];
        let mut q = [zero; MAX_EXTENSION_SOURCE];
        let mut q_inv = [_mm512_setzero_pd(); MAX_EXTENSION_SOURCE];
        for i in 0..l {
            q_tilde[i] = splat(ext.q_tilde[i]);
            q[i] = _mm512_set1_epi64(ext.source_moduli[i].value() as i64);
            q_inv[i] = _mm512_set1_pd(ext.q_inv_f64[i]);
        }
        // `y | bits(2^52)` read as a double is `2^52 + y` exactly for
        // `y < 2^52`, so subtracting 2^52 converts `y` exactly.
        let magic = _mm512_set1_epi64(0x4330_0000_0000_0000);
        let two52 = _mm512_set1_pd(4_503_599_627_370_496.0);
        let mut y = [zero; MAX_EXTENSION_SOURCE];
        for (chunk, cols) in cols.chunks_mut(TARGETS).enumerate() {
            let first = chunk * TARGETS;
            let mut targets = [Target {
                reducer: reducer(&ext.target_moduli[first]),
                excess: (zero, zero),
            }; TARGETS];
            for (c, target) in targets.iter_mut().take(cols.len()).enumerate() {
                let mut table = [0u64; 16];
                table[..=l].copy_from_slice(&ext.excess[first + c][..=l]);
                *target = Target {
                    reducer: reducer(&ext.target_moduli[first + c]),
                    excess: (load(words_at(&table, 0)), load(words_at(&table, 8))),
                };
            }
            for k in (0..n - n % 8).step_by(8) {
                let mut est = _mm512_setzero_pd();
                for i in 0..l {
                    let x = load(words_at(src, i * n + k));
                    let yi = csub(mul_lazy(x, q_tilde[i], q[i]), q[i]);
                    y[i] = yi;
                    let yf = _mm512_sub_pd(_mm512_castsi512_pd(_mm512_or_si512(yi, magic)), two52);
                    est = _mm512_add_pd(est, _mm512_mul_pd(yf, q_inv[i]));
                }
                let e = _mm512_cvtepi32_epi64(_mm512_cvttpd_epi32(est));
                for (c, col) in cols.iter_mut().enumerate() {
                    let target = &targets[c];
                    let mut sum = Sum::new(zero);
                    for (&yi, &w) in y[..l].iter().zip(&ext.q_star[first + c][..l]) {
                        sum.add(yi, _mm512_set1_epi64(w as i64));
                    }
                    let p = target.reducer.p;
                    let excess = _mm512_permutex2var_epi64(target.excess.0, e, target.excess.1);
                    let diff =
                        _mm512_sub_epi64(_mm512_add_epi64(sum.reduce(&target.reducer), p), excess);
                    store(words_at_mut(col, k), csub(diff, p));
                }
            }
        }
    }

    /// The streaming kernel over the whole 8-slot blocks of `out`; see
    /// [`super::Lanes::map_limb`]. The portable body's arithmetic on eight
    /// lanes: each `+ q − c` is one add of the broadcast `q − c`, each
    /// product a [`mul_lazy`] (operand below `2^52`), each reduction one
    /// [`csub`].
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn map_limb(
        m: &Modulus,
        op: SlotOp<'_>,
        out: &mut [u64],
        x: Option<&[u64]>,
        y: &[u64],
    ) {
        let q = _mm512_set1_epi64(m.value() as i64);
        let add = |a, b| _mm512_add_epi64(a, b);
        let minus = |c: u64| _mm512_set1_epi64((m.value() - c) as i64);
        match op {
            SlotOp::Add => binary(out, x, y, |x, y| csub(add(x, y), q)),
            SlotOp::Sub => binary(out, x, y, |x, y| csub(_mm512_sub_epi64(add(x, q), y), q)),
            SlotOp::Neg => unary(out, x, |x| csub(_mm512_sub_epi64(q, x), q)),
            SlotOp::AddScalar(c) => {
                let c = _mm512_set1_epi64(c as i64);
                unary(out, x, |x| csub(add(x, c), q))
            }
            SlotOp::SubScalar(c) => {
                let q_minus_c = minus(c);
                unary(out, x, |x| csub(add(x, q_minus_c), q))
            }
            SlotOp::Scale(c) => {
                let c = splat(c);
                unary(out, x, |x| csub(mul_lazy(x, c, q), q))
            }
            SlotOp::SubScale(c) => {
                let c = splat(c);
                binary(out, x, y, |x, y| {
                    csub(mul_lazy(_mm512_sub_epi64(add(y, q), x), c, q), q)
                })
            }
            SlotOp::Lift(from) => {
                let q_minus_h = minus(m.reduce(from.value() / 2));
                match SlotOp::lift_one(from, m) {
                    None => unary(out, x, |x| csub(add(csub(x, q), q_minus_h), q)),
                    Some(one) => {
                        let one = splat(one);
                        unary(out, x, |x| {
                            csub(add(csub(mul_lazy(x, one, q), q), q_minus_h), q)
                        })
                    }
                }
            }
        }
    }

    /// `out[k] = f(x[k])` over the whole blocks of `out`, `x` defaulting to
    /// `out` itself.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn unary(out: &mut [u64], x: Option<&[u64]>, f: impl Fn(__m512i) -> __m512i) {
        match x {
            None => blocks(out).for_each(|d| store(d, f(load(d)))),
            Some(x) => {
                for (d, x) in blocks(out).zip(x.as_chunks().0) {
                    store(d, f(load(x)));
                }
            }
        }
    }

    /// `out[k] = f(x[k], y[k])` over the whole blocks of `out`, `x`
    /// defaulting to `out` itself.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn binary(
        out: &mut [u64],
        x: Option<&[u64]>,
        y: &[u64],
        f: impl Fn(__m512i, __m512i) -> __m512i,
    ) {
        let y = y.as_chunks().0;
        match x {
            None => {
                for (d, y) in blocks(out).zip(y) {
                    store(d, f(load(d), load(y)));
                }
            }
            Some(x) => {
                for ((d, x), y) in blocks(out).zip(x.as_chunks().0).zip(y) {
                    store(d, f(load(x), load(y)));
                }
            }
        }
    }

    /// One step of eight xoshiro256++ generators, lane `j` of the four
    /// state words being generator `j`: the eight output words.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn next(s: &mut [__m512i; 4]) -> __m512i {
        let result = _mm512_add_epi64(_mm512_rol_epi64::<23>(_mm512_add_epi64(s[0], s[3])), s[0]);
        let t = _mm512_slli_epi64::<17>(s[1]);
        s[2] = _mm512_xor_si512(s[2], s[0]);
        s[3] = _mm512_xor_si512(s[3], s[1]);
        s[1] = _mm512_xor_si512(s[1], s[2]);
        s[0] = _mm512_xor_si512(s[0], s[3]);
        s[2] = _mm512_xor_si512(s[2], t);
        s[3] = _mm512_rol_epi64::<45>(s[3]);
        result
    }

    /// The vendored `Uniform`'s draw `⌊r·q/2^64⌋` per lane, for `q < 2^50`.
    /// With `r = r₁·2^52 + r₀` it is `⌊(r₁·q + ⌊r₀·q/2^52⌋)/2^12⌋`: the low
    /// 52 bits of `r₀·q` cannot carry past `2^64`. `madd52hi` gives
    /// `⌊r₀·q/2^52⌋` (it reads only the low 52 bits of `r`, which are
    /// `r₀`), and `r₁·q < 2^62` is `hi·2^52 + lo` from one `madd52lo`,
    /// which adds the former in the same instruction, and one `madd52hi`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512ifma")]
    fn lemire(r: __m512i, q: __m512i) -> __m512i {
        let zero = _mm512_setzero_si512();
        let r1 = _mm512_srli_epi64::<52>(r);
        let lo = _mm512_madd52lo_epu64(_mm512_madd52hi_epu64(zero, r, q), r1, q);
        let hi = _mm512_madd52hi_epu64(zero, r1, q);
        _mm512_add_epi64(_mm512_slli_epi64::<40>(hi), _mm512_srli_epi64::<12>(lo))
    }

    /// The 8×8 transpose `rows[t][j]` → `cols[j][t]`: three rounds of
    /// two-register permutes that pair words, then word pairs, then
    /// quads — the short stages' orders.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transpose(r: [__m512i; 8]) -> [__m512i; 8] {
        let (t0, t1) = permute(r[0], r[1], SPAN2_TO_1);
        let (t2, t3) = permute(r[2], r[3], SPAN2_TO_1);
        let (t4, t5) = permute(r[4], r[5], SPAN2_TO_1);
        let (t6, t7) = permute(r[6], r[7], SPAN2_TO_1);
        let (u0, u2) = permute(t0, t2, SPAN4_TO_2);
        let (u1, u3) = permute(t1, t3, SPAN4_TO_2);
        let (u4, u6) = permute(t4, t6, SPAN4_TO_2);
        let (u5, u7) = permute(t5, t7, SPAN4_TO_2);
        let (c0, c4) = permute(u0, u4, SPAN4);
        let (c1, c5) = permute(u1, u5, SPAN4);
        let (c2, c6) = permute(u2, u6, SPAN4);
        let (c3, c7) = permute(u3, u7, SPAN4);
        [c0, c1, c2, c3, c4, c5, c6, c7]
    }

    /// Seeded uniform expansion; see [`super::Lanes::uniform`]. Per 8-slot
    /// block of a lane's current limb: eight steps draw eight words per
    /// lane, [`lemire`] maps each into its lane's modulus, and
    /// [`transpose`] turns the eight draws of a lane into one register,
    /// stored into that lane's limb of its buffer. Every lane crosses a
    /// limb boundary at the same step, so a lane's modulus changes, and a
    /// lane restarts from a jumped state, only between limbs; a lane past
    /// the last limb draws and stores nothing.
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f` and `avx512ifma`, `n` must be a
    /// multiple of 8, and `draws` must split evenly into `polys` buffers:
    /// then every word of every buffer is written before its length is
    /// set.
    #[target_feature(enable = "avx512f,avx512ifma")]
    pub(super) unsafe fn uniform(
        draws: &[LimbDraw],
        polys: usize,
        n: usize,
        restart: &dyn Fn(usize) -> [u64; 4],
    ) -> Vec<Vec<u64>> {
        let per_poly = draws.len() / polys.max(1);
        let per_lane = draws.len().div_ceil(8);
        let mut out: Vec<Vec<u64>> = (0..polys)
            .map(|_| Vec::with_capacity(per_poly * n))
            .collect();
        let buffers: Vec<*mut u64> = out.iter_mut().map(|v| v.as_mut_ptr()).collect();
        let mut s = [_mm512_setzero_si512(); 4];
        for k in 0..per_lane {
            // Lane `j` is on draw `j·per_lane + k`.
            let mut q = [1u64; 8];
            let mut dst = [std::ptr::null_mut::<u64>(); 8];
            let mut starts: [Option<[u64; 4]>; 8] = [None; 8];
            for j in 0..8 {
                let g = j * per_lane + k;
                let Some(d) = draws.get(g) else { continue };
                q[j] = d.q;
                // SAFETY: limb `g mod per_poly` of a buffer of
                // `per_poly·n` words' capacity.
                dst[j] = unsafe { buffers[g / per_poly].add(g % per_poly * n) };
                if k == 0 || draws[g - 1].t + 1 != d.t {
                    starts[j] = Some(restart(d.t));
                }
            }
            if starts.iter().any(Option::is_some) {
                let mut words = [[0u64; 8]; 4];
                for (w, r) in words.iter_mut().zip(s) {
                    store(w, r);
                }
                for (j, start) in starts.iter().enumerate() {
                    for (w, &x) in words.iter_mut().zip(start.iter().flatten()) {
                        w[j] = x;
                    }
                }
                s = words.map(|w| load(&w));
            }
            let q = load(&q);
            for at in (0..n).step_by(8) {
                let mut rows = [_mm512_setzero_si512(); 8];
                for row in &mut rows {
                    *row = lemire(next(&mut s), q);
                }
                for (&d, col) in dst.iter().zip(transpose(rows)) {
                    if !d.is_null() {
                        // SAFETY: words `at..at + 8` of the lane's limb.
                        unsafe { _mm512_storeu_epi64(d.add(at).cast(), col) }
                    }
                }
            }
        }
        for v in &mut out {
            // SAFETY: every draw belongs to one lane at one `k`, whose
            // blocks wrote all `n` of its words, and the draws tile every
            // buffer.
            unsafe { v.set_len(per_poly * n) }
        }
        out
    }

    /// The bytes of a block of eight `w`-byte words, as a byte mask: its
    /// low `8·w` bits.
    #[inline]
    fn packed_mask(w: usize) -> __mmask64 {
        u64::MAX >> (64 - 8 * w)
    }

    /// The limb codec's packing; see [`super::PackLanes::pack`]. Per block
    /// of eight words: one `vpermb` gathers the low `w` bytes of each word
    /// to the front, and a masked store writes those `8·w` bytes and no
    /// more.
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f`, `avx512bw` and `avx512vbmi`,
    /// `words.len()` must be a multiple of 8 and `w` in `1..=8`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn pack(words: &[u64], w: usize, out: &mut Vec<u8>) {
        let blocks = words.as_chunks::<8>().0;
        let len = 8 * w * blocks.len();
        out.reserve(len);
        // Byte `k` of a packed block is byte `k mod w` of word `⌊k/w⌋`.
        let mut order = [0u8; 64];
        for (k, o) in order.iter_mut().enumerate().take(8 * w) {
            *o = (k / w * 8 + k % w) as u8;
        }
        // SAFETY: `order` is 64 readable bytes.
        let order = unsafe { _mm512_loadu_epi8(order.as_ptr().cast()) };
        let mask = packed_mask(w);
        // SAFETY: `out` has `len` bytes of spare capacity, reserved above.
        let dst = unsafe { out.as_mut_ptr().add(out.len()) };
        for (i, block) in blocks.iter().enumerate() {
            let packed = _mm512_permutexvar_epi8(order, load(block));
            // SAFETY: bytes `8·w·i .. 8·w·(i + 1)` of the spare capacity;
            // the mask writes no byte past them.
            unsafe { _mm512_mask_storeu_epi8(dst.add(8 * w * i).cast(), mask, packed) }
        }
        // SAFETY: every one of the `len` bytes was written by one block.
        unsafe { out.set_len(out.len() + len) }
    }

    /// The limb codec's unpacking; see [`super::PackLanes::unpack`]. Per
    /// block of `8·w` bytes: a masked load reads those bytes and no more,
    /// one `vpermb` spreads them to the low `w` bytes of eight words and
    /// zeroes the rest, and `cmplt_epu64` checks each word against `q`.
    ///
    /// # Safety
    ///
    /// The CPU must have `avx512f`, `avx512bw` and `avx512vbmi`,
    /// `bytes.len()` must be a multiple of `8·w` and `w` in `1..=8`.
    #[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
    pub(super) unsafe fn unpack(bytes: &[u8], w: usize, q: u64, out: &mut Vec<u64>) -> bool {
        let blocks = bytes.len() / (8 * w);
        out.reserve(8 * blocks);
        // Byte `b < w` of word `j` is byte `j·w + b` of the packed block;
        // the bytes above `w` are zeroed (`keep`).
        let mut order = [0u8; 64];
        let mut keep: __mmask64 = 0;
        for (k, o) in order.iter_mut().enumerate() {
            if k % 8 < w {
                *o = (k / 8 * w + k % 8) as u8;
                keep |= 1 << k;
            }
        }
        // SAFETY: `order` is 64 readable bytes.
        let order = unsafe { _mm512_loadu_epi8(order.as_ptr().cast()) };
        let mask = packed_mask(w);
        let q = _mm512_set1_epi64(q as i64);
        let mut below: __mmask8 = 0xff;
        let src = bytes.as_ptr();
        // SAFETY: `out` has `8·blocks` words of spare capacity.
        let dst = unsafe { out.as_mut_ptr().add(out.len()) };
        for i in 0..blocks {
            // SAFETY: bytes `8·w·i .. 8·w·(i + 1)` of `bytes`; the mask
            // reads no byte past them.
            let packed = unsafe { _mm512_maskz_loadu_epi8(mask, src.add(8 * w * i).cast()) };
            let x = _mm512_maskz_permutexvar_epi8(keep, order, packed);
            below &= _mm512_cmplt_epu64_mask(x, q);
            // SAFETY: words `8·i .. 8·(i + 1)` of the spare capacity.
            unsafe { _mm512_storeu_epi64(dst.add(8 * i).cast(), x) }
        }
        // SAFETY: every one of the `8·blocks` words was written by one
        // block.
        unsafe { out.set_len(out.len() + 8 * blocks) }
        below == 0xff
    }
}
