//! The hot ring kernels: the one production path and the reference it is
//! tested against.
//!
//! The MAD paper's thesis is that FHE throughput is decided by how the hot
//! kernels — negacyclic NTT/iNTT butterflies, Barrett/Shoup modular
//! multiplication, and the `NewLimb` basis-extension inner products — move
//! data. Every one of them lives here, as a method of one of two unit
//! structs with the same method set:
//!
//! - [`UnrolledBackend`] — the production path: [`NttTable::forward`] /
//!   [`NttTable::inverse`], the `RnsPoly` ops, `BasisExtender` and the
//!   key-switch inner product call it directly. Its transforms are built
//!   around registers instead of sweeps, with **lazy (deferred)
//!   reduction**: radix-4 sweeps carry four words through two stages per
//!   load and store, the three short stages run on eight-word blocks held
//!   in registers, and operands stay in `[0, 4q)` (forward, Harvey's
//!   butterfly) or `[0, 2q)` (inverse) across stages — which is why
//!   [`crate::modular::MAX_MODULUS_BITS`] is 62 — with the reduction to
//!   `[0, q)` and the inverse's `N⁻¹` folded into the last sweep's stores.
//!   x86-64 has no 64×64→128 vector multiply, but AVX-512 IFMA multiplies
//!   52-bit lanes: on a CPU with `avx512f` and `avx512ifma`, a transform
//!   with `q < 2^50` (so `4q < 2^52`) and `N ≥ 16` runs the same schedule
//!   eight lanes at a time, reading the same twiddle tables (the `ifma`
//!   module). A transform with `q ≥ 2^50`, or on a CPU without IFMA, runs
//!   the portable scalar `mul`/`imul`/`cmov` loops, whose floor is three
//!   multiplies per butterfly on one port. The choice is made per call
//!   from the CPU and the modulus.
//! - [`ScalarBackend`] — the reference: one obvious loop per kernel, every
//!   butterfly and pointwise value fully reduced in `[0, q)` at every step.
//!   The library reaches it only as the production transforms' fallback
//!   below one block (`n < 8`) and through `BasisExtender::extend_coeff`'s
//!   single slot; the kernel tests and the `ntt_kernels` bench call it
//!   directly.
//!
//! Besides the transforms, two kernels carry all the arithmetic. Like the
//! transforms, each runs on eight IFMA lanes where the CPU has them and
//! every modulus of the call is below `2^50` — every limb of every
//! workload ring — and on its portable body otherwise, which also takes
//! the ragged tail (`len % 8` slots):
//!
//! - The **multiply-accumulate** below.
//! - The **streaming kernel** `map_limb`: one canonical word out per slot
//!   from one or two canonical words in, with one conditional subtraction
//!   and at most one lazy Shoup product — `pointwise_add` / `_sub` / `_neg`
//!   and their `_into` forms, `add_scalar` / `sub_scalar`, `scale_shoup` /
//!   `sub_scale_shoup` and the centred lift of `Rescale`. The portable
//!   body is the scalar `csub` / `mul` loops; the lane body does the same
//!   arithmetic with `min_epu64` as the conditional subtraction and the
//!   transforms' 52-bit lazy Shoup product.
//!
//! The *accumulating* kernels — the `NewLimb` sum `Σ_i y_i·Q_i^*` of a basis
//! extension, the key-switch inner product `Σ_j d_j·k_j` and the pointwise
//! products `a·b` and `c + a·b` — are one production kernel: a lazy
//! "`Σ aᵢ·bᵢ`, reduce once" multiply-accumulate over slots. Two callers
//! feed it: `sum_products`, whose factors are limbs (one or two outputs,
//! any number of terms), and [`UnrolledBackend::basis_ext_block`], whose
//! `Q_i^*` is one constant per target limb. It has two bodies, chosen per
//! call from the CPU and the moduli like the transforms:
//!
//! - the **lane body** (`ifma`), where every modulus is below `2^50` and
//!   the CPU has AVX-512 IFMA: eight slots per register, each product's low
//!   and high 52 bits added to two accumulators, and one fold and two lazy
//!   Shoup products per output ([`crate::modular::lane_products`] states the
//!   bound: sixteen products per run). Whole 8-slot blocks only; a basis
//!   extension also needs a source basis of at most 15 limbs.
//! - the **portable body**: products added up in 128 bits and Barrett-reduced
//!   once per output ([`crate::modular::lazy_products`] says how many terms
//!   fit; only primes over 60 bits ever need a second reduction), eight
//!   slots per block with each term's limbs bounds-checked once per block.
//!   It takes ragged tails, moduli at or above `2^50` and CPUs without
//!   IFMA.
//!
//! Every method takes canonical inputs and emits fully reduced canonical
//! residues, whatever its internal representation, so the two sets'
//! outputs are **bit-identical** — the `backend_identity` and
//! `backend_proptests` suites compare the reference against the production
//! entry points on the same inputs.
//!
//! # Telemetry contract
//!
//! The kernels perform **no telemetry recording**. Butterfly,
//! multiplication, and basis-extension counters are recorded by the
//! callers ([`NttTable::forward`], `BasisExtender::extend_columns`, the
//! `RnsPoly` ops) in units of *logical* operations, so a blocked kernel
//! cannot inflate counters with per-block increments. The
//! `backend_counters` regression test pins the counts.

use crate::ifma;
use crate::modular::{lazy_products, Modulus};
use crate::ntt::NttTable;
use crate::rns::MAX_SOURCE_LIMBS;
use std::ops::Range;

/// A constant multiplicand paired with its Shoup companion
/// `⌊value·2^64/q⌋`.
///
/// This is the **single precomputation path** for Shoup constants: the NTT
/// twiddle tables (`ntt.rs`), the basis-extension `Q̃_i` factors (`rns.rs`),
/// and the scalar/rescale multipliers (`poly.rs`) all store `ShoupPair`s
/// built here instead of each computing and carrying parallel
/// `(value, shoup)` vectors.
///
/// `#[repr(C)]`: the IFMA transforms read a twiddle table as words, value
/// then companion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct ShoupPair {
    /// The reduced constant `value < q`.
    pub value: u64,
    /// `⌊value·2^64/q⌋`, the Shoup companion for single-word modmul.
    pub shoup: u64,
}

impl ShoupPair {
    /// Precomputes the Shoup companion of `value` (must be reduced mod
    /// `m`).
    #[inline]
    pub fn new(m: &Modulus, value: u64) -> Self {
        Self {
            value,
            shoup: m.shoup(value),
        }
    }

    /// Precomputes a table of Shoup pairs for a slice of reduced constants.
    pub fn table(m: &Modulus, values: &[u64]) -> Vec<ShoupPair> {
        values.iter().map(|&v| Self::new(m, v)).collect()
    }
}

// Two words and no padding: a table of `P` pairs is `2P` words.
const _: () = assert!(std::mem::size_of::<ShoupPair>() == 2 * std::mem::size_of::<u64>());

/// Borrowed view of a `BasisExtender`'s precomputed constants, handed to
/// [`UnrolledBackend::basis_ext_block`] (and the reference) so the kernels
/// can fuse the `NewLimb` inner loops without `rns.rs` exposing its fields.
pub struct BasisExtView<'a> {
    /// `Q̃_i = (Q/q_i)^{-1} mod q_i` with Shoup companions, per source limb.
    pub q_tilde: &'a [ShoupPair],
    /// `1/q_i` as `f64`, for the conversion-excess estimate.
    pub q_inv_f64: &'a [f64],
    /// `Q_i^* = Q/q_i mod p_j`, indexed `[target][source]`.
    pub q_star: &'a [Vec<u64>],
    /// `e·Q mod p_j`, indexed `[target][e]` for `e ∈ 0..=source_len` (every
    /// value the excess estimate can take).
    pub excess: &'a [Vec<u64>],
    /// How many products `y_i·Q_i^*` may be summed in 128 bits between
    /// reductions ([`lazy_products`] of the widest source and target
    /// limb); at least the source length unless the primes exceed 60 bits.
    pub lazy_terms: usize,
    /// The source limb moduli `q_i`.
    pub source_moduli: &'a [Modulus],
    /// The target limb moduli `p_j`.
    pub target_moduli: &'a [Modulus],
}

/// One digit's operands for one raised limb of the key-switch inner
/// product: the digit limb `d` and the matching limbs `a`, `b` of the two
/// key halves, all of the same length.
#[derive(Clone, Copy, Debug)]
pub struct DigitTerm<'a> {
    /// The raised digit's limb.
    pub d: &'a [u64],
    /// The `a`-half key limb (accumulates into `u`).
    pub a: &'a [u64],
    /// The `b`-half key limb (accumulates into `v`).
    pub b: &'a [u64],
}

// ---------------------------------------------------------------------------
// The reference: the original fully-reduced loops.
// ---------------------------------------------------------------------------

/// The reference kernels: the one obvious loop for each, butterflies and
/// pointwise values fully reduced at every step.
///
/// This is what the production kernels ([`UnrolledBackend`]) are tested
/// against; it favors obviousness over speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl ScalarBackend {
    /// The reference [`UnrolledBackend::ntt_forward`]: one radix-2 stage per
    /// sweep, every butterfly fully reduced.
    pub fn ntt_forward(&self, table: &NttTable, data: &mut [u64]) {
        let n = table.size();
        let q = table.modulus();
        let roots = table.forward_roots();
        let mut t = n;
        let mut m = 1usize;
        while m < n {
            t >>= 1;
            for i in 0..m {
                let w = roots[m + i];
                let base = 2 * i * t;
                for j in base..base + t {
                    let u = data[j];
                    let v = q.mul_shoup(data[j + t], w.value, w.shoup);
                    data[j] = q.add(u, v);
                    data[j + t] = q.sub(u, v);
                }
            }
            m <<= 1;
        }
    }

    /// The reference [`UnrolledBackend::ntt_inverse`], with `N⁻¹` applied in a
    /// pass of its own.
    pub fn ntt_inverse(&self, table: &NttTable, data: &mut [u64]) {
        let n = table.size();
        let q = table.modulus();
        let roots = table.inverse_roots();
        let mut t = 1usize;
        let mut m = n;
        while m > 1 {
            let h = m >> 1;
            let mut base = 0usize;
            for i in 0..h {
                let w = roots[h + i];
                for j in base..base + t {
                    let u = data[j];
                    let v = data[j + t];
                    data[j] = q.add(u, v);
                    data[j + t] = q.mul_shoup(q.sub(u, v), w.value, w.shoup);
                }
                base += 2 * t;
            }
            t <<= 1;
            m = h;
        }
        let n_inv = table.n_inv();
        for x in data.iter_mut() {
            *x = q.mul_shoup(*x, n_inv.value, n_inv.shoup);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_add`].
    pub fn pointwise_add(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.add(*d, s);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_sub`].
    pub fn pointwise_sub(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.sub(*d, s);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_add_into`].
    pub fn pointwise_add_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = m.add(x, y);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_sub_into`].
    pub fn pointwise_sub_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = m.sub(x, y);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_neg`].
    pub fn pointwise_neg(&self, m: &Modulus, dst: &mut [u64]) {
        for d in dst.iter_mut() {
            *d = m.neg(*d);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_mul`].
    pub fn pointwise_mul(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.mul(*d, s);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_mul_into`].
    pub fn pointwise_mul_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = m.mul(x, y);
        }
    }

    /// The reference [`UnrolledBackend::pointwise_mul_add`].
    pub fn pointwise_mul_add(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        for ((c, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *c = m.mul_add(x, y, *c);
        }
    }

    /// The reference [`UnrolledBackend::scale_shoup`].
    pub fn scale_shoup(&self, m: &Modulus, dst: &mut [u64], c: ShoupPair) {
        for d in dst.iter_mut() {
            *d = m.mul_shoup(*d, c.value, c.shoup);
        }
    }

    /// The reference [`UnrolledBackend::sub_scale_shoup`].
    pub fn sub_scale_shoup(&self, m: &Modulus, minuend: &[u64], dst: &mut [u64], c: ShoupPair) {
        for (d, &s) in dst.iter_mut().zip(minuend) {
            *d = m.mul_shoup(m.sub(s, *d), c.value, c.shoup);
        }
    }

    /// The reference [`UnrolledBackend::add_scalar`].
    pub fn add_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        assert_reduced(m, c);
        for d in dst.iter_mut() {
            *d = m.add(*d, c);
        }
    }

    /// The reference [`UnrolledBackend::sub_scalar`].
    pub fn sub_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        assert_reduced(m, c);
        for d in dst.iter_mut() {
            *d = m.sub(*d, c);
        }
    }

    /// The reference [`UnrolledBackend::lift_centered`]: the shifted word
    /// reduced into `to`, minus the shift reduced into `to`.
    pub fn lift_centered(&self, from: &Modulus, to: &Modulus, shifted: &[u64], out: &mut [u64]) {
        let h = to.reduce(from.value() / 2);
        for (o, &c) in out.iter_mut().zip(shifted) {
            *o = to.sub(to.reduce(c), h);
        }
    }

    /// The reference [`UnrolledBackend::inner_product_pair`].
    pub fn inner_product_pair(
        &self,
        m: &Modulus,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    ) {
        assert_eq!(u.len(), v.len(), "accumulator length mismatch");
        let lazy_terms = lazy_products(m.bits(), m.bits());
        for (k, (us, vs)) in u.iter_mut().zip(v.iter_mut()).enumerate() {
            let (mut su, mut sv) = (0u128, 0u128);
            let mut room = lazy_terms;
            for t in terms {
                if room == 0 {
                    su = m.reduce_u128(su) as u128;
                    sv = m.reduce_u128(sv) as u128;
                    room = lazy_terms;
                }
                room -= 1;
                let d = t.d[k] as u128;
                su += d * t.a[k] as u128;
                sv += d * t.b[k] as u128;
            }
            *us = m.reduce_u128(su);
            *vs = m.reduce_u128(sv);
        }
    }

    /// The reference [`UnrolledBackend::basis_ext_block`].
    pub fn basis_ext_block(
        &self,
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        range: Range<usize>,
        cols: &mut [&mut [u64]],
    ) {
        let base = range.start;
        let mut y = [0u64; MAX_SOURCE_LIMBS];
        for k in range {
            new_limb_slot(ext, src, n, k, &mut y, k - base, cols);
        }
    }
}

/// `NewLimb` for slot `k`, written to `cols[j][at]`: the reference loop, and
/// the ragged tail of the blocked one. `y` is caller-provided scratch.
#[inline(always)]
fn new_limb_slot(
    ext: &BasisExtView<'_>,
    src: &[u64],
    n: usize,
    k: usize,
    y: &mut [u64; MAX_SOURCE_LIMBS],
    at: usize,
    cols: &mut [&mut [u64]],
) {
    let l = ext.source_moduli.len();
    // y_i = [x · Q̃_i]_{q_i}, plus the float excess estimate, accumulated
    // in ascending limb order (see `basis_ext_block`). y_i < 2^62, so the
    // signed conversion is exact and skips the unsigned one's fix-up.
    let mut est = 0.0f64;
    for i in 0..l {
        let c = ext.q_tilde[i];
        y[i] = ext.source_moduli[i].mul_shoup(src[i * n + k], c.value, c.shoup);
        est += y[i] as i64 as f64 * ext.q_inv_f64[i];
    }
    // Σ y_i Q_i^* = x + e·Q, and Σ y_i/q_i = e + x/Q with x/Q ∈ [0,1), so
    // flooring the float estimate recovers e exactly (up to the negligible
    // chance of x within Q·2^{-45} of a multiple of Q).
    let e = est as i64 as usize;
    for (j, col) in cols.iter_mut().enumerate() {
        let pj = &ext.target_moduli[j];
        let mut acc = 0u128;
        let mut room = ext.lazy_terms;
        for (&yi, &w) in y[..l].iter().zip(&ext.q_star[j]) {
            if room == 0 {
                acc = pj.reduce_u128(acc) as u128;
                room = ext.lazy_terms;
            }
            room -= 1;
            acc += yi as u128 * w as u128;
        }
        col[at] = pj.sub(pj.reduce_u128(acc), ext.excess[j][e]);
    }
}

// ---------------------------------------------------------------------------
// The production kernels: register-blocked radix-4 transforms, lazy reduction.
// ---------------------------------------------------------------------------

/// Block width: the eight words the three short transform stages
/// (`t` = 4, 2, 1) hold in registers, and the slot block of the basis
/// extension. Transforms shorter than one block take the reference loops.
const BLOCK: usize = 8;

/// Conditional subtraction — the only "reduction" the lazy kernels perform
/// per butterfly. Branchless: LLVM lowers this to a compare + `cmov`.
#[inline(always)]
fn csub(x: u64, q: u64) -> u64 {
    if x >= q {
        x - q
    } else {
        x
    }
}

/// Shoup multiplication **without** the final conditional subtraction:
/// returns `a·c mod q` as a half-reduced value in `[0, 2q)`. Valid for any
/// `a < 2^64` and reduced `c.value < q` (Harvey's bound).
#[inline(always)]
fn mul_shoup_lazy(a: u64, c: ShoupPair, q: u64) -> u64 {
    let q_hat = ((a as u128 * c.shoup as u128) >> 64) as u64;
    a.wrapping_mul(c.value).wrapping_sub(q_hat.wrapping_mul(q))
}

/// Harvey's forward (Cooley–Tukey) butterfly: operands and results in
/// `[0, 4q)`, one conditional subtraction. `x + 2q − t` peaks just under
/// `4q`, which is why a modulus may not exceed 62 bits.
#[inline(always)]
fn ct(u: u64, v: u64, w: ShoupPair, q: u64) -> (u64, u64) {
    let x = csub(u, 2 * q);
    let t = mul_shoup_lazy(v, w, q);
    (x + t, x + 2 * q - t)
}

/// The inverse (Gentleman–Sande) butterfly: operands and results in
/// `[0, 2q)`; the difference enters the lazy multiply unreduced.
#[inline(always)]
fn gs(u: u64, v: u64, w: ShoupPair, q: u64) -> (u64, u64) {
    (csub(u + v, 2 * q), mul_shoup_lazy(u + 2 * q - v, w, q))
}

/// The limb block by block, each with the twiddles its three short stages
/// use: one for `t` = 4, two for `t` = 2, four for `t` = 1.
fn short_stage_blocks<'a>(
    data: &'a mut [u64],
    roots: &'a [ShoupPair],
) -> impl Iterator<Item = (&'a mut [u64], ShoupPair, &'a [ShoupPair], &'a [ShoupPair])> {
    let n = data.len();
    let (w4, w2, w1) = (&roots[n / 8..n / 4], &roots[n / 4..n / 2], &roots[n / 2..n]);
    data.chunks_exact_mut(BLOCK)
        .zip(w4)
        .zip(w2.chunks_exact(2))
        .zip(w1.chunks_exact(4))
        .map(|(((block, &w4), w2), w1)| (block, w4, w2, w1))
}

/// The eight words of one block, by value.
#[inline(always)]
fn load(block: &[u64]) -> [u64; BLOCK] {
    block.try_into().expect("a block of BLOCK words")
}

/// Forward stages `(m, t)` and `(2m, t/2)` in one sweep: four words a
/// quarter-group apart go through both stages between one load and one
/// store. The bit-reversed table keeps the three twiddles of a group
/// adjacent: `roots[m+i]`, then `roots[2m+2i]` and `roots[2m+2i+1]`.
fn forward_pair(data: &mut [u64], roots: &[ShoupPair], m: usize, t: usize, q: u64) {
    for (i, group) in data.chunks_exact_mut(2 * t).enumerate() {
        let (w, w_lo, w_hi) = (roots[m + i], roots[2 * m + 2 * i], roots[2 * m + 2 * i + 1]);
        let (lo, hi) = group.split_at_mut(t);
        let (a, b) = lo.split_at_mut(t / 2);
        let (c, d) = hi.split_at_mut(t / 2);
        for (((a, b), c), d) in a.iter_mut().zip(b).zip(c).zip(d) {
            let (a1, c1) = ct(*a, *c, w, q);
            let (b1, d1) = ct(*b, *d, w, q);
            (*a, *b) = ct(a1, b1, w_lo, q);
            (*c, *d) = ct(c1, d1, w_hi, q);
        }
    }
}

/// The last three forward stages (`t` = 4, 2, 1) on one block at a time,
/// held in registers, with `exit` applied to every word on its way out.
fn forward_tail(data: &mut [u64], roots: &[ShoupPair], q: u64, exit: impl Fn(u64) -> u64) {
    for (block, w4, w2, w1) in short_stage_blocks(data, roots) {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = load(block);
        let (x0, x4) = ct(x0, x4, w4, q);
        let (x1, x5) = ct(x1, x5, w4, q);
        let (x2, x6) = ct(x2, x6, w4, q);
        let (x3, x7) = ct(x3, x7, w4, q);
        let (x0, x2) = ct(x0, x2, w2[0], q);
        let (x1, x3) = ct(x1, x3, w2[0], q);
        let (x4, x6) = ct(x4, x6, w2[1], q);
        let (x5, x7) = ct(x5, x7, w2[1], q);
        let (x0, x1) = ct(x0, x1, w1[0], q);
        let (x2, x3) = ct(x2, x3, w1[1], q);
        let (x4, x5) = ct(x4, x5, w1[2], q);
        let (x6, x7) = ct(x6, x7, w1[3], q);
        block.copy_from_slice(&[x0, x1, x2, x3, x4, x5, x6, x7].map(&exit));
    }
}

/// The forward transform: canonical input, every word `< 4q` before `exit`
/// maps it on the tail's stores. One sweep per two stages — six over the
/// limb at N = 2^13 where a stage-per-sweep transform makes thirteen and
/// an exit pass.
fn forward_transform(table: &NttTable, data: &mut [u64], exit: impl Fn(u64) -> u64) {
    let n = data.len();
    if n < BLOCK {
        return ScalarBackend.ntt_forward(table, data);
    }
    let q = table.modulus().value();
    let roots = table.forward_roots();
    let (mut m, mut t) = (1, n / 2);
    // An odd number of stages ahead of the tail: the first goes alone, as
    // one radix-2 sweep, and the rest pair up.
    if (n / BLOCK).trailing_zeros() % 2 == 1 {
        let (us, vs) = data.split_at_mut(t);
        for (u, v) in us.iter_mut().zip(vs) {
            (*u, *v) = ct(*u, *v, roots[1], q);
        }
        (m, t) = (2, n / 4);
    }
    while t > BLOCK {
        forward_pair(data, roots, m, t, q);
        (m, t) = (4 * m, t / 4);
    }
    forward_tail(data, roots, q, exit);
}

/// The first three inverse stages (`t` = 1, 2, 4) on one block at a time,
/// held in registers; `last` is the butterfly of the third.
fn inverse_head(
    data: &mut [u64],
    roots: &[ShoupPair],
    q: u64,
    last: impl Fn(u64, u64, ShoupPair) -> (u64, u64),
) {
    for (block, w4, w2, w1) in short_stage_blocks(data, roots) {
        let [x0, x1, x2, x3, x4, x5, x6, x7] = load(block);
        let (x0, x1) = gs(x0, x1, w1[0], q);
        let (x2, x3) = gs(x2, x3, w1[1], q);
        let (x4, x5) = gs(x4, x5, w1[2], q);
        let (x6, x7) = gs(x6, x7, w1[3], q);
        let (x0, x2) = gs(x0, x2, w2[0], q);
        let (x1, x3) = gs(x1, x3, w2[0], q);
        let (x4, x6) = gs(x4, x6, w2[1], q);
        let (x5, x7) = gs(x5, x7, w2[1], q);
        let (x0, x4) = last(x0, x4, w4);
        let (x1, x5) = last(x1, x5, w4);
        let (x2, x6) = last(x2, x6, w4);
        let (x3, x7) = last(x3, x7, w4);
        block.copy_from_slice(&[x0, x1, x2, x3, x4, x5, x6, x7]);
    }
}

/// Inverse stages of spans `t` and `2t` in one sweep, the mirror of
/// [`forward_pair`]; `last` is the butterfly of the second.
fn inverse_pair(
    data: &mut [u64],
    roots: &[ShoupPair],
    t: usize,
    q: u64,
    last: impl Fn(u64, u64, ShoupPair) -> (u64, u64),
) {
    let h = data.len() / (2 * t);
    for (i, group) in data.chunks_exact_mut(4 * t).enumerate() {
        let (w_lo, w_hi, w) = (roots[h + 2 * i], roots[h + 2 * i + 1], roots[h / 2 + i]);
        let (lo, hi) = group.split_at_mut(2 * t);
        let (a, b) = lo.split_at_mut(t);
        let (c, d) = hi.split_at_mut(t);
        for (((a, b), c), d) in a.iter_mut().zip(b).zip(c).zip(d) {
            let (a1, b1) = gs(*a, *b, w_lo, q);
            let (c1, d1) = gs(*c, *d, w_hi, q);
            (*a, *c) = last(a1, c1, w);
            (*b, *d) = last(b1, d1, w);
        }
    }
}

/// The inverse transform, `N⁻¹` included: canonical input, every word
/// `< 2q` before `exit` maps it on the last stage's stores. That stage has
/// one twiddle, so it scales as it goes — `u' = (u+v)·N⁻¹`,
/// `v' = (u−v)·(w·N⁻¹)` — and there is no normalisation pass.
fn inverse_transform(table: &NttTable, data: &mut [u64], exit: impl Fn(u64) -> u64) {
    let n = data.len();
    if n < BLOCK {
        return ScalarBackend.ntt_inverse(table, data);
    }
    let q = table.modulus().value();
    let roots = table.inverse_roots();
    let (n_inv, w_n_inv) = (table.n_inv(), table.n_inv_last_root());
    let inner = |u, v, w| gs(u, v, w, q);
    // The last stage's butterfly; its one twiddle is folded into `w_n_inv`.
    let scaled = |u: u64, v: u64, _| {
        (
            exit(mul_shoup_lazy(u + v, n_inv, q)),
            exit(mul_shoup_lazy(u + 2 * q - v, w_n_inv, q)),
        )
    };
    // Whichever sweep holds the last stage takes `scaled`: the head at
    // n = 8, else the lone radix-2 sweep when the stages after the head are
    // odd in number, else the last pair.
    if n == BLOCK {
        return inverse_head(data, roots, q, scaled);
    }
    inverse_head(data, roots, q, inner);
    let mut t = BLOCK;
    while 4 * t < n {
        inverse_pair(data, roots, t, q, inner);
        t *= 4;
    }
    if 2 * t < n {
        inverse_pair(data, roots, t, q, scaled);
    } else {
        let (us, vs) = data.split_at_mut(t);
        for (u, v) in us.iter_mut().zip(vs) {
            (*u, *v) = scaled(*u, *v, w_n_inv);
        }
    }
}

/// The production kernels, which every transform, pointwise op, basis
/// extension and key-switch inner product of the library runs:
/// register-blocked radix-4 transforms with lazy reduction, the one
/// multiply-accumulate kernel behind the pointwise products, the inner
/// product and `NewLimb`, and the one streaming kernel behind every
/// single-word pass.
///
/// Transform invariants: the forward butterflies keep every word in
/// `[0, 4q)` (Harvey), the inverse ones in `[0, 2q)`; both are legal
/// because `q < 2^62`. The reduction to canonical `[0, q)` rides on the
/// stores of the last sweep, and so does the inverse's `N⁻¹`. Transforms
/// with `q < 2^50` and `N ≥ 16` run on AVX-512 IFMA lanes where the CPU
/// has them, with the same invariants and bit-identical output, and so does
/// every multiply-accumulate and every streaming pass whose moduli are all
/// below `2^50`.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrolledBackend;

/// The unrolled forward transform: on IFMA lanes where [`ifma::lanes`]
/// grants them, else the portable one; reduced to `[0, q)` on the last
/// stores when `canonical`, else left in `[0, 4q)`.
fn forward(table: &NttTable, data: &mut [u64], canonical: bool) {
    let q = table.modulus().value();
    match ifma::lanes(q, data.len()) {
        Some(lanes) => lanes.forward(table, data, canonical),
        None if canonical => forward_transform(table, data, |x| csub(csub(x, 2 * q), q)),
        None => forward_transform(table, data, |x| x),
    }
}

/// The unrolled inverse transform, chosen like [`forward`]; reduced to
/// `[0, q)` when `canonical`, else left in `[0, 2q)`.
fn inverse(table: &NttTable, data: &mut [u64], canonical: bool) {
    let q = table.modulus().value();
    match ifma::lanes(q, data.len()) {
        Some(lanes) => lanes.inverse(table, data, canonical),
        None if canonical => inverse_transform(table, data, |x| csub(x, q)),
        None => inverse_transform(table, data, |x| x),
    }
}

impl UnrolledBackend {
    /// Stable lowercase identifier, `"unrolled"`: the serving `Hello`
    /// reply and the `serve_kernel_backend` metric label.
    pub fn name(&self) -> &'static str {
        "unrolled"
    }

    /// In-place forward negacyclic NTT over one limb (Cooley–Tukey
    /// decimation-in-time, bit-reversed output), using `table`'s
    /// precomputed twiddles. `data.len() == table.size()`.
    pub fn ntt_forward(&self, table: &NttTable, data: &mut [u64]) {
        forward(table, data, true);
    }

    /// In-place inverse negacyclic NTT (Gentleman–Sande, bit-reversed
    /// input, natural output), including the final `N^{-1}` scaling.
    pub fn ntt_inverse(&self, table: &NttTable, data: &mut [u64]) {
        inverse(table, data, true);
    }

    /// [`UnrolledBackend::ntt_forward`] without the canonical reduction: the
    /// output is congruent to it with every word in `[0, 4q)`. Exposed so
    /// the range invariant is directly testable (`backend_proptests`), on
    /// whichever path the modulus and the CPU choose.
    pub fn ntt_forward_lazy(&self, table: &NttTable, data: &mut [u64]) {
        forward(table, data, false);
    }

    /// [`UnrolledBackend::ntt_inverse`] (`N⁻¹` included) without the
    /// canonical reduction: every word in `[0, 2q)`. Testable range
    /// invariant, like [`UnrolledBackend::ntt_forward_lazy`].
    pub fn ntt_inverse_lazy(&self, table: &NttTable, data: &mut [u64]) {
        inverse(table, data, false);
    }

    /// `dst[k] = dst[k] + src[k] mod q`: the streaming kernel.
    pub fn pointwise_add(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        map_limb(m, SlotOp::Add, dst, None, src);
    }

    /// `out[k] = a[k] + b[k] mod q`, leaving both inputs untouched.
    pub fn pointwise_add_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        map_limb(m, SlotOp::Add, out, Some(a), b);
    }

    /// `dst[k] = dst[k] - src[k] mod q`.
    pub fn pointwise_sub(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        map_limb(m, SlotOp::Sub, dst, None, src);
    }

    /// `out[k] = a[k] - b[k] mod q`, leaving both inputs untouched.
    pub fn pointwise_sub_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        map_limb(m, SlotOp::Sub, out, Some(a), b);
    }

    /// `dst[k] = -dst[k] mod q`.
    pub fn pointwise_neg(&self, m: &Modulus, dst: &mut [u64]) {
        map_limb(m, SlotOp::Neg, dst, None, &[]);
    }

    /// `dst[k] = dst[k] · src[k] mod q`: the multiply-accumulate kernel
    /// with no terms, started from the product.
    pub fn pointwise_mul(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        sum_products::<false>(m, Start::OutTimes(src), &[], dst, &mut []);
    }

    /// `out[k] = a[k] · b[k] mod q`, leaving both inputs untouched: the
    /// multiply-accumulate kernel with one term.
    pub fn pointwise_mul_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        sum_products::<false>(m, Start::Zero, &[single(a, b)], out, &mut []);
    }

    /// The fused multiply-accumulate `acc[k] = acc[k] + a[k] · b[k] mod q`:
    /// one pass and one reduction per slot where a product into a
    /// temporary and an add would make two of each.
    pub fn pointwise_mul_add(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        sum_products::<false>(m, Start::Out, &[single(a, b)], acc, &mut []);
    }

    /// `dst[k] = dst[k] · c mod q` with a precomputed Shoup constant.
    pub fn scale_shoup(&self, m: &Modulus, dst: &mut [u64], c: ShoupPair) {
        map_limb(m, SlotOp::Scale(c), dst, None, &[]);
    }

    /// The fused rescale/`ModDown` combine:
    /// `dst[k] = (minuend[k] - dst[k]) · c mod q`.
    pub fn sub_scale_shoup(&self, m: &Modulus, minuend: &[u64], dst: &mut [u64], c: ShoupPair) {
        map_limb(m, SlotOp::SubScale(c), dst, None, minuend);
    }

    /// `dst[k] = dst[k] + c mod q` for a reduced constant `c` (the
    /// `ModDown` centering trick).
    ///
    /// # Panics
    ///
    /// Panics unless `c < q`.
    pub fn add_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        assert_reduced(m, c);
        map_limb(m, SlotOp::AddScalar(c), dst, None, &[]);
    }

    /// `dst[k] = dst[k] - c mod q` for a reduced constant `c`.
    ///
    /// # Panics
    ///
    /// Panics unless `c < q`.
    pub fn sub_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        assert_reduced(m, c);
        map_limb(m, SlotOp::SubScalar(c), dst, None, &[]);
    }

    /// The centred lift of one limb into another modulus, from the limb
    /// shifted by `h = ⌊from/2⌋`: `shifted[k] = c[k] + h mod from` (`from`
    /// odd). The integer `shifted[k] − h` *is* the centred representative
    /// of `c[k]`, so `out[k] = (shifted[k] mod to) − (h mod to)` equals
    /// `to.from_i64(from.to_centered(c[k]))` with no comparison against
    /// `from/2` and no sign test — the shift `ModDown` uses, for one source
    /// limb. The first reduction is a conditional subtraction when
    /// `from ≤ 2·to` and a lazy Shoup product by 1 otherwise.
    pub fn lift_centered(&self, from: &Modulus, to: &Modulus, shifted: &[u64], out: &mut [u64]) {
        debug_assert!(from.value() % 2 == 1, "the shift centres odd moduli only");
        map_limb(to, SlotOp::Lift(from), out, Some(shifted), &[]);
    }

    /// The key-switch inner product for one raised limb, every digit in
    /// one pass: `u[k] = Σ_j d_j[k]·a_j[k]` and `v[k] = Σ_j d_j[k]·b_j[k]`,
    /// all mod q, over the digits `j` in `terms` — the multiply-accumulate
    /// kernel with a pair of outputs, any number of digits. `u` and `v` are
    /// write-only (their previous contents are ignored).
    pub fn inner_product_pair(
        &self,
        m: &Modulus,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    ) {
        assert_eq!(u.len(), v.len(), "accumulator length mismatch");
        sum_products::<true>(m, Start::Zero, terms, u, v);
    }

    /// The fused `NewLimb` (Eq. 1) inner loops over every slot.
    ///
    /// `src` is the whole flat limb-major source buffer (`source_moduli`
    /// limbs of length `n`) and `cols[j]` is target limb `j` (`n` long).
    /// The result is the reference conversion's exactly,
    /// **including the excess estimate**: `Σ_i y_i/q_i` is accumulated in
    /// ascending source-limb order so the float rounding — and therefore
    /// the recovered excess `e` — is the same on both kernel sets. The exact
    /// part is the multiply-accumulate `Σ_i y_i·Q_i^*`, reduced once (once
    /// per `ext.lazy_terms` products on the portable body), minus
    /// `ext.excess[j][e]`.
    ///
    /// Where every source and target modulus is below `2^50`, the source
    /// basis has at most 15 limbs and the CPU has AVX-512 IFMA, the whole
    /// 8-slot blocks run on lanes (`ifma`); the rest runs the portable body.
    pub fn basis_ext_block(
        &self,
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        cols: &mut [&mut [u64]],
    ) {
        let done = match ifma::extension_lanes(ext) {
            Some(lanes) => {
                lanes.new_limb(ext, src, n, cols);
                n - n % BLOCK
            }
            None => 0,
        };
        new_limb_portable(ext, src, n, done, cols);
    }
}

/// The scalar-constant contract of `add_scalar` / `sub_scalar`: a
/// constant `c ≥ q` would leave a non-canonical word (`c = 2q`) or wrap
/// (`d + q − c`), so it is refused once per call.
fn assert_reduced(m: &Modulus, c: u64) {
    assert!(c < m.value(), "scalar {c} is not reduced mod {m}");
}

/// What [`map_limb`] computes in one slot from `x` — the output's own
/// word, or the first input limb's — and, for the binary ops, `y`, the
/// second input limb's. Every operand is a canonical residue mod `q` (the
/// lift's `x` is one mod `from`), and so is every result.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SlotOp<'a> {
    /// `x + y`.
    Add,
    /// `x − y`.
    Sub,
    /// `−x`.
    Neg,
    /// `x + c`, for `c < q`.
    AddScalar(u64),
    /// `x − c`, for `c < q`.
    SubScalar(u64),
    /// `x·c`.
    Scale(ShoupPair),
    /// `(y − x)·c`: the rescale / `ModDown` combine.
    SubScale(ShoupPair),
    /// `(x mod q) − (⌊from/2⌋ mod q)` for `x < from`: the centred lift of a
    /// limb mod `from` that was shifted by `⌊from/2⌋`.
    Lift(&'a Modulus),
}

impl SlotOp<'_> {
    /// Whether the op reads a second input limb.
    fn binary(&self) -> bool {
        matches!(self, SlotOp::Add | SlotOp::Sub | SlotOp::SubScale(_))
    }

    /// How the lift brings `x < from` into `[0, 2q)` ahead of its
    /// conditional subtraction: as it is where `from ≤ 2q` (`None`), else
    /// by the lazy Shoup product `x·1` with this pair, which takes any `x`.
    pub(crate) fn lift_one(from: &Modulus, to: &Modulus) -> Option<ShoupPair> {
        (from.value() > 2 * to.value()).then(|| ShoupPair::new(to, 1))
    }
}

/// The streaming kernel every single-word pass runs: `out[k] =
/// op(x[k], y[k]) mod q` over every slot of `out`, where `x` is `out`'s
/// own word (`None`, in place) or a limb's, and `y` is read by the binary
/// ops only. Whole 8-slot blocks run on AVX-512 IFMA lanes where the CPU has
/// them and every modulus of the call (`q`, and the lift's `from`) is below
/// `2^50`; the rest takes the portable body. Canonical inputs, canonical
/// outputs: the two bodies agree bit for bit.
fn map_limb(m: &Modulus, op: SlotOp<'_>, out: &mut [u64], x: Option<&[u64]>, y: &[u64]) {
    let n = out.len();
    assert!(
        x.is_none_or(|x| x.len() == n) && (!op.binary() || y.len() == n),
        "operand length mismatch"
    );
    let from = match op {
        SlotOp::Lift(from) => from,
        _ => m,
    };
    let full = match ifma::sum_lanes([m, from]) {
        Some(lanes) => {
            lanes.map_limb(m, op, out, x, y);
            n - n % BLOCK
        }
        None => 0,
    };
    let y = if op.binary() { &y[full..] } else { y };
    map_limb_portable(m, op, &mut out[full..], x.map(|x| &x[full..]), y);
}

/// [`map_limb`]'s portable body: one `csub`, after at most one lazy Shoup
/// product, per slot. Kept out of line: inlined, it shares its loops with
/// the lanes' ragged tail, whose trip count is below 8, and LLVM stops
/// unrolling them (20% slower on a whole limb).
#[inline(never)]
fn map_limb_portable(m: &Modulus, op: SlotOp<'_>, out: &mut [u64], x: Option<&[u64]>, y: &[u64]) {
    let q = m.value();
    match op {
        SlotOp::Add => binary(out, x, y, |x, y| csub(x + y, q)),
        SlotOp::Sub => binary(out, x, y, |x, y| csub(x + q - y, q)),
        // q − x is in (0, q] for x in (0, q); csub maps q (x = 0) to 0.
        SlotOp::Neg => unary(out, x, |x| csub(q - x, q)),
        SlotOp::AddScalar(c) => unary(out, x, |x| csub(x + c, q)),
        SlotOp::SubScalar(c) => unary(out, x, |x| csub(x + q - c, q)),
        SlotOp::Scale(c) => unary(out, x, |x| csub(mul_shoup_lazy(x, c, q), q)),
        // The half-reduced difference (< 2q) goes straight into the lazy
        // multiply, which accepts any u64 multiplicand.
        SlotOp::SubScale(c) => binary(out, x, y, |x, y| csub(mul_shoup_lazy(y + q - x, c, q), q)),
        SlotOp::Lift(from) => {
            let q_minus_h = q - m.reduce(from.value() / 2);
            match SlotOp::lift_one(from, m) {
                None => unary(out, x, |x| csub(csub(x, q) + q_minus_h, q)),
                Some(one) => unary(out, x, |x| {
                    csub(csub(mul_shoup_lazy(x, one, q), q) + q_minus_h, q)
                }),
            }
        }
    }
}

/// `out[k] = f(x[k])`, `x` defaulting to `out` itself.
#[inline(always)]
fn unary(out: &mut [u64], x: Option<&[u64]>, f: impl Fn(u64) -> u64) {
    match x {
        None => {
            for d in out {
                *d = f(*d);
            }
        }
        Some(x) => {
            for (d, &x) in out.iter_mut().zip(x) {
                *d = f(x);
            }
        }
    }
}

/// `out[k] = f(x[k], y[k])`, `x` defaulting to `out` itself.
#[inline(always)]
fn binary(out: &mut [u64], x: Option<&[u64]>, y: &[u64], f: impl Fn(u64, u64) -> u64) {
    match x {
        None => {
            for (d, &y) in out.iter_mut().zip(y) {
                *d = f(*d, y);
            }
        }
        Some(x) => {
            for ((d, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *d = f(x, y);
            }
        }
    }
}

/// What each output of [`sum_products`] holds before its terms are added.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Start<'a> {
    /// Zero: the outputs are write-only.
    Zero,
    /// The output's own value, a carried residue (a multiply-accumulate).
    Out,
    /// The output's own value times the same slot of this limb (an in-place
    /// product).
    OutTimes(&'a [u64]),
}

/// One product `a[k]·b[k]` as a term of a single-output [`sum_products`],
/// which reads only `d` and `a`.
fn single<'a>(a: &'a [u64], b: &'a [u64]) -> DigitTerm<'a> {
    DigitTerm { d: a, a: b, b: &[] }
}

/// The multiply-accumulate kernel every accumulating kernel but `NewLimb`
/// runs (`NewLimb` is the same sum with a broadcast factor): for every slot
/// `k` of `u`,
/// `u[k] = start(u)[k] + Σ_t t.d[k]·t.a[k] mod q`, and with `PAIR`
/// `v[k] = start(v)[k] + Σ_t t.d[k]·t.b[k] mod q` in the same pass, each
/// `d` read once for both. Every output is reduced once per run of
/// products: [`lazy_products`] of the modulus on the portable body (one run
/// for any modulus up to 60 bits), [`crate::modular::lane_products`] on the
/// lanes, which take whole 8-slot blocks where the CPU has AVX-512 IFMA and
/// `q < 2^50`. Canonical inputs, canonical outputs: the two bodies agree
/// bit for bit.
fn sum_products<const PAIR: bool>(
    m: &Modulus,
    start: Start<'_>,
    terms: &[DigitTerm<'_>],
    u: &mut [u64],
    v: &mut [u64],
) {
    let n = u.len();
    let full = match ifma::sum_lanes([m]) {
        Some(lanes) => {
            lanes.sum_products::<PAIR>(m, start, terms, u, v);
            n - n % BLOCK
        }
        None => 0,
    };
    // The portable body takes the start as a closure, so a slot's sum
    // begins without a branch.
    let slots = full..n;
    match start {
        Start::Zero => sum_products_portable::<PAIR>(m, terms, u, v, slots, None, |_, _, _| (0, 0)),
        Start::Out => sum_products_portable::<PAIR>(m, terms, u, v, slots, None, |x, y, _| {
            (x.into(), y.into())
        }),
        Start::OutTimes(f) => {
            sum_products_portable::<PAIR>(m, terms, u, v, slots, Some(f), |x, y, f| {
                (x as u128 * f as u128, y as u128 * f as u128)
            })
        }
    }
}

/// [`sum_products`]' portable body over the slots `slots`: products summed
/// in 128 bits and Barrett-reduced once per [`lazy_products`] run. A slot's
/// sum starts at `seed(u[k], v[k], factor[k])`, one product when there is a
/// `factor`.
///
/// Eight slots at a time: the first [`GATHER`] terms have their blocks
/// gathered once per block (one bounds check per term and block), then each
/// slot sums them in registers, adds any further terms, and is reduced and
/// stored.
fn sum_products_portable<const PAIR: bool>(
    m: &Modulus,
    terms: &[DigitTerm<'_>],
    u: &mut [u64],
    v: &mut [u64],
    slots: Range<usize>,
    factor: Option<&[u64]>,
    seed: impl Fn(u64, u64, u64) -> (u128, u128),
) {
    let lazy = lazy_products(m.bits(), m.bits());
    let room = lazy - usize::from(factor.is_some());
    let full = slots.end - slots.len() % BLOCK;
    let (gathered, rest) = terms.split_at(terms.len().min(GATHER).min(room));
    let unset = &[0u64; BLOCK];
    let (mut d, mut a, mut b) = ([unset; GATHER], [unset; GATHER], [unset; GATHER]);
    let mut unused = [0u64; BLOCK];
    for k in (slots.start..full).step_by(BLOCK) {
        for (i, t) in gathered.iter().enumerate() {
            d[i] = block_of(t.d, k);
            a[i] = block_of(t.a, k);
            if PAIR {
                b[i] = block_of(t.b, k);
            }
        }
        let f = factor.map_or(unset, |f| block_of(f, k));
        let ou = block_of_mut(u, k);
        let ov = if PAIR {
            block_of_mut(v, k)
        } else {
            &mut unused
        };
        for s in 0..BLOCK {
            let (mut x, mut y) = seed(ou[s], ov[s], f[s]);
            for i in 0..gathered.len() {
                let di = d[i][s] as u128;
                x += di * a[i][s] as u128;
                if PAIR {
                    y += di * b[i][s] as u128;
                }
            }
            let room = room - gathered.len();
            (ou[s], ov[s]) = slot_sum::<PAIR>(m, lazy, rest, k + s, (x, y), room);
        }
    }
    for k in full..slots.end {
        let vk = if PAIR { v[k] } else { 0 };
        let sums = seed(u[k], vk, factor.map_or(0, |f| f[k]));
        let (uk, vk) = slot_sum::<PAIR>(m, lazy, terms, k, sums, room);
        u[k] = uk;
        if PAIR {
            v[k] = vk;
        }
    }
}

/// How many terms' blocks [`sum_products_portable`] gathers at once.
const GATHER: usize = 8;

/// One slot of [`sum_products_portable`]: `sums` plus the products of
/// `terms` at slot `k`, `room` products to go before the next reduction,
/// then reduced.
#[inline(always)]
fn slot_sum<const PAIR: bool>(
    m: &Modulus,
    lazy: usize,
    terms: &[DigitTerm<'_>],
    k: usize,
    (mut x, mut y): (u128, u128),
    mut room: usize,
) -> (u64, u64) {
    for t in terms {
        if room == 0 {
            x = m.reduce_u128(x) as u128;
            if PAIR {
                y = m.reduce_u128(y) as u128;
            }
            room = lazy;
        }
        room -= 1;
        let d = t.d[k] as u128;
        x += d * t.a[k] as u128;
        if PAIR {
            y += d * t.b[k] as u128;
        }
    }
    (m.reduce_u128(x), if PAIR { m.reduce_u128(y) } else { 0 })
}

/// [`UnrolledBackend::basis_ext_block`]'s portable body over the slots
/// `start..n` (`start` on the 8-slot grid), written to `cols[j][k]`: eight
/// slots at a time through fixed-size arrays, the ragged tail on the
/// reference loop.
fn new_limb_portable(
    ext: &BasisExtView<'_>,
    src: &[u64],
    n: usize,
    start: usize,
    cols: &mut [&mut [u64]],
) {
    let l = ext.source_moduli.len();
    let full = n - n % BLOCK;
    let head = l.min(ext.lazy_terms);
    // Full blocks: the y rows and the excess of BLOCK slots at a time
    // through fixed-size arrays, then the target limbs swept over the
    // block. The excess estimate accumulates in ascending limb order
    // per slot — identical float rounding to the reference, so the
    // recovered excess matches bit-for-bit.
    let mut y = [[0u64; BLOCK]; MAX_SOURCE_LIMBS];
    for k in (start..full).step_by(BLOCK) {
        let mut est = [0.0f64; BLOCK];
        for i in 0..l {
            let c = ext.q_tilde[i];
            let qi = ext.source_moduli[i].value();
            let inv = ext.q_inv_f64[i];
            let x = block_of(src, i * n + k);
            for s in 0..BLOCK {
                let yi = csub(mul_shoup_lazy(x[s], c, qi), qi);
                y[i][s] = yi;
                est[s] += yi as i64 as f64 * inv;
            }
        }
        let e = est.map(|x| x as i64 as usize);
        for (j, col) in cols.iter_mut().enumerate() {
            let pj = &ext.target_moduli[j];
            let row = &ext.q_star[j][..l];
            let mut acc = [0u128; BLOCK];
            accumulate_block(&mut acc, &y[..head], row);
            // Primes over 60 bits only: the products past the first
            // `lazy_terms` go in after a reduction, a run at a time.
            for (ys, ws) in y[head..l]
                .chunks(ext.lazy_terms)
                .zip(row[head..].chunks(ext.lazy_terms))
            {
                acc = acc.map(|a| pj.reduce_u128(a) as u128);
                accumulate_block(&mut acc, ys, ws);
            }
            let table = &ext.excess[j];
            let out = &mut col[k..k + BLOCK];
            for s in 0..BLOCK {
                out[s] = pj.sub(pj.reduce_u128(acc[s]), table[e[s]]);
            }
        }
    }
    // The ragged tail takes the reference loop.
    let mut y = [0u64; MAX_SOURCE_LIMBS];
    for k in full.max(start)..n {
        new_limb_slot(ext, src, n, k, &mut y, k, cols);
    }
}

/// `acc[s] += Σ_i ys[i][s]·ws[i]` for every slot `s` of a block.
#[inline(always)]
fn accumulate_block(acc: &mut [u128; BLOCK], ys: &[[u64; BLOCK]], ws: &[u64]) {
    for (yi, &w) in ys.iter().zip(ws) {
        for s in 0..BLOCK {
            acc[s] += yi[s] as u128 * w as u128;
        }
    }
}

/// The `BLOCK` words of `data` starting at `at`, as a fixed-size array (one
/// bounds check per block instead of one per word).
#[inline(always)]
fn block_of(data: &[u64], at: usize) -> &[u64; BLOCK] {
    data[at..at + BLOCK]
        .try_into()
        .expect("slice of BLOCK words")
}

/// [`block_of`], writable.
#[inline(always)]
fn block_of_mut(data: &mut [u64], at: usize) -> &mut [u64; BLOCK] {
    (&mut data[at..at + BLOCK])
        .try_into()
        .expect("slice of BLOCK words")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{generate_ntt_primes, is_prime};

    #[test]
    fn shoup_pair_matches_modulus_shoup() {
        let m = Modulus::new((1 << 50) - 27).unwrap();
        let pairs = ShoupPair::table(&m, &[1, 42, m.value() - 1]);
        for p in pairs {
            assert_eq!(p.shoup, m.shoup(p.value));
        }
    }

    #[test]
    fn lazy_mul_is_half_reduced() {
        let m = Modulus::new((1 << 61) - 1).unwrap();
        let q = m.value();
        let c = ShoupPair::new(&m, 0x1234_5678_9abc % q);
        for a in [0u64, 1, q - 1, q, 2 * q - 1, u64::MAX] {
            let r = mul_shoup_lazy(a, c, q);
            assert!(r < 2 * q, "a={a}: {r} >= 2q");
            assert_eq!(csub(r, q), m.mul(m.reduce(a), c.value));
        }
    }

    #[test]
    fn transforms_take_the_lanes_below_2_pow_50_only() {
        let n = 64usize;
        let step = 2 * n as u64;
        // The largest prime ≡ 1 (mod 2n) below 2^50, and the smallest above.
        let below = (1..)
            .map(|k| (1u64 << 50) + 1 - k * step)
            .find(|&q| is_prime(q))
            .unwrap();
        let above = (0..)
            .map(|k| (1u64 << 50) + 1 + k * step)
            .find(|&q| is_prime(q))
            .unwrap();
        assert_eq!(ifma::lanes(below, n).is_some(), ifma::detected());
        assert!(ifma::lanes(below, ifma::MIN_SIZE / 2).is_none());
        assert!(ifma::lanes(above, n).is_none());
        assert_eq!(64 - above.leading_zeros(), 51);
        for q in [below, above] {
            let table = NttTable::new(q, n).unwrap();
            let data = vec![q - 1; n];
            let (mut a, mut b) = (data.clone(), data.clone());
            ScalarBackend.ntt_forward(&table, &mut a);
            table.forward(&mut b);
            assert_eq!(a, b, "forward q={q}");
            ScalarBackend.ntt_inverse(&table, &mut a);
            table.inverse(&mut b);
            assert_eq!((&a, &b), (&data, &data), "inverse q={q}");
        }
    }

    /// `modular::lane_products`' bound on the kernel itself: the largest
    /// prime below 2^50, every operand `q − 1`, sums of 15, 16 and 17
    /// products (one run, a full run, a run and a carried residue) and past
    /// two runs, on two whole blocks and a ragged tail.
    #[test]
    fn multiply_accumulate_holds_at_the_2_pow_50_edge() {
        let q = (1..1u64 << 50).rev().find(|&q| is_prime(q)).unwrap();
        let m = Modulus::new(q).unwrap();
        assert_eq!(ifma::sum_lanes([&m]).is_some(), ifma::detected());
        let above = ((1u64 << 50) + 1..).find(|&q| is_prime(q)).unwrap();
        assert!(ifma::sum_lanes([&m, &Modulus::new(above).unwrap()]).is_none());
        let n = 19;
        let full = vec![q - 1; n];
        for count in [1usize, 15, 16, 17, 33] {
            let terms = vec![
                DigitTerm {
                    d: &full,
                    a: &full,
                    b: &full
                };
                count
            ];
            let (mut u, mut v) = (vec![u64::MAX; n], vec![u64::MAX; n]);
            UnrolledBackend.inner_product_pair(&m, &terms, &mut u, &mut v);
            // (q − 1)² ≡ 1, so each sum is its term count.
            let expect = vec![count as u64; n];
            assert_eq!((&u, &v), (&expect, &expect), "{count} terms");
        }
        let mut product = full.clone();
        UnrolledBackend.pointwise_mul(&m, &mut product, &full);
        assert_eq!(product, vec![1; n]);
        let mut product = vec![u64::MAX; n];
        UnrolledBackend.pointwise_mul_into(&m, &full, &full, &mut product);
        assert_eq!(product, vec![1; n]);
        let mut acc = full.clone();
        UnrolledBackend.pointwise_mul_add(&m, &mut acc, &full, &full);
        assert_eq!(acc, vec![0; n]);
    }

    #[test]
    fn unrolled_matches_scalar_on_odd_sizes() {
        // Below the block width, the lone block, and the first sizes with
        // and without the lone radix-2 sweep.
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let q = generate_ntt_primes(1, 40, n)[0];
            let table = NttTable::new(q, n).unwrap();
            let data: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
            let mut a = data.clone();
            let mut b = data.clone();
            ScalarBackend.ntt_forward(&table, &mut a);
            table.forward(&mut b);
            assert_eq!(a, b, "forward n={n}");
            ScalarBackend.ntt_inverse(&table, &mut a);
            table.inverse(&mut b);
            assert_eq!(a, b, "inverse n={n}");
            assert_eq!(a, data, "round trip n={n}");
        }
    }
}
