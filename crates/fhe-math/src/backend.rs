//! Pluggable kernel backends for the hot ring kernels.
//!
//! The MAD paper's thesis is that FHE throughput is decided by how the hot
//! kernels — negacyclic NTT/iNTT butterflies, Barrett/Shoup modular
//! multiplication, and the `NewLimb` basis-extension inner products — move
//! data. This module makes those kernels *pluggable*: every call site that
//! used to open-code a modmul loop now dispatches through the
//! [`KernelBackend`] trait, selected per [`NttTable`]/[`crate::rns::RnsBasis`] (and, one
//! layer up, per `ckks::CkksContext`) at construction time.
//!
//! Two implementations ship today:
//!
//! - [`ScalarBackend`] — the reference: one obvious loop per kernel, every
//!   butterfly and pointwise value fully reduced in `[0, q)` at every step.
//! - [`UnrolledBackend`] — transforms built around registers instead of
//!   sweeps, with **lazy (deferred) reduction**: radix-4 sweeps carry four
//!   words through two stages per load and store, the three short stages
//!   run on eight-word blocks held in registers, and operands stay in
//!   `[0, 4q)` (forward, Harvey's butterfly) or `[0, 2q)` (inverse) across
//!   stages — which is why [`crate::modular::MAX_MODULUS_BITS`] is 62 — with
//!   the reduction to `[0, q)` and the inverse's `N⁻¹` folded into the last
//!   sweep's stores. x86-64 has no 64×64→128 vector multiply, but AVX-512
//!   IFMA multiplies 52-bit lanes: on a CPU with `avx512f` and
//!   `avx512ifma`, a transform with `q < 2^50` (so `4q < 2^52`) and
//!   `N ≥ 16` runs the same schedule eight lanes at a time, reading the
//!   same twiddle tables (the `ifma` module). Every other transform runs
//!   the portable scalar `mul`/`imul`/`cmov` loops, whose floor is three
//!   multiplies per butterfly on one port. The choice is made per call
//!   from the CPU and the modulus; it is not a backend of its own.
//!
//! The two *accumulating* kernels — the `NewLimb` sum `Σ_i y_i·Q_i^*` of a
//! basis extension and the key-switch inner product `Σ_j d_j·k_j` — defer
//! reduction in both backends: products are added up in 128 bits and the
//! sum goes through Barrett **once per output**, not once per term
//! ([`crate::modular::lazy_products`] says how many terms fit; only primes
//! over 60 bits ever need a second reduction). What the unrolled backend
//! adds there is shape, not arithmetic: eight slots of a basis extension
//! through fixed-size arrays, and the digits of an inner product unrolled
//! at compile time so their limb pointers and both sums stay in registers.
//!
//! Both backends compute the exact same mathematical results and emit fully
//! reduced canonical residues, so their outputs are **bit-identical** — the
//! `backend_identity` test suites assert this end to end (NTT round-trips,
//! key switching, rescaling, hoisted rotation, a full HELR step), the same
//! way the `parallel_identity` suites gate the limb-parallel kernels.
//!
//! # Selection
//!
//! [`resolve`] picks a backend: an explicit caller choice (e.g.
//! `CkksContext::with_backend`), else the built-in default (the best
//! available implementation, currently [`UnrolledBackend`]). Nothing
//! outside the program selects one; the identity suites pin both kinds
//! explicitly inside one process.
//!
//! # Telemetry contract
//!
//! Backends perform **no telemetry recording**. Butterfly, multiplication,
//! and basis-extension counters are recorded by the dispatching layer
//! ([`NttTable::forward`], `BasisExtender::extend_flat`, the `RnsPoly`
//! ops) in units of *logical* operations, so measured counts are identical
//! across backends by construction — a blocked backend must not inflate
//! counters with per-block increments. The `backend_counters_identical`
//! regression test pins this.
//!
//! # Adding a backend
//!
//! Implement [`KernelBackend`] (the contract for each method is documented
//! on the trait), add a [`BackendKind`] variant wired into
//! [`BackendKind::instance`] and [`BackendKind::name`], and the whole
//! stack — `RnsPoly`, key switching, the serving runtime — picks it up
//! through construction-time selection. A GPU or `std::simd` backend is a
//! single new impl; correctness is gated by adding its kind to the
//! existing `backend_identity` suites.

use crate::ifma;
use crate::modular::{lazy_products, Modulus, MAX_MODULUS_BITS};
use crate::ntt::NttTable;
use crate::rns::MAX_SOURCE_LIMBS;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

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
/// [`KernelBackend::basis_ext_block`] so backends can fuse the `NewLimb`
/// inner loops without `rns.rs` exposing its fields.
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

/// The pluggable hot-kernel implementation.
///
/// Every method must produce **fully reduced canonical residues**
/// (`< q`) in its outputs, regardless of internal representation — this is
/// what makes backends interchangeable bit-for-bit. Inputs are always
/// canonical. Backends must not record telemetry (see the module docs).
pub trait KernelBackend: Send + Sync + fmt::Debug {
    /// Stable lowercase identifier (`"scalar"`, `"unrolled"`), used for
    /// the serving `Hello` reply, metrics labels, and bench IDs.
    fn name(&self) -> &'static str;

    /// In-place forward negacyclic NTT over one limb (Cooley–Tukey
    /// decimation-in-time, bit-reversed output), using `table`'s
    /// precomputed twiddles. `data.len() == table.size()`.
    fn ntt_forward(&self, table: &NttTable, data: &mut [u64]);

    /// In-place inverse negacyclic NTT (Gentleman–Sande, bit-reversed
    /// input, natural output), including the final `N^{-1}` scaling.
    fn ntt_inverse(&self, table: &NttTable, data: &mut [u64]);

    /// `dst[k] = dst[k] + src[k] mod q`.
    fn pointwise_add(&self, m: &Modulus, dst: &mut [u64], src: &[u64]);

    /// `dst[k] = dst[k] - src[k] mod q`.
    fn pointwise_sub(&self, m: &Modulus, dst: &mut [u64], src: &[u64]);

    /// `dst[k] = -dst[k] mod q`.
    fn pointwise_neg(&self, m: &Modulus, dst: &mut [u64]);

    /// `dst[k] = dst[k] · src[k] mod q` (Barrett).
    fn pointwise_mul(&self, m: &Modulus, dst: &mut [u64], src: &[u64]);

    /// `out[k] = a[k] · b[k] mod q`, leaving both inputs untouched.
    fn pointwise_mul_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]);

    /// The fused multiply-accumulate `acc[k] = acc[k] + a[k] · b[k] mod q`:
    /// one pass and one Barrett reduction per slot where a product into a
    /// temporary and an add would make two of each.
    fn pointwise_mul_add(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]);

    /// `dst[k] = dst[k] · c mod q` with a precomputed Shoup constant.
    fn scale_shoup(&self, m: &Modulus, dst: &mut [u64], c: ShoupPair);

    /// The fused rescale/`ModDown` combine:
    /// `dst[k] = (minuend[k] - dst[k]) · c mod q`.
    fn sub_scale_shoup(&self, m: &Modulus, minuend: &[u64], dst: &mut [u64], c: ShoupPair);

    /// `dst[k] = dst[k] + c mod q` for a reduced constant `c` (the
    /// `ModDown` centering trick).
    fn add_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64);

    /// `dst[k] = dst[k] - c mod q` for a reduced constant `c`.
    fn sub_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64);

    /// The key-switch inner product for one raised limb, every digit in
    /// one pass: `u[k] = Σ_j d_j[k]·a_j[k]` and `v[k] = Σ_j d_j[k]·b_j[k]`,
    /// all mod q, over the digits `j` in `terms`. `u` and `v` are
    /// write-only (their previous contents are ignored). Each sum is
    /// accumulated in 128 bits and reduced once — once per
    /// [`lazy_products`]`(q.bits(), q.bits())` digits when the modulus is
    /// wide enough that all of them would not fit.
    fn inner_product_pair(
        &self,
        m: &Modulus,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    );

    /// The fused `NewLimb` (Eq. 1) inner loops over a block of slots.
    ///
    /// `src` is the whole flat limb-major source buffer (`source_moduli`
    /// limbs of length `n`); `range` is the slot block to convert and
    /// `cols[j]` is the matching window (`range.len()` long) into target
    /// limb `j`. Implementations must reproduce the scalar conversion
    /// exactly, **including the excess estimate**: `Σ_i y_i/q_i` must be
    /// accumulated in ascending source-limb order so the float rounding —
    /// and therefore the recovered excess `e` — is identical across
    /// backends. The exact part is `Σ_i y_i·Q_i^*` summed in 128 bits and
    /// reduced once per `ext.lazy_terms` products, minus `ext.excess[j][e]`.
    fn basis_ext_block(
        &self,
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        range: Range<usize>,
        cols: &mut [&mut [u64]],
    );
}

/// Named backend selector (the construction-time configuration surface).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The original fully-reduced scalar loops.
    Scalar,
    /// Register-blocked radix-4 transforms with lazy reduction.
    Unrolled,
}

impl BackendKind {
    /// The shared instance of this backend.
    pub fn instance(self) -> Arc<dyn KernelBackend> {
        static SCALAR: OnceLock<Arc<dyn KernelBackend>> = OnceLock::new();
        static UNROLLED: OnceLock<Arc<dyn KernelBackend>> = OnceLock::new();
        match self {
            Self::Scalar => SCALAR.get_or_init(|| Arc::new(ScalarBackend)).clone(),
            Self::Unrolled => UNROLLED.get_or_init(|| Arc::new(UnrolledBackend)).clone(),
        }
    }

    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Unrolled => "unrolled",
        }
    }
}

/// The best implementation available on this build (the default when the
/// caller picks none).
pub const fn best_available() -> BackendKind {
    BackendKind::Unrolled
}

/// Resolves the backend to use: the explicit `prefer`, else
/// [`best_available`].
pub fn resolve(prefer: Option<BackendKind>) -> Arc<dyn KernelBackend> {
    prefer.unwrap_or(best_available()).instance()
}

/// The process-default backend ([`resolve`] with no explicit preference).
pub fn default_backend() -> Arc<dyn KernelBackend> {
    resolve(None)
}

// ---------------------------------------------------------------------------
// Scalar backend: the original fully-reduced loops.
// ---------------------------------------------------------------------------

/// The reference kernels: the one obvious loop for each, butterflies and
/// pointwise values fully reduced at every step.
///
/// This is the implementation the blocked, lazy-reduction backends are
/// gated against; it favors obviousness over speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl KernelBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn ntt_forward(&self, table: &NttTable, data: &mut [u64]) {
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

    fn ntt_inverse(&self, table: &NttTable, data: &mut [u64]) {
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

    fn pointwise_add(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.add(*d, s);
        }
    }

    fn pointwise_sub(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.sub(*d, s);
        }
    }

    fn pointwise_neg(&self, m: &Modulus, dst: &mut [u64]) {
        for d in dst.iter_mut() {
            *d = m.neg(*d);
        }
    }

    fn pointwise_mul(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = m.mul(*d, s);
        }
    }

    fn pointwise_mul_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = m.mul(x, y);
        }
    }

    fn pointwise_mul_add(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        for ((c, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *c = m.mul_add(x, y, *c);
        }
    }

    fn scale_shoup(&self, m: &Modulus, dst: &mut [u64], c: ShoupPair) {
        for d in dst.iter_mut() {
            *d = m.mul_shoup(*d, c.value, c.shoup);
        }
    }

    fn sub_scale_shoup(&self, m: &Modulus, minuend: &[u64], dst: &mut [u64], c: ShoupPair) {
        for (d, &s) in dst.iter_mut().zip(minuend) {
            *d = m.mul_shoup(m.sub(s, *d), c.value, c.shoup);
        }
    }

    fn add_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        for d in dst.iter_mut() {
            *d = m.add(*d, c);
        }
    }

    fn sub_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        for d in dst.iter_mut() {
            *d = m.sub(*d, c);
        }
    }

    fn inner_product_pair(
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

    fn basis_ext_block(
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
    // in ascending limb order (see the trait contract). y_i < 2^62, so the
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
// Unrolled backend: register-blocked radix-4 transforms, lazy reduction.
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

/// Register-blocked radix-4 transforms with lazy reduction, and the blocked
/// accumulating kernels.
///
/// Transform invariants: the forward butterflies keep every word in
/// `[0, 4q)` (Harvey), the inverse ones in `[0, 2q)`; both are legal
/// because `q < 2^62`. The reduction to canonical `[0, q)` rides on the
/// stores of the last sweep, and so does the inverse's `N⁻¹`. Transforms
/// with `q < 2^50` and `N ≥ 16` run on AVX-512 IFMA lanes where the CPU
/// has them, with the same invariants and bit-identical output.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrolledBackend;

impl UnrolledBackend {
    /// [`KernelBackend::ntt_forward`] without the canonical reduction: the
    /// output is congruent to it with every word in `[0, 4q)`. Exposed so
    /// the range invariant is directly testable (`backend_proptests`), on
    /// whichever path the modulus and the CPU choose.
    pub fn ntt_forward_lazy(&self, table: &NttTable, data: &mut [u64]) {
        forward(table, data, false);
    }

    /// [`KernelBackend::ntt_inverse`] (`N⁻¹` included) without the
    /// canonical reduction: every word in `[0, 2q)`. Testable range
    /// invariant, like [`UnrolledBackend::ntt_forward_lazy`].
    pub fn ntt_inverse_lazy(&self, table: &NttTable, data: &mut [u64]) {
        inverse(table, data, false);
    }
}

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

impl KernelBackend for UnrolledBackend {
    fn name(&self) -> &'static str {
        "unrolled"
    }

    fn ntt_forward(&self, table: &NttTable, data: &mut [u64]) {
        forward(table, data, true);
    }

    fn ntt_inverse(&self, table: &NttTable, data: &mut [u64]) {
        inverse(table, data, true);
    }

    fn pointwise_add(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        let q = m.value();
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = csub(*d + s, q);
        }
    }

    fn pointwise_sub(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        let q = m.value();
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = csub(*d + q - s, q);
        }
    }

    fn pointwise_neg(&self, m: &Modulus, dst: &mut [u64]) {
        let q = m.value();
        for d in dst.iter_mut() {
            // q - x is in (0, q] for x in (0, q); csub maps q (x = 0) to 0.
            *d = csub(q - *d, q);
        }
    }

    fn pointwise_mul(&self, m: &Modulus, dst: &mut [u64], src: &[u64]) {
        let mut db = dst.chunks_exact_mut(BLOCK);
        let mut sb = src.chunks_exact(BLOCK);
        for (dc, sc) in (&mut db).zip(&mut sb) {
            for k in 0..BLOCK {
                dc[k] = m.mul(dc[k], sc[k]);
            }
        }
        for (d, &s) in db.into_remainder().iter_mut().zip(sb.remainder()) {
            *d = m.mul(*d, s);
        }
    }

    fn pointwise_mul_into(&self, m: &Modulus, a: &[u64], b: &[u64], out: &mut [u64]) {
        let mut ob = out.chunks_exact_mut(BLOCK);
        let mut ab = a.chunks_exact(BLOCK);
        let mut bb = b.chunks_exact(BLOCK);
        for ((oc, ac), bc) in (&mut ob).zip(&mut ab).zip(&mut bb) {
            for k in 0..BLOCK {
                oc[k] = m.mul(ac[k], bc[k]);
            }
        }
        for ((o, &x), &y) in ob
            .into_remainder()
            .iter_mut()
            .zip(ab.remainder())
            .zip(bb.remainder())
        {
            *o = m.mul(x, y);
        }
    }

    fn pointwise_mul_add(&self, m: &Modulus, acc: &mut [u64], a: &[u64], b: &[u64]) {
        let mut cb = acc.chunks_exact_mut(BLOCK);
        let mut ab = a.chunks_exact(BLOCK);
        let mut bb = b.chunks_exact(BLOCK);
        for ((cc, ac), bc) in (&mut cb).zip(&mut ab).zip(&mut bb) {
            for k in 0..BLOCK {
                cc[k] = m.mul_add(ac[k], bc[k], cc[k]);
            }
        }
        for ((c, &x), &y) in cb
            .into_remainder()
            .iter_mut()
            .zip(ab.remainder())
            .zip(bb.remainder())
        {
            *c = m.mul_add(x, y, *c);
        }
    }

    fn scale_shoup(&self, m: &Modulus, dst: &mut [u64], c: ShoupPair) {
        let q = m.value();
        for d in dst.iter_mut() {
            *d = csub(mul_shoup_lazy(*d, c, q), q);
        }
    }

    fn sub_scale_shoup(&self, m: &Modulus, minuend: &[u64], dst: &mut [u64], c: ShoupPair) {
        let q = m.value();
        for (d, &s) in dst.iter_mut().zip(minuend) {
            // Feed the half-reduced difference (< 2q) straight into the lazy
            // multiply — mul_shoup_lazy accepts any u64 multiplicand.
            *d = csub(mul_shoup_lazy(s + q - *d, c, q), q);
        }
    }

    fn add_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        let q = m.value();
        for d in dst.iter_mut() {
            *d = csub(*d + c, q);
        }
    }

    fn sub_scalar(&self, m: &Modulus, dst: &mut [u64], c: u64) {
        let q = m.value();
        for d in dst.iter_mut() {
            *d = csub(*d + q - c, q);
        }
    }

    fn inner_product_pair(
        &self,
        m: &Modulus,
        terms: &[DigitTerm<'_>],
        u: &mut [u64],
        v: &mut [u64],
    ) {
        // The digit counts of practical parameter sets get a loop unrolled
        // over the digits, their 3β limb pointers and the two sums all in
        // registers; the rest take the reference loop.
        match terms.len() {
            1 => inner_product_unrolled::<1>(m, terms, u, v),
            2 => inner_product_unrolled::<2>(m, terms, u, v),
            3 => inner_product_unrolled::<3>(m, terms, u, v),
            4 => inner_product_unrolled::<4>(m, terms, u, v),
            _ => ScalarBackend.inner_product_pair(m, terms, u, v),
        }
    }

    fn basis_ext_block(
        &self,
        ext: &BasisExtView<'_>,
        src: &[u64],
        n: usize,
        range: Range<usize>,
        cols: &mut [&mut [u64]],
    ) {
        let l = ext.source_moduli.len();
        let base = range.start;
        let full = range.end - range.len() % BLOCK;
        let head = l.min(ext.lazy_terms);
        // Full blocks: the y rows and the excess of BLOCK slots at a time
        // through fixed-size arrays, then the target limbs swept over the
        // block. The excess estimate accumulates in ascending limb order
        // per slot — identical float rounding to the scalar path (trait
        // contract), so the recovered excess matches bit-for-bit.
        let mut y = [[0u64; BLOCK]; MAX_SOURCE_LIMBS];
        for k in (range.start..full).step_by(BLOCK) {
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
                let out = &mut col[k - base..k - base + BLOCK];
                for s in 0..BLOCK {
                    out[s] = pj.sub(pj.reduce_u128(acc[s]), table[e[s]]);
                }
            }
        }
        // The ragged tail takes the reference loop.
        let mut y = [0u64; MAX_SOURCE_LIMBS];
        for k in full..range.end {
            new_limb_slot(ext, src, n, k, &mut y, k - base, cols);
        }
    }
}

/// [`KernelBackend::inner_product_pair`] for a digit count known at compile
/// time (`BETA ≤ 7` products always fit one 128-bit sum, see
/// [`lazy_products`]).
fn inner_product_unrolled<const BETA: usize>(
    m: &Modulus,
    terms: &[DigitTerm<'_>],
    u: &mut [u64],
    v: &mut [u64],
) {
    const { assert!(BETA <= lazy_products(MAX_MODULUS_BITS, MAX_MODULUS_BITS)) };
    let n = u.len();
    assert_eq!(v.len(), n, "accumulator length mismatch");
    let d: [&[u64]; BETA] = std::array::from_fn(|j| &terms[j].d[..n]);
    let a: [&[u64]; BETA] = std::array::from_fn(|j| &terms[j].a[..n]);
    let b: [&[u64]; BETA] = std::array::from_fn(|j| &terms[j].b[..n]);
    for k in 0..n {
        let (mut su, mut sv) = (0u128, 0u128);
        for j in 0..BETA {
            let dj = d[j][k] as u128;
            su += dj * a[j][k] as u128;
            sv += dj * b[j][k] as u128;
        }
        u[k] = m.reduce_u128(su);
        v[k] = m.reduce_u128(sv);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::{generate_ntt_primes, is_prime};

    #[test]
    fn selection_precedence_and_names() {
        assert_eq!(
            resolve(Some(BackendKind::Scalar)).name(),
            "scalar",
            "explicit preference must win"
        );
        assert_eq!(BackendKind::Scalar.name(), "scalar");
        assert_eq!(BackendKind::Unrolled.name(), "unrolled");
    }

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
            let ts = NttTable::with_backend(q, n, BackendKind::Scalar.instance()).unwrap();
            let tu = NttTable::with_backend(q, n, BackendKind::Unrolled.instance()).unwrap();
            let data = vec![q - 1; n];
            let (mut a, mut b) = (data.clone(), data.clone());
            ts.forward(&mut a);
            tu.forward(&mut b);
            assert_eq!(a, b, "forward q={q}");
            ts.inverse(&mut a);
            tu.inverse(&mut b);
            assert_eq!((&a, &b), (&data, &data), "inverse q={q}");
        }
    }

    #[test]
    fn unrolled_matches_scalar_on_odd_sizes() {
        // Below the block width, the lone block, and the first sizes with
        // and without the lone radix-2 sweep.
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let q = generate_ntt_primes(1, 40, n)[0];
            let ts = NttTable::with_backend(q, n, BackendKind::Scalar.instance()).unwrap();
            let tu = NttTable::with_backend(q, n, BackendKind::Unrolled.instance()).unwrap();
            let data: Vec<u64> = (0..n as u64).map(|i| (i * 7 + 3) % q).collect();
            let mut a = data.clone();
            let mut b = data.clone();
            ts.forward(&mut a);
            tu.forward(&mut b);
            assert_eq!(a, b, "forward n={n}");
            ts.inverse(&mut a);
            tu.inverse(&mut b);
            assert_eq!(a, b, "inverse n={n}");
            assert_eq!(a, data, "round trip n={n}");
        }
    }
}
