//! Feature-gated op-count, traffic, and memory-access-trace telemetry for
//! the ring kernels.
//!
//! The MAD paper's conclusions rest on SimFHE's analytical op counts and
//! DRAM-transfer estimates (`simfhe::primitives`); this module measures what
//! the functional kernels *actually* execute so the two can be
//! cross-validated (the `validate` and `simfhe trace` binaries in
//! `crates/core`). Counters follow the paper's accounting granularity:
//!
//! - **Modular multiplications / additions** (Section 4.1: "SimFHE tracks
//!   compute at the modular arithmetic level"). Butterflies count as
//!   1 mult + 2 adds, matching `SchemeParams::ntt_ops`.
//! - **Whole-limb NTT / iNTT transforms** — the limb-wise kernel
//!   invocations whose count the model predicts exactly (e.g. `ModUp` at
//!   `ℓ` limbs runs `d` inverse and `ℓ + k − d` forward transforms).
//! - **Basis-extension terms** — the `src·dst` `NewLimb` inner-product
//!   terms of Eq. 1, the slot-wise kernel's work measure.
//! - **Transfer bytes** — a DRAM-traffic proxy: every instrumented kernel
//!   records the limb-buffer bytes it streams (reads/writes). Separately,
//!   [`crate::scratch::ScratchPool`] records leased bytes
//!   ([`Snapshot::scratch_lease_bytes`]) so working-set pressure and
//!   streamed traffic can be told apart. See DESIGN.md for how this maps
//!   onto the paper's per-`CachingLevel` DRAM model.
//!
//! With the `telemetry` cargo feature **off** (the default) every recording
//! function is an empty `#[inline(always)]` stub and [`Span`] is a
//! zero-sized type: the kernels compile exactly as before. With the feature
//! **on**, counters are process-global relaxed atomics — global rather than
//! thread-local because [`crate::parallel`] runs limb kernels on scoped
//! helper threads whose counts must aggregate. Recording happens in *bulk*
//! at kernel loop boundaries (once per transform, once per `extend_flat`),
//! never per scalar operation, so even the instrumented build stays cheap.
//!
//! # Spans
//!
//! A [`Span`] snapshots the counters when opened and records the delta
//! under its name when dropped. Spans are **inclusive**: a nested span's
//! ops are also attributed to every enclosing span (`KeySwitch` contains
//! its `ModUp` and `ModDown` children). [`reset`] zeroes the counters and
//! clears the span table.
//!
//! ```
//! use fhe_math::telemetry;
//!
//! telemetry::reset();
//! {
//!     let _s = telemetry::span("demo");
//!     telemetry::record_ops(10, 20);
//! }
//! let snap = telemetry::snapshot();
//! # if telemetry::enabled() {
//! assert_eq!(snap.mults, 10);
//! assert_eq!(telemetry::spans()[0].total.adds, 20);
//! # }
//! ```
//!
//! # Memory-access tracing
//!
//! On top of the aggregate counters, the module can record an *ordered
//! trace* of limb-buffer touches for cache-replay simulation
//! (`simfhe::trace`). Each [`RnsPoly`](crate::poly::RnsPoly) carries an
//! [`OperandTag`] — a stable [`new_operand_id`] plus an [`OperandClass`]
//! matching the paper's DRAM categories (ciphertext limb, switching-key
//! digit, plaintext constant, scratch) — and the instrumented kernels emit
//! one [`TraceRecord::Touch`] per operand streamed. Because kernels write
//! their outputs *before* the `ckks` layer wraps them in a ciphertext or
//! key, classes may be assigned late: [`record_retag`] appends a
//! [`TraceRecord::Retag`] and replay resolves each id to its **last**
//! recorded class.
//!
//! Tracing is runtime-gated on top of the compile-time feature: records
//! are only buffered between [`trace_start`] and [`trace_stop`], so the
//! plain `telemetry` configuration (op-count validation) never pays for
//! trace storage. [`Span`]s emit [`TraceRecord::SpanBegin`]/
//! [`TraceRecord::SpanEnd`] pairs with microsecond timestamps while a
//! trace is active, which `simfhe trace` exports as Chrome trace-event
//! JSON for Perfetto.

/// Whether the `telemetry` cargo feature is compiled in.
pub const fn enabled() -> bool {
    cfg!(feature = "telemetry")
}

/// A point-in-time copy of every counter (also used for span deltas).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Modular multiplications.
    pub mults: u64,
    /// Modular additions/subtractions.
    pub adds: u64,
    /// Whole-limb forward NTT transforms.
    pub ntt_fwd: u64,
    /// Whole-limb inverse NTT transforms.
    pub ntt_inv: u64,
    /// Basis-extension (`NewLimb`) inner-product terms: `src·dst` per
    /// coefficient converted.
    pub ext_terms: u64,
    /// Limb-buffer bytes read by instrumented kernels.
    pub bytes_read: u64,
    /// Limb-buffer bytes written by instrumented kernels.
    pub bytes_written: u64,
    /// Buffers leased from a [`crate::ScratchPool`].
    pub scratch_leases: u64,
    /// Total bytes of those leases (working-set pressure, *not* streamed
    /// traffic — see [`Snapshot::transfer_bytes`] for that).
    pub scratch_lease_bytes: u64,
}

impl Snapshot {
    /// Total modular operations (`mults + adds`), the paper's `ops`.
    pub fn ops(&self) -> u64 {
        self.mults + self.adds
    }

    /// Total whole-limb transforms (`ntt_fwd + ntt_inv`).
    pub fn transforms(&self) -> u64 {
        self.ntt_fwd + self.ntt_inv
    }

    /// Total limb-buffer bytes streamed by instrumented kernels
    /// (`bytes_read + bytes_written`) — the DRAM-traffic proxy. Scratch
    /// leases are accounted separately in
    /// [`scratch_lease_bytes`](Snapshot::scratch_lease_bytes).
    pub fn transfer_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Counter-wise difference `self − earlier`, saturating at zero (a
    /// [`reset`] between the two snapshots must not panic).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            mults: self.mults.saturating_sub(earlier.mults),
            adds: self.adds.saturating_sub(earlier.adds),
            ntt_fwd: self.ntt_fwd.saturating_sub(earlier.ntt_fwd),
            ntt_inv: self.ntt_inv.saturating_sub(earlier.ntt_inv),
            ext_terms: self.ext_terms.saturating_sub(earlier.ext_terms),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            scratch_leases: self.scratch_leases.saturating_sub(earlier.scratch_leases),
            scratch_lease_bytes: self
                .scratch_lease_bytes
                .saturating_sub(earlier.scratch_lease_bytes),
        }
    }

    /// Counter-wise sum.
    pub fn accumulate(&mut self, other: &Snapshot) {
        self.mults += other.mults;
        self.adds += other.adds;
        self.ntt_fwd += other.ntt_fwd;
        self.ntt_inv += other.ntt_inv;
        self.ext_terms += other.ext_terms;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.scratch_leases += other.scratch_leases;
        self.scratch_lease_bytes += other.scratch_lease_bytes;
    }
}

/// The paper's DRAM-traffic operand categories (Table 2 columns
/// `ct_read`/`ct_write`/`key_read`/`pt_read`), used to attribute each
/// traced memory touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperandClass {
    /// A ciphertext component (`c_0`/`c_1`) or tensor leg.
    Ciphertext,
    /// Switching-key material (digit pairs, public key, embedded secret).
    Key,
    /// An encoded plaintext / constant.
    Plaintext,
    /// An untagged intermediate (raised digits, pool temporaries).
    Scratch,
}

impl OperandClass {
    /// Stable lowercase name (used in exports and reports).
    pub fn name(self) -> &'static str {
        match self {
            OperandClass::Ciphertext => "ct",
            OperandClass::Key => "key",
            OperandClass::Plaintext => "pt",
            OperandClass::Scratch => "scratch",
        }
    }
}

/// The identity of one traced limb buffer: a stable id (unique per
/// allocation, from [`new_operand_id`]) plus its current [`OperandClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OperandTag {
    /// Paper traffic category.
    pub class: OperandClass,
    /// Process-unique buffer identity.
    pub id: u64,
}

impl OperandTag {
    /// A fresh scratch-class tag with a new unique id — the birth state of
    /// every polynomial until a `ckks` wrapper reclassifies it.
    pub fn scratch() -> Self {
        OperandTag {
            class: OperandClass::Scratch,
            id: new_operand_id(),
        }
    }
}

/// One event in a recorded memory-access trace (in program order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    /// A kernel streamed `bytes` of the operand starting at byte `offset`
    /// within its buffer.
    Touch {
        /// Operand identity at touch time (class may be superseded by a
        /// later [`TraceRecord::Retag`]).
        tag: OperandTag,
        /// True for a write, false for a read.
        write: bool,
        /// Byte offset of the touched range within the operand.
        offset: u64,
        /// Length of the touched range in bytes.
        bytes: u64,
    },
    /// Operand `id` was reclassified (e.g. a scratch output wrapped into a
    /// ciphertext). Replay resolves each id to its *last* recorded class.
    Retag {
        /// The operand being reclassified.
        id: u64,
        /// Its new class.
        class: OperandClass,
    },
    /// An RAII [`Span`] named `name` opened `ts_us` microseconds after
    /// [`trace_start`].
    SpanBegin {
        /// Span name.
        name: &'static str,
        /// Microseconds since the trace started.
        ts_us: u64,
    },
    /// The matching span close.
    SpanEnd {
        /// Span name.
        name: &'static str,
        /// Microseconds since the trace started.
        ts_us: u64,
    },
}

#[cfg(feature = "telemetry")]
mod state {
    use super::{Snapshot, TraceRecord};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
    use std::sync::Mutex;
    use std::time::Instant;

    pub(super) static MULTS: AtomicU64 = AtomicU64::new(0);
    pub(super) static ADDS: AtomicU64 = AtomicU64::new(0);
    pub(super) static NTT_FWD: AtomicU64 = AtomicU64::new(0);
    pub(super) static NTT_INV: AtomicU64 = AtomicU64::new(0);
    pub(super) static EXT_TERMS: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES_READ: AtomicU64 = AtomicU64::new(0);
    pub(super) static BYTES_WRITTEN: AtomicU64 = AtomicU64::new(0);
    pub(super) static SCRATCH_LEASES: AtomicU64 = AtomicU64::new(0);
    pub(super) static SCRATCH_BYTES: AtomicU64 = AtomicU64::new(0);
    pub(super) static KEY_EXPANSIONS: AtomicU64 = AtomicU64::new(0);
    pub(super) static KEY_EXPANSION_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Aggregated span deltas keyed by span name.
    pub(super) static SPANS: Mutex<BTreeMap<&'static str, (u64, Snapshot)>> =
        Mutex::new(BTreeMap::new());

    /// Monotonic operand-id source (0 is reserved as "untagged").
    pub(super) static NEXT_OPERAND_ID: AtomicU64 = AtomicU64::new(1);

    /// Fast path: is a trace being recorded right now?
    pub(super) static TRACE_ON: AtomicBool = AtomicBool::new(false);

    pub(super) struct TraceState {
        pub start: Instant,
        pub records: Vec<TraceRecord>,
    }

    pub(super) static TRACE: Mutex<Option<TraceState>> = Mutex::new(None);

    pub(super) fn add(counter: &AtomicU64, v: u64) {
        if v != 0 {
            counter.fetch_add(v, Relaxed);
        }
    }

    pub(super) fn push_trace(record: TraceRecord) {
        if let Some(ts) = TRACE.lock().expect("poisoned").as_mut() {
            ts.records.push(record);
        }
    }

    pub(super) fn trace_elapsed_us() -> u64 {
        TRACE
            .lock()
            .expect("poisoned")
            .as_ref()
            .map(|ts| ts.start.elapsed().as_micros() as u64)
            .unwrap_or(0)
    }

    pub(super) fn read_all() -> Snapshot {
        Snapshot {
            mults: MULTS.load(Relaxed),
            adds: ADDS.load(Relaxed),
            ntt_fwd: NTT_FWD.load(Relaxed),
            ntt_inv: NTT_INV.load(Relaxed),
            ext_terms: EXT_TERMS.load(Relaxed),
            bytes_read: BYTES_READ.load(Relaxed),
            bytes_written: BYTES_WRITTEN.load(Relaxed),
            scratch_leases: SCRATCH_LEASES.load(Relaxed),
            scratch_lease_bytes: SCRATCH_BYTES.load(Relaxed),
        }
    }
}

/// Records bulk modular operations (`mults` multiplications, `adds`
/// additions/subtractions).
#[inline(always)]
pub fn record_ops(mults: u64, adds: u64) {
    #[cfg(feature = "telemetry")]
    {
        state::add(&state::MULTS, mults);
        state::add(&state::ADDS, adds);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (mults, adds);
}

/// Records one whole-limb NTT transform of `n` coefficients with
/// `butterflies` butterfly stages-worth of work (1 mult + 2 adds each),
/// plus the limb's streaming traffic.
#[inline(always)]
pub fn record_ntt(forward: bool, butterflies: u64, n: u64) {
    #[cfg(feature = "telemetry")]
    {
        if forward {
            state::add(&state::NTT_FWD, 1);
        } else {
            state::add(&state::NTT_INV, 1);
        }
        state::add(&state::MULTS, butterflies);
        state::add(&state::ADDS, 2 * butterflies);
        state::add(&state::BYTES_READ, 8 * n);
        state::add(&state::BYTES_WRITTEN, 8 * n);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (forward, butterflies, n);
}

/// Records one bulk fast-basis-extension call (`NewLimb`, Eq. 1) converting
/// `n` coefficients from `src` to `dst` limbs: per coefficient, `src`
/// scaled-residue mults, `src·dst` inner-product terms (1 mult + 1 add
/// each), and `dst` float-excess corrections (1 mult + 1 sub each).
#[inline(always)]
pub fn record_basis_ext(src: u64, dst: u64, n: u64) {
    #[cfg(feature = "telemetry")]
    {
        state::add(&state::MULTS, n * (src + src * dst + dst));
        state::add(&state::ADDS, n * (src * dst + dst));
        state::add(&state::EXT_TERMS, n * src * dst);
        state::add(&state::BYTES_READ, 8 * src * n);
        state::add(&state::BYTES_WRITTEN, 8 * dst * n);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (src, dst, n);
}

/// Records limb-buffer streaming traffic in bytes.
#[inline(always)]
pub fn record_transfer(read: u64, written: u64) {
    #[cfg(feature = "telemetry")]
    {
        state::add(&state::BYTES_READ, read);
        state::add(&state::BYTES_WRITTEN, written);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (read, written);
}

/// Records one scratch-pool lease of `bytes` bytes.
#[inline(always)]
pub fn record_scratch_lease(bytes: u64) {
    #[cfg(feature = "telemetry")]
    {
        state::add(&state::SCRATCH_LEASES, 1);
        state::add(&state::SCRATCH_BYTES, bytes);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = bytes;
}

/// Records one switching-key expansion: a compute-for-memory event where a
/// seeded (compressed) key was regenerated into its full `2 × dnum`
/// polynomial form, producing `bytes` bytes of expanded key material. The
/// serving runtime's key cache calls this on every miss, making the
/// paper's §3.2 regeneration trade visible next to the kernel counters.
#[inline(always)]
pub fn record_key_expansion(bytes: u64) {
    #[cfg(feature = "telemetry")]
    {
        state::add(&state::KEY_EXPANSIONS, 1);
        state::add(&state::KEY_EXPANSION_BYTES, bytes);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = bytes;
}

/// Totals recorded by [`record_key_expansion`] since the last [`reset`]:
/// `(expansion count, expanded bytes)`. Zero with the feature off.
pub fn key_expansion_totals() -> (u64, u64) {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        (
            state::KEY_EXPANSIONS.load(Relaxed),
            state::KEY_EXPANSION_BYTES.load(Relaxed),
        )
    }
    #[cfg(not(feature = "telemetry"))]
    (0, 0)
}

/// Allocates a fresh process-unique operand id (never 0).
///
/// With the feature off this returns 0 — callers only mint ids from
/// feature-gated code, so the stub is never observable.
#[inline(always)]
pub fn new_operand_id() -> u64 {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        state::NEXT_OPERAND_ID.fetch_add(1, Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    0
}

/// True while a trace is being recorded ([`trace_start`] .. [`trace_stop`]).
#[inline(always)]
pub fn trace_active() -> bool {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        state::TRACE_ON.load(Relaxed)
    }
    #[cfg(not(feature = "telemetry"))]
    false
}

/// Begins recording a memory-access trace, discarding any prior one.
///
/// No-op with the feature off.
pub fn trace_start() {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let mut trace = state::TRACE.lock().expect("poisoned");
        *trace = Some(state::TraceState {
            start: std::time::Instant::now(),
            records: Vec::new(),
        });
        state::TRACE_ON.store(true, Relaxed);
    }
}

/// Begins recording only if no trace is already active, so an
/// opportunistic caller (e.g. the serving runtime's sampled deep
/// tracing) never discards a deliberately-started trace. Returns
/// whether recording started; the caller owns the matching
/// [`trace_stop`] only when it did.
///
/// Always `false` with the feature off.
pub fn trace_try_start() -> bool {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        let mut trace = state::TRACE.lock().expect("poisoned");
        if trace.is_some() {
            return false;
        }
        *trace = Some(state::TraceState {
            start: std::time::Instant::now(),
            records: Vec::new(),
        });
        state::TRACE_ON.store(true, Relaxed);
        true
    }
    #[cfg(not(feature = "telemetry"))]
    false
}

/// Stops recording and returns the trace in program order.
///
/// Returns an empty vector if no trace was active (or the feature is off).
pub fn trace_stop() -> Vec<TraceRecord> {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        state::TRACE_ON.store(false, Relaxed);
        state::TRACE
            .lock()
            .expect("poisoned")
            .take()
            .map(|ts| ts.records)
            .unwrap_or_default()
    }
    #[cfg(not(feature = "telemetry"))]
    Vec::new()
}

/// Records one streamed touch of `bytes` bytes at `offset` within the
/// operand identified by `tag`. Only buffered while a trace is active.
#[inline(always)]
pub fn record_touch(tag: OperandTag, write: bool, offset: u64, bytes: u64) {
    #[cfg(feature = "telemetry")]
    {
        if trace_active() && bytes != 0 {
            state::push_trace(TraceRecord::Touch {
                tag,
                write,
                offset,
                bytes,
            });
        }
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (tag, write, offset, bytes);
}

/// Records that operand `id` now belongs to `class` (last retag wins at
/// replay). Only buffered while a trace is active.
#[inline(always)]
pub fn record_retag(id: u64, class: OperandClass) {
    #[cfg(feature = "telemetry")]
    {
        if trace_active() && id != 0 {
            state::push_trace(TraceRecord::Retag { id, class });
        }
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (id, class);
}

/// Reads every counter.
///
/// Always available; with the feature off all fields are zero.
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "telemetry")]
    {
        state::read_all()
    }
    #[cfg(not(feature = "telemetry"))]
    Snapshot::default()
}

/// Zeroes every counter and clears the span table.
///
/// Does **not** touch an in-flight trace; use [`trace_stop`] for that.
pub fn reset() {
    #[cfg(feature = "telemetry")]
    {
        use std::sync::atomic::Ordering::Relaxed;
        state::MULTS.store(0, Relaxed);
        state::ADDS.store(0, Relaxed);
        state::NTT_FWD.store(0, Relaxed);
        state::NTT_INV.store(0, Relaxed);
        state::EXT_TERMS.store(0, Relaxed);
        state::BYTES_READ.store(0, Relaxed);
        state::BYTES_WRITTEN.store(0, Relaxed);
        state::SCRATCH_LEASES.store(0, Relaxed);
        state::SCRATCH_BYTES.store(0, Relaxed);
        state::KEY_EXPANSIONS.store(0, Relaxed);
        state::KEY_EXPANSION_BYTES.store(0, Relaxed);
        state::SPANS.lock().expect("poisoned").clear();
    }
}

/// Aggregated measurements for one span name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanReport {
    /// The name passed to [`span`].
    pub name: &'static str,
    /// How many spans closed under this name since the last [`reset`].
    pub calls: u64,
    /// Summed counter deltas over those spans (inclusive of nested spans).
    pub total: Snapshot,
}

/// All spans closed since the last [`reset`], sorted by name.
///
/// Empty with the feature off.
pub fn spans() -> Vec<SpanReport> {
    #[cfg(feature = "telemetry")]
    {
        state::SPANS
            .lock()
            .expect("poisoned")
            .iter()
            .map(|(&name, &(calls, total))| SpanReport { name, calls, total })
            .collect()
    }
    #[cfg(not(feature = "telemetry"))]
    Vec::new()
}

/// The aggregate for one span name, if any span closed under it.
pub fn span_report(name: &str) -> Option<SpanReport> {
    spans().into_iter().find(|s| s.name == name)
}

/// An RAII measurement region: snapshots the counters now, records the
/// delta under `name` when dropped. See the module docs for nesting
/// semantics. Zero-sized no-op with the feature off.
///
/// While a trace is active the span additionally emits
/// [`TraceRecord::SpanBegin`]/[`TraceRecord::SpanEnd`] markers.
#[must_use = "a span measures until dropped"]
pub struct Span {
    #[cfg(feature = "telemetry")]
    name: &'static str,
    #[cfg(feature = "telemetry")]
    start: Snapshot,
}

/// Opens a [`Span`] named `name`.
pub fn span(name: &'static str) -> Span {
    #[cfg(feature = "telemetry")]
    {
        if trace_active() {
            let ts_us = state::trace_elapsed_us();
            state::push_trace(TraceRecord::SpanBegin { name, ts_us });
        }
        Span {
            name,
            start: snapshot(),
        }
    }
    #[cfg(not(feature = "telemetry"))]
    {
        let _ = name;
        Span {}
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        #[cfg(feature = "telemetry")]
        {
            let delta = snapshot().delta(&self.start);
            let mut spans = state::SPANS.lock().expect("poisoned");
            let entry = spans.entry(self.name).or_insert((0, Snapshot::default()));
            entry.0 += 1;
            entry.1.accumulate(&delta);
            drop(spans);
            if trace_active() {
                let ts_us = state::trace_elapsed_us();
                state::push_trace(TraceRecord::SpanEnd {
                    name: self.name,
                    ts_us,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter semantics (reset, nesting, concurrency) are exercised by the
    // dedicated integration test `tests/telemetry_semantics.rs`, which owns
    // its process — the global counters make in-process unit tests racy
    // under `cargo test`'s threaded runner. Here we only check the
    // feature-independent Snapshot arithmetic.

    #[test]
    fn snapshot_delta_saturates() {
        let a = Snapshot {
            mults: 5,
            adds: 7,
            ..Snapshot::default()
        };
        let b = Snapshot {
            mults: 2,
            adds: 9,
            ..Snapshot::default()
        };
        let d = a.delta(&b);
        assert_eq!(d.mults, 3);
        assert_eq!(d.adds, 0); // saturated, not wrapped
        assert_eq!(a.ops(), 12);
    }

    #[test]
    fn snapshot_accumulate_sums_fields() {
        let mut acc = Snapshot::default();
        let x = Snapshot {
            mults: 1,
            adds: 2,
            ntt_fwd: 3,
            ntt_inv: 4,
            ext_terms: 5,
            bytes_read: 6,
            bytes_written: 7,
            scratch_leases: 8,
            scratch_lease_bytes: 9,
        };
        acc.accumulate(&x);
        acc.accumulate(&x);
        assert_eq!(acc.ntt_fwd, 6);
        assert_eq!(acc.transforms(), 14);
        assert_eq!(acc.transfer_bytes(), 26);
        assert_eq!(acc.scratch_lease_bytes, 18);
    }

    #[test]
    fn operand_class_names_are_stable() {
        assert_eq!(OperandClass::Ciphertext.name(), "ct");
        assert_eq!(OperandClass::Key.name(), "key");
        assert_eq!(OperandClass::Plaintext.name(), "pt");
        assert_eq!(OperandClass::Scratch.name(), "scratch");
    }

    #[test]
    fn fresh_tags_are_scratch_class() {
        let t = OperandTag::scratch();
        assert_eq!(t.class, OperandClass::Scratch);
        if enabled() {
            assert_ne!(t.id, 0, "ids start at 1 so 0 can mean untagged");
            assert_ne!(t.id, OperandTag::scratch().id, "ids are unique");
        }
    }
}
