//! Op-count, span and memory-access-trace telemetry for the ring kernels,
//! compiled into every build.
//!
//! The MAD paper's conclusions rest on SimFHE's analytical op counts and
//! DRAM-transfer estimates (`simfhe::primitives`); this module measures what
//! the functional kernels *actually* execute so the two can be
//! cross-validated — ops and DRAM bytes in one run of the `validate` binary
//! in `crates/program` (`cargo run --release -p fhe-program --bin
//! validate`). Counters follow the paper's accounting granularity:
//!
//! - **Modular multiplications / additions** (Section 4.1: "SimFHE tracks
//!   compute at the modular arithmetic level"). Butterflies count as
//!   1 mult + 2 adds, matching `SchemeParams::ntt_ops`.
//! - **Whole-limb NTT / iNTT transforms** — the limb-wise kernel
//!   invocations whose count the model predicts exactly (e.g. `ModUp` at
//!   `ℓ` limbs runs `d` inverse and `ℓ + k − d` forward transforms). These
//!   are the atomics [`crate::ntt::counters`] reads: a limb transform is
//!   counted once.
//! - **Basis-extension terms** — the `src·dst` `NewLimb` inner-product
//!   terms of Eq. 1, the slot-wise kernel's work measure.
//!
//! The counters hold no bytes: DRAM bytes come from replaying the
//! memory-access trace (below) through a cache, and scratch leases are
//! counted by the pool itself ([`crate::scratch::ScratchStats`]).
//!
//! Counters are process-global relaxed atomics — global rather than
//! thread-local because the threads that run kernels share them: a
//! server's workers each run their own requests' kernels on their own
//! thread, and one total holds all of them. Recording happens in *bulk*
//! at kernel loop boundaries (once per transform, once per `extend_flat`),
//! never per scalar operation, which is what lets one build both serve
//! requests and account for them (EXPERIMENTS.md, "Always-on telemetry",
//! has the measured cost).
//!
//! # Spans
//!
//! A [`Span`] marks a named region of one thread's work. A thread that
//! wants to read its spans brackets the work with [`capture_spans`]: each
//! span it opens then leaves one [`SpanTiming`] — its name, when it opened
//! and closed, and the counter delta over it. Capture is per thread, so
//! the list holds that thread's spans and nothing another thread opened
//! meanwhile; no process-global state is switched on, and a span opened
//! while its thread is not capturing reads neither the clock nor the
//! counters. Deltas are **inclusive**: a nested span's ops are also in
//! every enclosing span's (`KeySwitch` contains its `ModUp` and `ModDown`
//! children). The counters themselves stay process-global, so a delta
//! also holds what other threads recorded in the window — a concurrent
//! worker's kernels by design. [`reset`] zeroes the counters;
//! a span open across it saturates at zero.
//!
//! ```
//! use fhe_math::telemetry;
//!
//! telemetry::reset();
//! telemetry::capture_spans(8);
//! {
//!     let _s = telemetry::span("demo");
//!     telemetry::record_ops(10, 20);
//! }
//! let spans = telemetry::capture_spans(0);
//! assert_eq!(telemetry::snapshot().mults, 10);
//! assert_eq!((spans[0].name, spans[0].ops.adds), ("demo", 20));
//! ```
//!
//! # Memory-access tracing
//!
//! On top of the aggregate counters, the module can record an *ordered
//! trace* of limb-buffer touches for cache-replay simulation
//! (`fhe_program::replay`, its single consumer, reads these records
//! as they are). Each
//! [`RnsPoly`](crate::poly::RnsPoly) carries an [`OperandTag`] — a stable
//! [`new_operand_id`] plus an [`OperandClass`] matching the paper's DRAM
//! categories (ciphertext limb, switching-key digit, plaintext constant,
//! scratch) — and the instrumented kernels emit one
//! [`TraceRecord::Touch`] per operand streamed. Because kernels write
//! their outputs *before* the `ckks` layer wraps them in a ciphertext or
//! key, classes may be assigned late: [`record_retag`] appends a
//! [`TraceRecord::Retag`] and replay resolves each id to its **last**
//! recorded class.
//!
//! Tracing is runtime-gated: records are only buffered between
//! [`trace_start`] and [`trace_stop`], so nothing else pays for trace
//! storage. The trace carries bytes only: a span leaves its one record in
//! its thread's capture and nothing in the trace, so a reader that wants
//! one trace per region brackets each region with its own
//! `trace_start`/`trace_stop` (the ledger does, one per row).
//!
//! # Trace-event export
//!
//! [`ChromeTrace`] is the workspace's one writer of Chrome trace-event
//! JSON (Perfetto, `chrome://tracing`): process and thread names, `X`
//! slices with optional integer args, and `C` counters, one event per
//! line. `fhe_serve`'s `TraceDump` and `validate --perfetto` both render
//! through it.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

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

    /// Counter-wise difference `self − earlier`, saturating at zero (a
    /// [`reset`] between the two snapshots must not panic).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            mults: self.mults.saturating_sub(earlier.mults),
            adds: self.adds.saturating_sub(earlier.adds),
            ntt_fwd: self.ntt_fwd.saturating_sub(earlier.ntt_fwd),
            ntt_inv: self.ntt_inv.saturating_sub(earlier.ntt_inv),
            ext_terms: self.ext_terms.saturating_sub(earlier.ext_terms),
        }
    }

    /// Counter-wise sum.
    pub fn accumulate(&mut self, other: &Snapshot) {
        self.mults += other.mults;
        self.adds += other.adds;
        self.ntt_fwd += other.ntt_fwd;
        self.ntt_inv += other.ntt_inv;
        self.ext_terms += other.ext_terms;
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
    /// Every class, in declaration order: `ALL[c as usize] == c`.
    pub const ALL: [OperandClass; 4] = [
        OperandClass::Ciphertext,
        OperandClass::Key,
        OperandClass::Plaintext,
        OperandClass::Scratch,
    ];

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
}

static MULTS: AtomicU64 = AtomicU64::new(0);
static ADDS: AtomicU64 = AtomicU64::new(0);
static NTT_FWD: AtomicU64 = AtomicU64::new(0);
static NTT_INV: AtomicU64 = AtomicU64::new(0);
static EXT_TERMS: AtomicU64 = AtomicU64::new(0);

/// Monotonic operand-id source (0 is reserved as "untagged").
static NEXT_OPERAND_ID: AtomicU64 = AtomicU64::new(1);

/// Fast path: is a trace being recorded right now?
static TRACE_ON: AtomicBool = AtomicBool::new(false);

static TRACE: Mutex<Option<Vec<TraceRecord>>> = Mutex::new(None);

fn add(counter: &AtomicU64, v: u64) {
    if v != 0 {
        counter.fetch_add(v, Relaxed);
    }
}

fn push_trace(record: TraceRecord) {
    if let Some(records) = TRACE.lock().expect("poisoned").as_mut() {
        records.push(record);
    }
}

/// Records bulk modular operations (`mults` multiplications, `adds`
/// additions/subtractions).
#[inline]
pub fn record_ops(mults: u64, adds: u64) {
    add(&MULTS, mults);
    add(&ADDS, adds);
}

/// Records one whole-limb NTT transform of `n` coefficients with
/// `butterflies` butterfly stages-worth of work (1 mult + 2 adds each).
/// An inverse transform also records
/// the `n` multiplies of an `N⁻¹` normalization pass, which lie beyond the
/// model's butterfly count. These are *logical* units, not the kernel's
/// instructions: the production transform folds `N⁻¹` into its last stage
/// and so executes `n/2` fewer multiplies than are recorded here.
#[inline]
pub fn record_ntt(forward: bool, butterflies: u64, n: u64) {
    if forward {
        add(&NTT_FWD, 1);
        add(&MULTS, butterflies);
    } else {
        add(&NTT_INV, 1);
        add(&MULTS, butterflies + n);
    }
    add(&ADDS, 2 * butterflies);
}

/// Zeroes the two whole-limb transform counters only
/// ([`crate::ntt::counters::reset`]).
pub(crate) fn reset_transforms() {
    NTT_FWD.store(0, Relaxed);
    NTT_INV.store(0, Relaxed);
}

/// Records one bulk fast-basis-extension call (`NewLimb`, Eq. 1) converting
/// `n` coefficients from `src` to `dst` limbs: per coefficient, `src`
/// scaled-residue mults, `src·dst` inner-product terms (1 mult + 1 add
/// each), and `dst` float-excess corrections (1 mult + 1 sub each).
#[inline]
pub fn record_basis_ext(src: u64, dst: u64, n: u64) {
    add(&MULTS, n * (src + src * dst + dst));
    add(&ADDS, n * (src * dst + dst));
    add(&EXT_TERMS, n * src * dst);
}

/// Allocates a fresh process-unique operand id (never 0).
#[inline]
pub fn new_operand_id() -> u64 {
    NEXT_OPERAND_ID.fetch_add(1, Relaxed)
}

/// True while a trace is being recorded ([`trace_start`] .. [`trace_stop`]).
#[inline]
pub fn trace_active() -> bool {
    TRACE_ON.load(Relaxed)
}

/// Begins recording a memory-access trace, discarding any prior one.
pub fn trace_start() {
    *TRACE.lock().expect("poisoned") = Some(Vec::new());
    TRACE_ON.store(true, Relaxed);
}

/// Stops recording and returns the trace in program order.
///
/// Returns an empty vector if no trace was active.
pub fn trace_stop() -> Vec<TraceRecord> {
    TRACE_ON.store(false, Relaxed);
    TRACE.lock().expect("poisoned").take().unwrap_or_default()
}

/// Records one streamed touch of `bytes` bytes at `offset` within the
/// operand identified by `tag`. Only buffered while a trace is active.
#[inline]
pub fn record_touch(tag: OperandTag, write: bool, offset: u64, bytes: u64) {
    if trace_active() && bytes != 0 {
        push_trace(TraceRecord::Touch {
            tag,
            write,
            offset,
            bytes,
        });
    }
}

/// Records that operand `id` now belongs to `class` (last retag wins at
/// replay). Only buffered while a trace is active.
#[inline]
pub fn record_retag(id: u64, class: OperandClass) {
    if trace_active() && id != 0 {
        push_trace(TraceRecord::Retag { id, class });
    }
}

/// Reads every counter.
pub fn snapshot() -> Snapshot {
    Snapshot {
        mults: MULTS.load(Relaxed),
        adds: ADDS.load(Relaxed),
        ntt_fwd: NTT_FWD.load(Relaxed),
        ntt_inv: NTT_INV.load(Relaxed),
        ext_terms: EXT_TERMS.load(Relaxed),
    }
}

/// Zeroes every counter.
///
/// Does **not** touch an in-flight trace; use [`trace_stop`] for that.
pub fn reset() {
    for counter in [&MULTS, &ADDS, &NTT_FWD, &NTT_INV, &EXT_TERMS] {
        counter.store(0, Relaxed);
    }
}

/// One [`Span`] that ran on a thread that was capturing
/// ([`capture_spans`]).
#[derive(Clone, Copy, Debug)]
pub struct SpanTiming {
    /// The name passed to [`span`].
    pub name: &'static str,
    /// When the span opened.
    pub begin: Instant,
    /// When it closed (equal to `begin` for a span still open when the
    /// list was taken).
    pub end: Instant,
    /// The counter delta from open to close, nested spans included (zero
    /// for a span still open when the list was taken).
    pub ops: Snapshot,
}

thread_local! {
    /// This thread's capture: how many spans it may still hold, and the
    /// spans opened so far in open order.
    static CAPTURE: RefCell<(usize, Vec<SpanTiming>)> = const { RefCell::new((0, Vec::new())) };
}

/// Returns the spans this thread captured since the last call, in the
/// order they opened, and from now on captures the next `limit` spans the
/// thread opens (`0` turns capture off). Spans opened past the limit leave
/// nothing, which bounds the list whatever runs in between. Call it
/// outside any open span.
pub fn capture_spans(limit: usize) -> Vec<SpanTiming> {
    CAPTURE.with(|c| std::mem::replace(&mut *c.borrow_mut(), (limit, Vec::new())).1)
}

/// An RAII measurement region. While its thread is capturing
/// ([`capture_spans`]) it leaves a [`SpanTiming`] with its counter delta,
/// and otherwise nothing. See the module docs for nesting semantics.
#[must_use = "a span measures until dropped"]
pub struct Span {
    /// This span's entry in the thread's capture list and the counters
    /// when it opened.
    captured: Option<(usize, Snapshot)>,
}

/// Opens a [`Span`] named `name`.
pub fn span(name: &'static str) -> Span {
    let captured = CAPTURE.with(|c| {
        let (limit, list) = &mut *c.borrow_mut();
        (list.len() < *limit).then(|| {
            let begin = Instant::now();
            list.push(SpanTiming {
                name,
                begin,
                end: begin,
                ops: Snapshot::default(),
            });
            (list.len() - 1, snapshot())
        })
    });
    Span { captured }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((at, start)) = self.captured {
            let ops = snapshot().delta(&start);
            // `try_with`: a span dropped during thread teardown finds no
            // list left to write to.
            let _ = CAPTURE.try_with(|c| {
                if let Some(timing) = c.borrow_mut().1.get_mut(at) {
                    timing.end = Instant::now();
                    timing.ops = ops;
                }
            });
        }
    }
}

/// A Chrome trace-event JSON document for one process (pid 1), built one
/// event per line: `{"displayTimeUnit": "ms", "traceEvents": [ … ]}`.
/// Timestamps and durations are microseconds.
pub struct ChromeTrace {
    out: String,
}

impl ChromeTrace {
    /// Starts a document whose process is named `process`.
    pub fn new(process: &str) -> Self {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {{\"name\": {}}}}}",
            json_string(process)
        );
        Self { out }
    }

    /// Names track `tid`.
    pub fn thread_name(&mut self, tid: u64, name: &str) {
        let _ = write!(
            self.out,
            ",\n{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": {}}}}}",
            json_string(name)
        );
    }

    /// A complete (`X`) slice on track `tid`; `args` is left out when
    /// empty.
    pub fn slice(
        &mut self,
        tid: u64,
        cat: &str,
        name: &str,
        ts: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) {
        let _ = write!(
            self.out,
            ",\n{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"ts\": {ts}, \"dur\": {dur}, \
             \"pid\": 1, \"tid\": {tid}",
            json_string(name),
            json_string(cat)
        );
        if !args.is_empty() {
            self.args(args);
        }
        self.out.push('}');
    }

    /// One sample of counter track `name`, one series per value.
    pub fn counter(&mut self, name: &str, ts: u64, values: &[(&str, u64)]) {
        let _ = write!(
            self.out,
            ",\n{{\"name\": {}, \"ph\": \"C\", \"ts\": {ts}, \"pid\": 1",
            json_string(name)
        );
        self.args(values);
        self.out.push('}');
    }

    fn args(&mut self, args: &[(&str, u64)]) {
        self.out.push_str(", \"args\": {");
        for (i, (key, value)) in args.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(self.out, "{sep}{}: {value}", json_string(key));
        }
        self.out.push('}');
    }

    /// Closes the document and returns its text.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped — the workspace's one escaper, shared by
/// [`ChromeTrace`] and the `fhe-program` validation report.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counter semantics (reset, nesting, concurrency) are exercised by the
    // dedicated integration test `tests/telemetry_semantics.rs`, which owns
    // its process — the global counters make in-process unit tests racy
    // under `cargo test`'s threaded runner. Here we only check what no
    // other thread can disturb: Snapshot arithmetic, tag identity and the
    // per-thread span capture.

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
        };
        acc.accumulate(&x);
        acc.accumulate(&x);
        assert_eq!(acc.ntt_fwd, 6);
        assert_eq!(acc.transforms(), 14);
        assert_eq!(acc.ext_terms, 10);
        assert_eq!(acc.ops(), 6);
    }

    #[test]
    fn operand_class_names_are_stable() {
        assert_eq!(OperandClass::Ciphertext.name(), "ct");
        assert_eq!(OperandClass::Key.name(), "key");
        assert_eq!(OperandClass::Plaintext.name(), "pt");
        assert_eq!(OperandClass::Scratch.name(), "scratch");
        for (i, c) in OperandClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} indexes its own slot");
        }
    }

    #[test]
    fn fresh_tags_are_scratch_class() {
        let t = OperandTag::scratch();
        assert_eq!(t.class, OperandClass::Scratch);
        assert_ne!(t.id, 0, "ids start at 1 so 0 can mean untagged");
        assert_ne!(t.id, OperandTag::scratch().id, "ids are unique");
    }

    #[test]
    fn capture_keeps_this_threads_first_spans_in_open_order() {
        {
            let _s = span("uncaptured");
        }
        assert!(capture_spans(3).is_empty(), "capture starts off");
        {
            let _outer = span("outer");
            let _inner = span("inner");
            std::thread::scope(|s| {
                s.spawn(|| drop(span("elsewhere")));
            });
        }
        drop(span("third"));
        drop(span("past-the-limit"));
        let got = capture_spans(0);
        let names: Vec<_> = got.iter().map(|t| t.name).collect();
        assert_eq!(names, ["outer", "inner", "third"]);
        // Nesting survives: the inner window lies inside the outer one.
        assert!(got[0].begin <= got[1].begin && got[1].end <= got[0].end);
        assert!(got[0].end <= got[2].begin);
        drop(span("after-stop"));
        assert!(capture_spans(0).is_empty(), "limit 0 turned capture off");
    }

    #[test]
    fn trace_writer_emits_the_trace_dump_lines_byte_for_byte() {
        let mut t = ChromeTrace::new("fhe-serve");
        t.thread_name(7, "req 7 rotate");
        t.slice(7, "request", "request:rotate (status 0)", 1000, 250, &[]);
        t.slice(7, "request", "queue", 1001, 4, &[]);
        let want = concat!(
            r#"{"displayTimeUnit": "ms", "traceEvents": ["#,
            "\n",
            r#"{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "fhe-serve"}},"#,
            "\n",
            r#"{"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "req 7 rotate"}},"#,
            "\n",
            r#"{"name": "request:rotate (status 0)", "cat": "request", "ph": "X", "ts": 1000, "dur": 250, "pid": 1, "tid": 7},"#,
            "\n",
            r#"{"name": "queue", "cat": "request", "ph": "X", "ts": 1001, "dur": 4, "pid": 1, "tid": 7}"#,
            "\n]}\n",
        );
        assert_eq!(t.finish(), want);
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(
            json_string("a\"b\\c\nd\u{1}e"),
            "\"a\\\"b\\\\c\\nd\\u0001e\""
        );
        assert_eq!(json_string("\r\t"), "\"\\r\\t\"");
        assert_eq!(json_string("\u{1}\u{1f}"), "\"\\u0001\\u001f\"");
    }

    #[test]
    fn a_slice_carries_its_args_and_a_counter_its_series() {
        let mut t = ChromeTrace::new("p");
        t.slice(1, "span", "ModUp", 5, 3, &[("mults", 12), ("adds", 0)]);
        t.counter("bytes touched", 8, &[("ct", 64), ("key", 0)]);
        let json = t.finish();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(
            lines[2],
            r#"{"name": "ModUp", "cat": "span", "ph": "X", "ts": 5, "dur": 3, "pid": 1, "tid": 1, "args": {"mults": 12, "adds": 0}},"#
        );
        assert_eq!(
            lines[3],
            r#"{"name": "bytes touched", "ph": "C", "ts": 8, "pid": 1, "args": {"ct": 64, "key": 0}}"#
        );
    }

    #[test]
    fn a_document_is_balanced_with_no_trailing_comma() {
        let empty = ChromeTrace::new("empty").finish();
        let mut t = ChromeTrace::new("full");
        for tid in 1..4 {
            t.thread_name(tid, "track");
            t.slice(tid, "span", "a", tid, 1, &[("n", tid)]);
            t.slice(tid, "span", "b", tid, 0, &[]);
            t.counter("c", tid, &[("x", tid)]);
        }
        for json in [empty, t.finish()] {
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            assert_eq!(json.matches('[').count(), json.matches(']').count());
            assert!(!json.contains(",\n]") && !json.contains(", }"));
            assert!(json.ends_with("}\n]}\n"), "{json}");
        }
    }
}
