//! Request-scoped tracing: per-stage latency attribution, a ring buffer
//! of recent request timelines, a slow-request log, and a Perfetto
//! (Chrome trace-event) exporter behind the `TraceDump` opcode.
//!
//! Every request gets an id at frame parse and a `RequestTrace` that
//! follows it through the whole lifecycle; there is no untraced mode. The
//! trace is a plain struct: the connection thread that read the request
//! owns it, runs the request and stamps each stage transition as it
//! happens:
//!
//! ```text
//! parse ─ gate ────── grant ─ key ─ decode/kernel ─ permit freed ─ write
//!          └─ queue ──┘             └─ serialize ─┘
//! ```
//!
//! The taxonomy ([`Stage`]) partitions end-to-end latency: `queue` is
//! time waiting at the shard's gate for a permit (a stage under a
//! microsecond counts as one), `key` the request's pin phase before
//! execution, `decode`/`serialize` are measured inside the execution
//! window into a per-thread tally the execution guard folds into the
//! trace when the window closes, `kernel`
//! is the rest of that window (the FHE math itself), and `write` is the
//! reply's blocking write, which lasts until the socket has taken its last
//! byte — for a large reply, until the client has read most of it.
//! Finished timelines land in a fixed-size ring (plus a dedicated slot
//! that always retains the slowest request seen, so a tail outlier can
//! never be overwritten by later traffic) and, past a configurable
//! threshold, in a bounded structured slow-request log annotated with
//! the dominant stage.
//!
//! Every request that runs also carries the kernel sub-spans (`ModUp`,
//! `KSKInnerProd`, `ModDown`, `Mult`, `Prog.<Mnemonic>`…) the math layer
//! opened on its own thread while it ran: the execution guard — the one
//! way a request's execution is stamped, and the one clock behind the
//! `serve_op_latency_us` histogram — turns on
//! `fhe_math::telemetry`'s per-thread span capture and moves the list, at
//! most [`SUBSPAN_CAP`] long, into the timeline when execution ends.
//! Nothing process-global is switched on and no other request's spans can
//! land in the list, so concurrent requests each get their own.

use crate::config::ObsConfig;
use crate::metrics::Metrics;
use crate::protocol::Opcode;
use fhe_math::telemetry::ChromeTrace;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The request lifecycle stages latency is attributed to. Together the
/// stages partition end-to-end latency (up to scheduling gaps of a few
/// microseconds between threads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting at the shard's gate for an execution permit.
    Queue,
    /// Deserializing request payloads (ciphertexts, plaintexts).
    Decode,
    /// Switching-key access before execution: the request's pin phase
    /// (cache lookup, seeded expansion on miss).
    Key,
    /// The FHE math itself — execution time not spent in decode or
    /// serialization.
    Kernel,
    /// Serializing result ciphertexts.
    Serialize,
    /// Writing the reply frame back to the socket.
    Write,
}

impl Stage {
    /// Every stage, in timeline order (metrics registration order).
    pub const ALL: [Stage; 6] = [
        Stage::Queue,
        Stage::Decode,
        Stage::Key,
        Stage::Kernel,
        Stage::Serialize,
        Stage::Write,
    ];

    /// Stable lowercase name used as the metrics label and span name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Decode => "decode",
            Stage::Key => "key",
            Stage::Kernel => "kernel",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("listed")
    }
}

/// The live timeline of one in-flight request: a plain struct the
/// request's connection thread owns from frame parse to finish.
pub(crate) struct RequestTrace {
    id: u64,
    op: Opcode,
    /// The shard that owns this request: its session's, or the
    /// connection's home shard for a session-less op.
    shard: u32,
    /// When the frame was parsed; every offset below is relative to it.
    start: Instant,
    /// When the request reached its shard's gate: the queue span's anchor,
    /// and what the request deadline is measured from.
    pub(crate) enqueued: Instant,
    /// Offset when handler execution began.
    exec_begin_us: u64,
    /// Total handler execution time.
    exec_us: u64,
    stage_us: [u64; Stage::ALL.len()],
    /// Kernel sub-spans of the handler run, offsets from `start`.
    subspans: Vec<SubSpan>,
}

impl RequestTrace {
    /// Adds a measured duration to `stage` (also used from outside the
    /// execution window: the pin phase, the reply flush). A
    /// stage that ran is on the timeline: one that finished inside a
    /// microsecond — serializing a toy-ring ciphertext does — counts as
    /// one, not none.
    pub(crate) fn add_stage(&mut self, stage: Stage, d: Duration) {
        self.stage_us[stage.index()] += (d.as_micros() as u64).max(1);
    }

    /// The request is about to enter its shard's gate.
    pub(crate) fn mark_enqueued(&mut self) {
        self.enqueued = Instant::now();
    }

    /// The request's permit was granted: the queue stage ends, however
    /// short it was.
    pub(crate) fn mark_picked(&mut self) {
        self.add_stage(Stage::Queue, self.enqueued.elapsed());
    }

    fn since_start(&self, at: Instant) -> u64 {
        at.duration_since(self.start).as_micros() as u64
    }
}

/// One kernel sub-span of a request's handler run, offsets relative to
/// the request's accept time.
#[derive(Debug, Clone)]
pub struct SubSpan {
    /// Span name as recorded by `fhe_math::telemetry` (`ModUp`,
    /// `KSKInnerProd`, `ModDown`, `Mult`…).
    pub name: &'static str,
    /// Span open, µs after the request was accepted.
    pub begin_us: u64,
    /// Span close, µs after the request was accepted.
    pub end_us: u64,
}

/// A completed request timeline, as retained by the ring buffer and
/// rendered by the Perfetto exporter.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// Request id.
    pub id: u64,
    /// Opcode name.
    pub op: &'static str,
    /// Response status byte (0 = success).
    pub status: u8,
    /// The shard that served the request.
    pub shard: u32,
    /// Accept time, µs after the server started.
    pub start_us: u64,
    /// End-to-end latency in µs (accept → reply written).
    pub total_us: u64,
    /// Per-stage attributed µs, indexed like [`Stage::ALL`].
    pub stages: [u64; Stage::ALL.len()],
    /// Offset of the enqueue stamp (start of the queue span).
    pub enqueued_us: u64,
    /// Offset where handler execution began.
    pub exec_begin_us: u64,
    /// Handler execution time in µs.
    pub exec_us: u64,
    /// Kernel sub-spans the executing thread opened, in open order (the
    /// first [`SUBSPAN_CAP`]).
    pub subspans: Vec<SubSpan>,
}

impl FinishedTrace {
    /// Attributed µs for one stage.
    pub fn stage_us(&self, stage: Stage) -> u64 {
        self.stages[stage.index()]
    }

    /// The stage that accounts for the largest share of this request's
    /// latency.
    pub fn dominant_stage(&self) -> Stage {
        let mut best = Stage::ALL[0];
        let mut best_us = 0u64;
        for s in Stage::ALL {
            if self.stage_us(s) > best_us {
                best_us = self.stage_us(s);
                best = s;
            }
        }
        best
    }

    /// One structured log line: `slow_request id=… op=… …` with every
    /// stage and the dominant-stage annotation.
    pub fn log_line(&self) -> String {
        use std::fmt::Write as _;
        let mut line = format!(
            "slow_request id={} op={} status={} total_us={} shard={} dominant={}",
            self.id,
            self.op,
            self.status,
            self.total_us,
            self.shard,
            self.dominant_stage().name()
        );
        for s in Stage::ALL {
            let _ = write!(line, " {}_us={}", s.name(), self.stage_us(s));
        }
        line
    }
}

/// Fixed-capacity ring of finished timelines plus one dedicated slot
/// that always retains the slowest request seen — a burst of fast
/// requests can age ordinary entries out, but never the tail outlier.
struct TraceRing {
    capacity: usize,
    /// `(recent, slowest)`: the last `capacity` timelines, oldest first.
    held: Mutex<(VecDeque<FinishedTrace>, Option<FinishedTrace>)>,
}

impl TraceRing {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            held: Mutex::default(),
        }
    }

    fn push(&self, t: FinishedTrace) {
        let (recent, slowest) = &mut *self.held.lock().expect("poisoned");
        if slowest.as_ref().is_none_or(|s| t.total_us > s.total_us) {
            *slowest = Some(t.clone());
        }
        if recent.len() == self.capacity {
            recent.pop_front();
        }
        recent.push_back(t);
    }

    /// Recent traces (oldest first), with the retained slowest appended
    /// if it already aged out of the ring proper.
    fn snapshot(&self) -> Vec<FinishedTrace> {
        let (recent, slowest) = &*self.held.lock().expect("poisoned");
        let mut out: Vec<FinishedTrace> = recent.iter().cloned().collect();
        if let Some(s) = slowest
            .as_ref()
            .filter(|s| !out.iter().any(|t| t.id == s.id))
        {
            out.push(s.clone());
        }
        out
    }

    fn slowest(&self) -> Option<FinishedTrace> {
        self.held.lock().expect("poisoned").1.clone()
    }
}

thread_local! {
    /// Stage µs the `decode`/`serialize` helpers measured on this thread
    /// since the current execution window opened, so they attribute their
    /// time without threading the trace through every handler signature.
    static WINDOW_STAGES: Cell<[u64; Stage::ALL.len()]> = const { Cell::new([0; Stage::ALL.len()]) };
}

/// Times `f` against `stage` of the request the current thread is
/// executing.
pub(crate) fn time_stage<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    let us = (t0.elapsed().as_micros() as u64).max(1);
    WINDOW_STAGES.with(|c| {
        let mut stages = c.get();
        stages[stage.index()] += us;
        c.set(stages);
    });
    r
}

/// The server's tracing state: id source, the ring of finished
/// timelines, and the slow-request log.
pub(crate) struct Observer {
    cfg: ObsConfig,
    /// When the server started; `FinishedTrace::start_us` offsets are
    /// relative to it so one dump shares a single timebase.
    epoch: Instant,
    next_id: AtomicU64,
    ring: TraceRing,
    slow: Mutex<VecDeque<String>>,
}

/// Retained slow-request log lines.
const SLOW_LOG_CAPACITY: usize = 128;

/// Kernel sub-spans kept per request (the first this many its handler
/// opens): a served rotate opens 3, a mult 6 and a two-feature HELR step
/// 123, so only a long program is cut, and the ring holds at most
/// `ring_capacity` times this many whatever is served.
pub const SUBSPAN_CAP: usize = 256;

impl Observer {
    pub(crate) fn new(cfg: ObsConfig) -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ring: TraceRing::new(cfg.ring_capacity),
            slow: Mutex::new(VecDeque::new()),
            cfg,
        }
    }

    /// Opens a trace for a freshly-parsed request on `shard`.
    pub(crate) fn begin(&self, op: Opcode, shard: u32) -> RequestTrace {
        let start = Instant::now();
        RequestTrace {
            id: self.next_id.fetch_add(1, Relaxed),
            op,
            shard,
            start,
            enqueued: start,
            exec_begin_us: 0,
            exec_us: 0,
            stage_us: Default::default(),
            subspans: Vec::new(),
        }
    }

    /// Marks one request's execution window on the current thread:
    /// stamps the window, starts the thread's stage attribution, and
    /// turns on its span capture. When the guard drops — on the panic
    /// path too — it records the window, the attributed stages and the
    /// sub-spans in `trace`, and the op observes the window in
    /// `metrics`'s `serve_op_latency_us`. Drop the guard *before* the
    /// reply is written, so the window never counts the write.
    pub(crate) fn enter_exec<'a>(
        &self,
        metrics: &'a Metrics,
        trace: &'a mut RequestTrace,
    ) -> ExecGuard<'a> {
        // One reading for both ends of the window, so a sub-span can
        // never end after `exec_begin_us + exec_us`.
        let start = Instant::now();
        trace.exec_begin_us = trace.since_start(start);
        WINDOW_STAGES.with(|c| c.take());
        fhe_math::telemetry::capture_spans(SUBSPAN_CAP);
        ExecGuard {
            start,
            metrics,
            trace,
        }
    }

    /// Commits a finished request: derives the kernel remainder,
    /// observes the per-stage and end-to-end histograms, pushes the
    /// timeline into the ring and (over threshold) the slow log.
    pub(crate) fn finish(&self, metrics: &Metrics, trace: RequestTrace, status: u8) {
        let total_us = trace.start.elapsed().as_micros() as u64;
        let exec_us = trace.exec_us;
        let mut stages = trace.stage_us;
        // The kernel stage is the rest of the execution window: time not
        // attributed to decode or serialization. Key access (the pin
        // phase) ran before the window opened.
        stages[Stage::Kernel.index()] = exec_us
            .saturating_sub(stages[Stage::Decode.index()] + stages[Stage::Serialize.index()]);
        for s in Stage::ALL {
            metrics
                .stage_latency(s)
                .observe(Duration::from_micros(stages[s.index()]));
        }
        metrics
            .e2e_latency()
            .observe(Duration::from_micros(total_us));

        let finished = FinishedTrace {
            id: trace.id,
            op: trace.op.name(),
            status,
            shard: trace.shard,
            start_us: (trace.start - self.epoch).as_micros() as u64,
            total_us,
            stages,
            enqueued_us: trace.since_start(trace.enqueued),
            exec_begin_us: trace.exec_begin_us,
            exec_us,
            subspans: trace.subspans,
        };
        if total_us >= self.cfg.slow_threshold.as_micros() as u64 {
            let mut slow = self.slow.lock().expect("poisoned");
            if slow.len() == SLOW_LOG_CAPACITY {
                slow.pop_front();
            }
            slow.push_back(finished.log_line());
        }
        self.ring.push(finished);
    }

    /// Recent finished timelines, oldest first (the retained slowest
    /// appended if it aged out of the ring).
    pub(crate) fn recent(&self) -> Vec<FinishedTrace> {
        self.ring.snapshot()
    }

    /// The slowest request observed since the server started.
    pub(crate) fn slowest(&self) -> Option<FinishedTrace> {
        self.ring.slowest()
    }

    /// The slow-request log, one structured line per request, oldest
    /// first.
    pub(crate) fn slow_log(&self) -> String {
        let slow = self.slow.lock().expect("poisoned");
        let mut out = String::new();
        for line in slow.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// RAII execution marker returned by [`Observer::enter_exec`].
pub(crate) struct ExecGuard<'a> {
    start: Instant,
    metrics: &'a Metrics,
    trace: &'a mut RequestTrace,
}

impl Drop for ExecGuard<'_> {
    fn drop(&mut self) {
        let window = self.start.elapsed();
        let spans = fhe_math::telemetry::capture_spans(0);
        let t = &mut *self.trace;
        self.metrics.latency(t.op).observe(window);
        t.exec_us = window.as_micros() as u64;
        for (stage, us) in t.stage_us.iter_mut().zip(WINDOW_STAGES.with(|c| c.take())) {
            *stage += us;
        }
        t.subspans = spans
            .into_iter()
            .map(|s| SubSpan {
                name: s.name,
                begin_us: t.since_start(s.begin),
                end_us: t.since_start(s.end),
            })
            .collect();
    }
}

/// Renders timelines through the one trace-event writer
/// ([`ChromeTrace`]): a complete (`"ph": "X"`) slice per request, per
/// attributed stage, and per kernel sub-span. Stage slices inside the
/// execution window are an *attribution* view — decode/kernel/serialize
/// time drawn as consecutive slices, since the real intervals interleave.
/// Kernel sub-spans keep their true timestamps and render on a companion
/// `kernels` track so the two views never violate slice nesting.
pub fn chrome_trace_json(traces: &[FinishedTrace]) -> String {
    let mut out = ChromeTrace::new("fhe-serve");
    for t in traces {
        let tid = t.id;
        let slice = |out: &mut ChromeTrace, name: &str, ts, dur| {
            out.slice(tid, "request", name, ts, dur, &[]);
        };
        out.thread_name(tid, &format!("req {} {}", t.id, t.op));
        let request = format!("request:{} (status {})", t.op, t.status);
        slice(&mut out, &request, t.start_us, t.total_us.max(1));
        // Pre-execution spans at their true offsets: queue begins at
        // enqueue, then the request's pin phase, both clipped at the
        // execution window (a stage under a microsecond counts as one).
        let mut cursor = t.start_us + t.enqueued_us;
        let exec_start = t.start_us + t.exec_begin_us;
        for s in [Stage::Queue, Stage::Key] {
            let mut dur = t.stage_us(s);
            if t.exec_us > 0 {
                dur = dur.min(exec_start.saturating_sub(cursor));
            }
            if dur > 0 {
                slice(&mut out, s.name(), cursor, dur);
                cursor += dur;
            }
        }
        // Execution window with its attribution slices.
        if t.exec_us > 0 {
            slice(&mut out, "exec", exec_start, t.exec_us);
            let mut cursor = exec_start;
            for s in [Stage::Decode, Stage::Kernel, Stage::Serialize] {
                let dur = t
                    .stage_us(s)
                    .min(t.exec_us.saturating_sub(cursor - exec_start));
                if dur > 0 {
                    slice(&mut out, s.name(), cursor, dur);
                    cursor += dur;
                }
            }
        }
        // The write stage ends when the request does.
        let write_us = t.stage_us(Stage::Write);
        if write_us > 0 {
            let ts = (t.start_us + t.total_us).saturating_sub(write_us);
            slice(&mut out, "write", ts, write_us);
        }
        // Kernel sub-spans on a companion track, true timestamps.
        if !t.subspans.is_empty() {
            let ktid = t.id + KERNEL_TRACK_OFFSET;
            out.thread_name(ktid, &format!("req {} kernels", t.id));
            for s in &t.subspans {
                let dur = (s.end_us - s.begin_us).max(1);
                out.slice(ktid, "request", s.name, t.start_us + s.begin_us, dur, &[]);
            }
        }
    }
    out.finish()
}

/// Offset separating a request's attribution track from its
/// kernel-span track in the exported trace.
pub const KERNEL_TRACK_OFFSET: u64 = 1 << 32;

#[cfg(test)]
mod tests {
    use super::*;

    fn finished(id: u64, total_us: u64) -> FinishedTrace {
        let mut stages = [0u64; Stage::ALL.len()];
        stages[Stage::Kernel.index()] = total_us / 2;
        stages[Stage::Queue.index()] = total_us / 4;
        FinishedTrace {
            id,
            op: "rotate",
            status: 0,
            shard: 0,
            start_us: id * 1000,
            total_us,
            stages,
            enqueued_us: 1,
            exec_begin_us: total_us / 4,
            exec_us: total_us / 2,
            subspans: Vec::new(),
        }
    }

    #[test]
    fn ring_never_loses_the_slowest_request() {
        let ring = TraceRing::new(4);
        // The slowest request lands early, then a long burst of fast
        // requests wraps the ring many times over.
        ring.push(finished(1, 900_000));
        for id in 2..100 {
            ring.push(finished(id, 1_000 + id));
        }
        let slowest = ring.slowest().expect("retained");
        assert_eq!(slowest.id, 1);
        assert_eq!(slowest.total_us, 900_000);
        // The snapshot still surfaces it even though the ring proper
        // wrapped dozens of times.
        let snap = ring.snapshot();
        assert!(snap.iter().any(|t| t.id == 1));
        // And a new, slower request replaces it.
        ring.push(finished(200, 2_000_000));
        assert_eq!(ring.slowest().unwrap().id, 200);
    }

    #[test]
    fn dominant_stage_and_log_line() {
        let t = finished(7, 1_000);
        assert_eq!(t.dominant_stage(), Stage::Kernel);
        let line = t.log_line();
        assert!(line.starts_with("slow_request id=7 op=rotate status=0 total_us=1000"));
        assert!(line.contains("dominant=kernel"));
        for s in Stage::ALL {
            assert!(line.contains(&format!(" {}_us=", s.name())), "{line}");
        }
    }

    #[test]
    fn observer_records_and_thresholds() {
        let metrics = Metrics::new();
        let obs = Observer::new(ObsConfig {
            ring_capacity: 8,
            slow_threshold: Duration::ZERO,
        });
        let mut trace = obs.begin(Opcode::Add, 0);
        trace.mark_enqueued();
        trace.mark_picked();
        {
            let _g = obs.enter_exec(&metrics, &mut trace);
        }
        trace.add_stage(Stage::Decode, Duration::from_micros(5));
        obs.finish(&metrics, trace, 0);
        assert_eq!(obs.recent().len(), 1);
        assert_eq!(metrics.e2e_latency().count(), 1);
        assert_eq!(metrics.stage_latency(Stage::Decode).count(), 1);
        // Zero threshold: everything is a slow request.
        assert!(obs.slow_log().starts_with("slow_request id=1 op=add"));
    }

    /// The op-latency histogram is fed by the execution window alone:
    /// one observation when the guard drops, equal to the window the
    /// timeline records.
    #[test]
    fn the_execution_window_is_the_op_latency_clock() {
        let metrics = Metrics::new();
        let obs = Observer::new(ObsConfig::baseline());
        let mut trace = obs.begin(Opcode::Rotate, 0);
        {
            let _g = obs.enter_exec(&metrics, &mut trace);
            std::thread::sleep(Duration::from_millis(1));
            assert_eq!(metrics.latency(Opcode::Rotate).count(), 0);
        }
        let h = metrics.latency(Opcode::Rotate);
        assert_eq!(h.count(), 1);
        let exec_us = trace.exec_us;
        assert!(exec_us >= 1_000);
        assert_eq!(h.sum(), exec_us);
    }

    #[test]
    fn key_access_before_the_window_leaves_the_kernel_stage_whole() {
        let metrics = Metrics::new();
        let obs = Observer::new(ObsConfig::baseline());
        let mut trace = obs.begin(Opcode::Rotate, 0);
        trace.mark_enqueued();
        trace.mark_picked();
        // The request's pin phase runs before the execution window opens.
        let pin = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        trace.add_stage(Stage::Key, pin.elapsed());
        {
            let _g = obs.enter_exec(&metrics, &mut trace);
            time_stage(Stage::Decode, || {
                std::thread::sleep(Duration::from_micros(100))
            });
            std::thread::sleep(Duration::from_millis(2));
        }
        obs.finish(&metrics, trace, 0);
        let t = &obs.recent()[0];
        let rest = t.exec_us - t.stage_us(Stage::Decode) - t.stage_us(Stage::Serialize);
        assert!(t.stage_us(Stage::Key) >= 1_000);
        assert!(
            t.stage_us(Stage::Kernel) + 50 >= rest,
            "kernel {} understates exec − decode − serialize = {rest}",
            t.stage_us(Stage::Kernel)
        );
        // The exported key slice ends before the exec slice begins.
        let json = chrome_trace_json(&obs.recent());
        let slice = |name: &str| {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("no {name} slice"));
            let field = |f: &str| -> u64 {
                let rest = &line[line.find(f).expect("field") + f.len()..];
                rest[..rest.find(',').expect("comma")]
                    .parse()
                    .expect("number")
            };
            (field("\"ts\": "), field("\"dur\": "))
        };
        let ((key_ts, key_dur), (exec_ts, _)) = (slice("key"), slice("exec"));
        assert!(key_ts + key_dur <= exec_ts, "key slice overlaps exec");
    }

    #[test]
    fn stage_taxonomy_is_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["queue", "decode", "key", "kernel", "serialize", "write"]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn chrome_trace_json_is_balanced_and_ordered() {
        let traces = vec![finished(1, 1_000), finished(2, 2_000)];
        let json = chrome_trace_json(&traces);
        assert!(json.starts_with("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"name\": \"request:rotate (status 0)\""));
        assert!(json.contains("\"name\": \"kernel\""));
        assert!(json.contains("\"name\": \"queue\""));
    }

    #[test]
    fn a_request_keeps_its_first_subspans_up_to_the_cap() {
        let metrics = Metrics::new();
        let obs = Observer::new(ObsConfig::baseline());
        let mut trace = obs.begin(Opcode::RunProgram, 0);
        {
            let _g = obs.enter_exec(&metrics, &mut trace);
            let _outer = fhe_math::telemetry::span("outer");
            for _ in 0..SUBSPAN_CAP + 10 {
                drop(fhe_math::telemetry::span("inner"));
            }
        }
        // Spans opened once the guard is gone belong to no request.
        drop(fhe_math::telemetry::span("late"));
        obs.finish(&metrics, trace, 0);
        let t = &obs.recent()[0];
        assert_eq!(t.subspans.len(), SUBSPAN_CAP);
        assert_eq!(t.subspans[0].name, "outer");
        assert!(t.subspans[1..].iter().all(|s| s.name == "inner"));
        let exec_end = t.exec_begin_us + t.exec_us + 1;
        for s in &t.subspans {
            assert!(t.exec_begin_us <= s.begin_us && s.begin_us <= s.end_us);
            assert!(s.end_us <= exec_end, "{s:?} ends after exec ({exec_end})");
        }
    }
}
