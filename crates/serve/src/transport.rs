//! Transport: the acceptor, the per-shard readiness loop, connection
//! state, framing, and session-to-shard routing.
//!
//! - The **acceptor** owns a nonblocking listener and deals fresh
//!   connections round-robin across the shard loops.
//! - Each **shard loop** drives all of its connections from one thread
//!   with readiness-based nonblocking I/O: read a frame's length prefix,
//!   then exactly the rest of that frame, straight into the connection's
//!   frame buffer; plan the request's keys ([`KeyPlan::of`]) and hand the
//!   buffer itself to the job — the body is never copied out of it — to
//!   the shard's worker queue with one `try_send` ([`dispatch`]; a full
//!   queue is answered immediately with [`ErrorCode::Overloaded`] —
//!   backpressure, never buffering); then write out the reply frame the
//!   worker built, as it is, when it comes back. A connection's two
//!   buffers make that round trip with every request, so it allocates
//!   for its largest request and reply once. Each connection still sees
//!   strict request/response ordering. An idle loop sleeps on a condvar
//!   the workers ping after every completed request, so replies flush
//!   without polling latency.
//! - **Routing** is consistent hashing of the session id
//!   ([`crate::shard::shard_of`]): `Hello` mints an id that hashes to
//!   the shard that accepted the connection, and every keyed frame whose
//!   session lives elsewhere migrates its connection to the owning shard
//!   at a frame boundary, so a tenant's keys, cache entries and programs
//!   live on exactly one shard.

use crate::fault::FaultDecision;
use crate::obs::{RequestTrace, Stage};
use crate::plan::KeyPlan;
use crate::protocol::{
    begin_frame, finish_frame, peek_frame, read_into, ErrorCode, FrameStatus, Opcode,
    FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use crate::sched::{dispatch, Job, Reply};
use crate::server::{ServerState, SharedState};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A connection in flight between threads: the acceptor hands fresh
/// sockets to a shard, and a shard migrates a connection (with any bytes
/// it already buffered) to the shard that owns its session.
pub(crate) struct RoutedConn {
    stream: TcpStream,
    read_buf: Vec<u8>,
}

/// The wake-up channel between a shard's workers and its loop: workers
/// bump the sequence number after every completed request, and the
/// loop sleeps on the condvar only while the sequence is unchanged —
/// a reply can never slip between "checked the channel" and "went to
/// sleep".
#[derive(Default)]
pub(crate) struct ReplySignal {
    seq: Mutex<u64>,
    cv: Condvar,
}

impl ReplySignal {
    pub(crate) fn notify(&self) {
        *self.seq.lock().expect("signal poisoned") += 1;
        self.cv.notify_all();
    }

    /// Sleeps until the sequence moves past `last_seen` or `timeout`
    /// elapses, then records the current sequence in `last_seen`.
    fn wait_if_unchanged(&self, last_seen: &mut u64, timeout: Duration) {
        let mut seq = self.seq.lock().expect("signal poisoned");
        if *seq == *last_seen {
            seq = self
                .cv
                .wait_timeout(seq, timeout)
                .expect("signal poisoned")
                .0;
        }
        *last_seen = *seq;
    }
}

/// A reply the shard loop is waiting on from the worker pool.
struct PendingReply {
    rx: Receiver<Reply>,
    trace: Arc<RequestTrace>,
    /// A write-abort fault drawn for this request, applied when the
    /// reply comes back.
    write_fault: Option<FaultDecision>,
}

/// Per-connection state machine driven by the owning shard loop.
struct Conn {
    stream: TcpStream,
    /// The frame being received, and never a byte past its end: reads
    /// stop at the frame boundary, so the buffer goes to the worker whole
    /// and comes back empty. Away (empty, no capacity) while a job has it.
    read_buf: Vec<u8>,
    /// The reply frame being written. Handed, drained, to the next job to
    /// build its reply in.
    write_buf: Vec<u8>,
    write_pos: usize,
    pending: Option<PendingReply>,
    /// A trace to finish once the reply flushes: its status, and when
    /// the reply entered the write buffer — the write stage runs from
    /// reply pickup to flush completion.
    finishing: Option<(Arc<RequestTrace>, u8, Instant)>,
    /// Close once the write buffer drains (oversize frames, torn-write
    /// faults).
    close_after_flush: bool,
    /// The peer half-closed its sending side; drain what's owed, then
    /// drop.
    peer_closed: bool,
}

impl Conn {
    fn new(routed: RoutedConn) -> Self {
        Conn {
            stream: routed.stream,
            read_buf: routed.read_buf,
            write_buf: Vec::new(),
            write_pos: 0,
            pending: None,
            finishing: None,
            close_after_flush: false,
            peer_closed: false,
        }
    }
}

/// What one tick of [`step_conn`] decided about a connection.
enum ConnVerdict {
    /// Still alive; `progressed` is whether anything moved this tick.
    Keep { progressed: bool },
    /// Close the socket.
    Drop,
    /// Migrate the connection to the shard owning its session.
    Route(usize),
}

/// The acceptor thread: deals fresh connections round-robin across the
/// shard loops until shutdown, then drops the listener (closing the
/// port).
pub(crate) fn accept_loop(
    shared: &SharedState,
    listener: &TcpListener,
    shutdown: &AtomicBool,
    conn_txs: &[Sender<RoutedConn>],
) {
    let mut next = 0usize;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared
                    .metrics
                    .connections_total
                    .fetch_add(1, Ordering::Relaxed);
                let routed = RoutedConn {
                    stream,
                    read_buf: Vec::new(),
                };
                let _ = conn_txs[next % conn_txs.len()].send(routed);
                next = next.wrapping_add(1);
            }
            // Nothing to accept (or a transient accept error): nap and
            // poll the shutdown flag.
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// One shard's event loop: adopt incoming connections, drive each one a
/// step, migrate mis-placed connections, and park on the reply condvar
/// when nothing moved. Returning drops `work`, the worker queue's only
/// sender, which ends the shard's workers.
pub(crate) fn shard_loop(
    state: &ServerState,
    shutdown: &AtomicBool,
    work: SyncSender<Job>,
    conn_rx: &Receiver<RoutedConn>,
    conn_txs: &[Sender<RoutedConn>],
    signal: &ReplySignal,
    max_frame: u32,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut last_seq = 0u64;
    let mut last_active = Instant::now();
    loop {
        let shutting_down = shutdown.load(Ordering::SeqCst);
        while let Ok(routed) = conn_rx.try_recv() {
            let _ = routed.stream.set_nonblocking(true);
            let _ = routed.stream.set_nodelay(true);
            conns.push(Conn::new(routed));
        }
        if shutting_down && conns.is_empty() {
            break;
        }
        let mut progressed = false;
        let mut any_pending = false;
        let mut i = 0;
        while i < conns.len() {
            match step_conn(state, &work, &mut conns[i], shutting_down, max_frame) {
                ConnVerdict::Keep { progressed: p } => {
                    progressed |= p;
                    any_pending |= conns[i].pending.is_some() || !conns[i].write_buf.is_empty();
                    i += 1;
                }
                ConnVerdict::Drop => {
                    conns.swap_remove(i);
                    progressed = true;
                }
                ConnVerdict::Route(target) => {
                    let conn = conns.swap_remove(i);
                    // A failed send means the target loop is gone
                    // (shutdown race); the connection drops with it.
                    let _ = conn_txs[target].send(RoutedConn {
                        stream: conn.stream,
                        read_buf: conn.read_buf,
                    });
                    progressed = true;
                }
            }
        }
        if progressed {
            last_active = Instant::now();
            continue;
        }
        // Nothing moved. With a reply in flight the condvar ping is the
        // real wake signal and the timeout only a fallback; right after
        // activity, stay hot for the closed-loop turnaround; otherwise
        // settle into a lazy poll for new connections.
        let timeout = if any_pending {
            Duration::from_micros(500)
        } else if last_active.elapsed() < Duration::from_millis(5) {
            Duration::from_micros(50)
        } else {
            Duration::from_millis(2)
        };
        signal.wait_if_unchanged(&mut last_seq, timeout);
    }
}

/// Advances one connection as far as it will go without blocking:
/// collect a finished reply, flush the write buffer, then (only when the
/// reply pipeline is empty) read and act on the next frame.
fn step_conn(
    state: &ServerState,
    work: &SyncSender<Job>,
    conn: &mut Conn,
    shutting_down: bool,
    max_frame: u32,
) -> ConnVerdict {
    let mut progressed = false;

    // 1. Reply pickup: the worker finished, adopt its reply into the
    //    write buffer.
    if let Some(pending) = &conn.pending {
        use std::sync::mpsc::TryRecvError;
        let reply = match pending.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                let mut frame = Vec::new();
                begin_frame(&mut frame);
                frame.extend_from_slice(b"worker dropped the request");
                Some(Reply {
                    status: ErrorCode::Internal as u8,
                    frame,
                    spent: Vec::new(),
                })
            }
        };
        if let Some(reply) = reply {
            let pending = conn.pending.take().expect("just checked");
            adopt_reply(state, conn, pending, reply);
            progressed = true;
        }
    }

    // 2. Flush whatever the socket will take.
    while conn.write_pos < conn.write_buf.len() {
        match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => return write_failed(state, conn),
            Ok(n) => {
                conn.write_pos += n;
                progressed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return ConnVerdict::Keep { progressed };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return write_failed(state, conn),
        }
    }
    if !conn.write_buf.is_empty() {
        // Fully flushed.
        conn.write_buf.clear();
        conn.write_pos = 0;
        finish_trace(state, conn);
        if conn.close_after_flush {
            return ConnVerdict::Drop;
        }
        progressed = true;
    }

    // 3. Strict request/response order: no new frame while a reply is
    //    owed.
    if conn.pending.is_some() {
        return ConnVerdict::Keep { progressed };
    }
    if shutting_down {
        return ConnVerdict::Drop;
    }

    // 4. Pull in ready bytes, but only those of the frame we still need:
    //    the rest of its length prefix, then — once the prefix has passed
    //    the size check — exactly the rest of the frame.
    while !conn.peer_closed {
        let want = missing(&conn.read_buf, max_frame);
        if want == 0 {
            break;
        }
        let held = conn.read_buf.len();
        let read = read_into(&mut &conn.stream, &mut conn.read_buf, want);
        progressed |= conn.read_buf.len() > held;
        match read {
            Ok(n) => conn.peer_closed = n < want,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(_) => return ConnVerdict::Drop,
        }
    }

    // 5. Act on the frame boundary.
    match peek_frame(&conn.read_buf, max_frame) {
        FrameStatus::Incomplete => {
            if conn.peer_closed {
                // Clean EOF or a torn partial frame: either way the
                // conversation is over.
                return ConnVerdict::Drop;
            }
            ConnVerdict::Keep { progressed }
        }
        FrameStatus::Corrupt => ConnVerdict::Drop,
        FrameStatus::TooLarge(len) => {
            // The unread body leaves the stream out of sync: answer,
            // then drop the connection once the reply flushes.
            let msg = format!("frame of {len} bytes exceeds limit {max_frame}");
            conn.close_after_flush = true;
            reject(state, conn, ErrorCode::FrameTooLarge, msg)
        }
        FrameStatus::Ready { wire_len } => {
            debug_assert_eq!(wire_len, conn.read_buf.len(), "read past the frame");
            // Frame boundaries are the only safe migration points: no
            // reply owed, nothing half-written, nothing half-read beyond
            // buffered bytes that travel with the connection.
            if let Some(target) = route_target(state, &conn.read_buf) {
                return ConnVerdict::Route(target);
            }
            let frame = std::mem::take(&mut conn.read_buf);
            process_frame(state, work, conn, frame)
        }
    }
}

/// Closes the books on the trace of the reply that just left the write
/// buffer: the write stage ends here, and only now is the request's
/// timeline complete.
fn finish_trace(state: &ServerState, conn: &mut Conn) {
    if let Some((trace, status, started)) = conn.finishing.take() {
        trace.add_stage(Stage::Write, started.elapsed());
        state.obs.finish(&state.metrics, &trace, status);
    }
}

/// A reply write failed mid-flush: finish the trace exactly like a
/// successful write would (the reply *was* produced), then drop.
fn write_failed(state: &ServerState, conn: &mut Conn) -> ConnVerdict {
    finish_trace(state, conn);
    ConnVerdict::Drop
}

/// Bytes the frame at the front of `buf` still lacks: the rest of its
/// length prefix, then the rest of what the prefix announces. Zero once
/// [`peek_frame`] has a verdict — complete, or refused on its length
/// alone, so an oversize announcement is never read (or reserved) for.
fn missing(buf: &[u8], max_frame: u32) -> usize {
    match (peek_frame(buf, max_frame), buf.first_chunk::<4>()) {
        (FrameStatus::Incomplete, None) => 4 - buf.len(),
        (FrameStatus::Incomplete, Some(len)) => 4 + u32::from_le_bytes(*len) as usize - buf.len(),
        _ => 0,
    }
}

/// Queues `frame` — begun with [`begin_frame`], body appended — as the
/// connection's reply under `status`. Error and byte accounting happen
/// here — at queue time, mirroring the blocking server which counted
/// before the write.
fn queue_reply(state: &ServerState, conn: &mut Conn, status: u8, mut frame: Vec<u8>) {
    if status != 0 {
        state.metrics.errors_total.fetch_add(1, Ordering::Relaxed);
    }
    state
        .metrics
        .bytes_written
        .fetch_add(frame.len() as u64, Ordering::Relaxed);
    finish_frame(&mut frame, status);
    conn.write_buf = frame;
    conn.write_pos = 0;
}

/// Answers a frame locally with a structured error (protocol errors,
/// overload pushback), built in the connection's own reply buffer.
fn reject(
    state: &ServerState,
    conn: &mut Conn,
    code: ErrorCode,
    msg: impl AsRef<str>,
) -> ConnVerdict {
    let mut frame = std::mem::take(&mut conn.write_buf);
    begin_frame(&mut frame);
    frame.extend_from_slice(msg.as_ref().as_bytes());
    queue_reply(state, conn, code as u8, frame);
    ConnVerdict::Keep { progressed: true }
}

/// Answers `frame` locally, as [`reject`] does: it goes no further, so its
/// buffer is the connection's again.
fn refuse(
    state: &ServerState,
    conn: &mut Conn,
    mut frame: Vec<u8>,
    code: ErrorCode,
    msg: impl AsRef<str>,
) -> ConnVerdict {
    frame.clear();
    conn.read_buf = frame;
    reject(state, conn, code, msg)
}

/// Adopts a worker's reply frame as the connection's write buffer — no
/// copy — and takes the spent request buffer back for the next read
/// (unless it held an upload, [`Opcode::is_upload`]), arming the write-stage clock and the trace hand-off (or the torn-write
/// fault, which abandons the trace — a reply that never made it is not
/// timeline data).
fn adopt_reply(state: &ServerState, conn: &mut Conn, pending: PendingReply, reply: Reply) {
    let Reply {
        status,
        frame,
        mut spent,
    } = reply;
    // The spent frame still names its opcode.
    let tag = spent.get(FRAME_HEADER_LEN - 1).copied();
    if tag.and_then(Opcode::from_u8).is_some_and(Opcode::is_upload) {
        spent = Vec::new();
    }
    spent.clear();
    conn.read_buf = spent;
    if let Some(FaultDecision::WriteAbort { keep }) = pending.write_fault {
        // Torn frame: a strict prefix of the real response, then the
        // connection drops. No error/byte accounting — the blocking
        // server's abort path skipped its `respond` helper entirely.
        let mut frame = frame;
        finish_frame(&mut frame, status);
        frame.truncate(keep.min(frame.len().saturating_sub(1)));
        conn.write_buf = frame;
        conn.write_pos = 0;
        conn.close_after_flush = true;
        return;
    }
    queue_reply(state, conn, status, frame);
    conn.finishing = Some((pending.trace, status, Instant::now()));
}

/// Decides whether the buffered (complete) frame belongs to another
/// shard: keyed ops carry their session id in the first 8 body bytes,
/// and the id's consistent hash names the owner. Session-less ops
/// (Hello, Metrics, TraceDump) and malformed-looking frames stay local —
/// the local handler produces the correct structured error.
fn route_target(state: &ServerState, buf: &[u8]) -> Option<usize> {
    if state.shards.len() <= 1 {
        return None;
    }
    if buf[4] != PROTOCOL_VERSION {
        return None;
    }
    let op = Opcode::from_u8(buf[5])?;
    if matches!(op, Opcode::Hello | Opcode::Metrics | Opcode::TraceDump) {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("peeked Ready")) as usize;
    if len < 10 {
        // Body shorter than a session id: rejected locally as malformed.
        return None;
    }
    let sid = u64::from_le_bytes(buf[6..14].try_into().expect("length checked"));
    let target = crate::shard::shard_of(sid, state.shards.len());
    (target != state.shard).then_some(target)
}

/// Parses and dispatches one frame on the owning shard: protocol errors
/// answer locally, chaos draws exactly one decision, everything else
/// becomes a job — its key plan attached, the frame buffer and the
/// connection's drained reply buffer along for the ride — on this
/// shard's worker queue.
fn process_frame(
    state: &ServerState,
    work: &SyncSender<Job>,
    conn: &mut Conn,
    frame: Vec<u8>,
) -> ConnVerdict {
    state
        .metrics
        .bytes_read
        .fetch_add(frame.len() as u64, Ordering::Relaxed);
    let (version, tag) = (frame[4], frame[5]);
    if version != PROTOCOL_VERSION {
        let msg = format!("version {version} unsupported");
        return refuse(state, conn, frame, ErrorCode::UnsupportedVersion, msg);
    }
    let Some(op) = Opcode::from_u8(tag) else {
        let msg = format!("opcode {tag:#04x}");
        return refuse(state, conn, frame, ErrorCode::UnknownOpcode, msg);
    };
    // Chaos: with a plan, exactly one decision per parsed frame, drawn
    // on the owning shard (routing happens before the frame is "read").
    // Loop-side faults act right here; worker-side faults ride on the
    // job; write aborts fire when the reply comes back.
    let (mut worker_fault, mut write_fault) = (None, None);
    if let Some(plan) = &state.fault {
        if let Some(fault) = plan.decide(op) {
            state
                .metrics
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            match fault {
                // A failed socket read: the connection dies with no
                // reply at all.
                FaultDecision::ReadError => return ConnVerdict::Drop,
                // Synthetic admission-control pushback.
                FaultDecision::Overloaded => {
                    state
                        .metrics
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    let msg = "injected overload, retry later";
                    return refuse(state, conn, frame, ErrorCode::Overloaded, msg);
                }
                FaultDecision::WriteAbort { .. } => write_fault = Some(fault),
                other => worker_fault = Some(other),
            }
        }
    }
    let (reply_tx, reply_rx) = std::sync::mpsc::channel();
    let trace = state.obs.begin(op, state.shard as u32);
    let job = Job {
        op,
        plan: KeyPlan::of(&state.ctx, &state.sessions, op, &frame[FRAME_HEADER_LEN..]),
        frame,
        out: std::mem::take(&mut conn.write_buf),
        deadline_start: Instant::now(),
        reply: reply_tx,
        trace: trace.clone(),
        chaos: worker_fault,
    };
    match dispatch(work, &state.metrics, job) {
        Ok(()) => {
            state.shards[state.shard]
                .requests
                .fetch_add(1, Ordering::Relaxed);
            conn.pending = Some(PendingReply {
                rx: reply_rx,
                trace,
                write_fault,
            });
            ConnVerdict::Keep { progressed: true }
        }
        Err(TrySendError::Full(job)) => {
            state
                .metrics
                .rejected_overload
                .fetch_add(1, Ordering::Relaxed);
            conn.write_buf = job.out;
            let msg = "queue full, retry later";
            refuse(state, conn, job.frame, ErrorCode::Overloaded, msg)
        }
        Err(TrySendError::Disconnected(_)) => ConnVerdict::Drop,
    }
}
