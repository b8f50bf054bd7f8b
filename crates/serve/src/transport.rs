//! Transport: the acceptor, one blocking thread per connection, framing,
//! and session-to-shard routing.
//!
//! - The **acceptor** blocks in `accept` and gives each fresh connection
//!   a home shard, round-robin, and a thread of its own. Between
//!   connections it sleeps in the kernel: shutdown wakes it with one
//!   connect to its own port, and only a failed `accept` naps before the
//!   next try.
//! - Each **connection thread** runs the requests it reads. It reads one
//!   frame with the blocking reader the client uses ([`read_frame_into`]),
//!   straight into the connection's request buffer; checks its header;
//!   enters the gate of the shard that owns the request
//!   ([`crate::sched::Gate`]; a full line is answered at once with
//!   [`ErrorCode::Overloaded`] — backpressure, never buffering); runs it
//!   there, the body never copied out of that buffer, building the reply
//!   frame in the connection's reply buffer ([`crate::sched::run`]); frees
//!   the permit; writes the reply; and only then reads the next frame, so
//!   each connection sees strict request/response ordering and allocates
//!   for its largest request and reply once.
//! - **Routing** is consistent hashing of the session id
//!   ([`crate::shard::shard_of`]): a keyed frame runs on the shard that
//!   owns its session, and `Hello`, `Metrics` and `TraceDump` on the
//!   connection's home shard, whose `Hello` mints an id that hashes back
//!   to it. A tenant's keys, cache entries and programs live on exactly
//!   one shard, whichever connection drives them.

use crate::fault::FaultDecision;
use crate::obs::Stage;
use crate::protocol::{
    begin_frame, finish_frame, read_frame_into, split_session, ErrorCode, FrameRead, Opcode,
    FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use crate::sched::run;
use crate::server::ServerState;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the acceptor and every connection thread share.
pub(crate) struct Transport {
    /// Each shard's view of the server, by shard id; every view shares
    /// one `SharedState` (metrics, tracing, the fault plan).
    shards: Vec<ServerState>,
    max_frame: u32,
    pub(crate) shutdown: AtomicBool,
    /// A handle on each open connection's socket, by connection number, so
    /// shutdown can end the reads blocked on them.
    open: Mutex<HashMap<u64, TcpStream>>,
}

impl Transport {
    pub(crate) fn new(shards: Vec<ServerState>, max_frame: u32) -> Self {
        Transport {
            shards,
            max_frame,
            shutdown: AtomicBool::new(false),
            open: Mutex::default(),
        }
    }

    fn open(&self) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.open.lock().expect("connection table poisoned")
    }

    /// Shuts the read side of every open connection: a thread blocked
    /// reading between frames sees end of stream and closes, one blocked
    /// mid-frame closes unanswered, and one running a request still
    /// writes the reply it owes.
    pub(crate) fn close_reads(&self) {
        for stream in self.open().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// The acceptor thread: gives each fresh connection a home shard,
/// round-robin, and a thread, until shutdown — the connection that wakes
/// it then is not served; then drops the listener (closing the port) and
/// returns the connection threads still running.
pub(crate) fn accept_loop(
    transport: &Arc<Transport>,
    listener: TcpListener,
) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next = 0u64;
    loop {
        let accepted = listener.accept();
        if transport.shutdown.load(Ordering::SeqCst) {
            return conns;
        }
        let Ok((stream, _peer)) = accepted else {
            // An accept error (out of file descriptors, say) would recur
            // at once: nap so it cannot spin the thread.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        transport.shards[0]
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        // Closed connections' threads have ended: reap them.
        for closed in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = closed.join();
        }
        let (id, home) = (next, (next % transport.shards.len() as u64) as usize);
        next += 1;
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        transport.open().insert(id, handle);
        let t = transport.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("serve-conn-{id}"))
            .spawn(move || {
                let _ = serve_conn(&t, &stream, home);
                t.open().remove(&id);
            });
        match spawned {
            Ok(conn) => conns.push(conn),
            // No thread to serve it: the connection closes unanswered.
            Err(_) => drop(transport.open().remove(&id)),
        }
    }
}

/// One connection's thread: read a frame, run it on the shard that owns
/// it and write the reply — until the peer closes, a read or write fails,
/// or the server shuts down between frames.
fn serve_conn(t: &Transport, mut stream: &TcpStream, home: usize) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let shared = &t.shards[home].shared;
    let metrics = &shared.metrics;
    // The frame being read, and the reply being built.
    let (mut request, mut reply) = (Vec::new(), Vec::new());
    while !t.shutdown.load(Ordering::SeqCst) {
        let read = read_frame_into(&mut stream, t.max_frame, std::mem::take(&mut request))?;
        let frame = match read {
            FrameRead::Frame(frame) => frame,
            FrameRead::Eof => return Ok(()),
            FrameRead::TooLarge(len) => {
                // The unread body leaves the stream out of sync: answer,
                // then close.
                let msg = format!("frame of {len} bytes exceeds limit {}", t.max_frame);
                return refuse(t, stream, &mut reply, ErrorCode::FrameTooLarge, &msg);
            }
        };
        let (version, tag) = (frame.version, frame.tag);
        request = frame.body;
        metrics
            .bytes_read
            .fetch_add((FRAME_HEADER_LEN + request.len()) as u64, Ordering::Relaxed);
        if version != PROTOCOL_VERSION {
            let msg = format!("version {version} unsupported");
            refuse(t, stream, &mut reply, ErrorCode::UnsupportedVersion, &msg)?;
            continue;
        }
        let Some(op) = Opcode::from_u8(tag) else {
            let msg = format!("opcode {tag:#04x}");
            refuse(t, stream, &mut reply, ErrorCode::UnknownOpcode, &msg)?;
            continue;
        };
        // Chaos: with a plan, exactly one decision per parsed frame.
        // Read-side faults act right here; worker-side faults once the
        // request holds its permit; a write abort when the reply is built.
        let (mut chaos, mut write_abort) = (None, None);
        if let Some(fault) = shared.fault.as_ref().and_then(|plan| plan.decide(op)) {
            metrics.faults_injected.fetch_add(1, Ordering::Relaxed);
            match fault {
                // A failed socket read: the connection dies with no reply
                // at all.
                FaultDecision::ReadError => return Ok(()),
                // Synthetic admission-control pushback.
                FaultDecision::Overloaded => {
                    metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                    let msg = "injected overload, retry later";
                    refuse(t, stream, &mut reply, ErrorCode::Overloaded, msg)?;
                    continue;
                }
                FaultDecision::WriteAbort { keep } => write_abort = Some(keep),
                other => chaos = Some(other),
            }
        }
        let shard = owner(op, &request, t.shards.len()).unwrap_or(home);
        let state = &t.shards[shard];
        let mut trace = shared.obs.begin(op, shard as u32);
        let status = {
            let Some(_permit) = state.shards[shard].gate.enter(metrics, &mut trace) else {
                let msg = "queue full, retry later";
                refuse(t, stream, &mut reply, ErrorCode::Overloaded, msg)?;
                continue;
            };
            run(state, op, &request, &mut trace, chaos, &mut reply)
            // The permit is freed here: the reply is built, and a client
            // that stops reading holds no execution slot.
        };
        if op.is_upload() {
            // The largest and rarest frames a session sends: not kept.
            request = Vec::new();
        }
        if let Some(keep) = write_abort {
            // Torn frame: a strict prefix of the real reply, then the
            // connection drops. No error or byte accounting, and the trace
            // is abandoned — a reply that never made it is not timeline
            // data.
            finish_frame(&mut reply, status);
            reply.truncate(keep.min(reply.len().saturating_sub(1)));
            return stream.write_all(&reply);
        }
        let built = Instant::now();
        let written = send(t, stream, &mut reply, status);
        // The write stage runs from the built reply to the last byte taken
        // by the socket. A failed write finishes the trace all the same:
        // the reply was produced.
        trace.add_stage(Stage::Write, built.elapsed());
        shared.obs.finish(metrics, trace, status);
        written?;
    }
    Ok(())
}

/// The shard a keyed frame's session lives on; `None` — the connection's
/// home shard — for `Hello`, `Metrics` and `TraceDump`, and for a body too
/// short to name a session, which [`run`] rejects as malformed.
fn owner(op: Opcode, body: &[u8], shards: usize) -> Option<usize> {
    let (sid, _) = split_session(body).filter(|_| op.has_session())?;
    Some(crate::shard::shard_of(sid, shards))
}

/// Writes `frame` — begun with [`begin_frame`], body appended — as a reply
/// under `status`, counting it (as an error, unless `status` is zero, and
/// in written bytes) before the write.
fn send(
    t: &Transport,
    mut stream: &TcpStream,
    frame: &mut [u8],
    status: u8,
) -> std::io::Result<()> {
    let metrics = &t.shards[0].metrics;
    if status != 0 {
        metrics.errors_total.fetch_add(1, Ordering::Relaxed);
    }
    metrics
        .bytes_written
        .fetch_add(frame.len() as u64, Ordering::Relaxed);
    finish_frame(frame, status);
    stream.write_all(frame)
}

/// Answers a frame on the connection's own thread with a structured error
/// (protocol errors, overload pushback), built in its reply buffer.
fn refuse(
    t: &Transport,
    stream: &TcpStream,
    reply: &mut Vec<u8>,
    code: ErrorCode,
    msg: &str,
) -> std::io::Result<()> {
    begin_frame(reply);
    reply.extend_from_slice(msg.as_bytes());
    send(t, stream, reply, code as u8)
}
