//! Transport: the acceptor, one blocking thread per connection, framing,
//! and session-to-shard routing.
//!
//! - The **acceptor** polls a nonblocking listener (a 2 ms nap between
//!   empty polls, so it notices shutdown) and gives each fresh connection
//!   a home shard, round-robin, and a thread of its own.
//! - Each **connection thread** reads one frame with the blocking reader
//!   the client uses ([`read_frame_into`]), straight into the connection's
//!   request buffer; checks its header and sends the body — never copied
//!   out of that buffer — to one shard's bounded worker queue with one
//!   `try_send` ([`dispatch`]; a full queue is answered at once with
//!   [`ErrorCode::Overloaded`] — backpressure, never buffering); blocks on
//!   the one reply channel it made; writes the reply frame the worker
//!   built, as it is; and only then reads the next frame, so each
//!   connection sees strict request/response ordering. The connection's
//!   two buffers make that round trip with every request, so it allocates
//!   for its largest request and reply once.
//! - **Routing** is consistent hashing of the session id
//!   ([`crate::shard::shard_of`]): a keyed frame goes to the queue of the
//!   shard that owns its session, and `Hello`, `Metrics` and `TraceDump`
//!   to the connection's home shard, whose `Hello` mints an id that hashes
//!   back to it. A tenant's keys, cache entries and programs live on
//!   exactly one shard, whichever connection drives them.

use crate::fault::FaultDecision;
use crate::obs::Stage;
use crate::protocol::{
    begin_frame, finish_frame, read_frame_into, split_session, ErrorCode, FrameRead, Opcode,
    FRAME_HEADER_LEN, PROTOCOL_VERSION,
};
use crate::sched::{dispatch, Job, Reply};
use crate::server::SharedState;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the acceptor and every connection thread share.
pub(crate) struct Transport {
    shared: Arc<SharedState>,
    /// Each shard's worker queue, by shard id. These are the only senders:
    /// once the server, the acceptor and every connection thread have let
    /// go of the transport, the workers drain their queues and exit.
    queues: Vec<SyncSender<Job>>,
    max_frame: u32,
    pub(crate) shutdown: AtomicBool,
    /// A handle on each open connection's socket, by connection number, so
    /// shutdown can end the reads blocked on them.
    open: Mutex<HashMap<u64, TcpStream>>,
}

impl Transport {
    pub(crate) fn new(
        shared: Arc<SharedState>,
        queues: Vec<SyncSender<Job>>,
        max_frame: u32,
    ) -> Self {
        Transport {
            shared,
            queues,
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
    /// mid-frame closes unanswered, and one waiting on a worker still
    /// writes the reply it owes.
    pub(crate) fn close_reads(&self) {
        for stream in self.open().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// The acceptor thread: gives each fresh connection a home shard,
/// round-robin, and a thread, until shutdown; then drops the listener
/// (closing the port) and returns the connection threads still running.
pub(crate) fn accept_loop(
    transport: &Arc<Transport>,
    listener: TcpListener,
) -> Vec<JoinHandle<()>> {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let mut next = 0u64;
    while !transport.shutdown.load(Ordering::SeqCst) {
        let Ok((stream, _peer)) = listener.accept() else {
            // Nothing to accept (or a transient accept error): nap and
            // poll the shutdown flag.
            std::thread::sleep(Duration::from_millis(2));
            continue;
        };
        transport
            .shared
            .metrics
            .connections_total
            .fetch_add(1, Ordering::Relaxed);
        // Closed connections' threads have ended: reap them.
        for closed in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = closed.join();
        }
        let (id, home) = (next, (next % transport.queues.len() as u64) as usize);
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
    conns
}

/// One connection's thread: read a frame, send it to its shard's worker
/// queue, wait for the reply and write it — until the peer closes, a read
/// or write fails, or the server shuts down between frames.
fn serve_conn(t: &Transport, mut stream: &TcpStream, home: usize) -> std::io::Result<()> {
    // The listener is nonblocking, and some platforms hand its sockets
    // over the same way.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    let metrics = &t.shared.metrics;
    // The reply sender travels with each job and back with its reply; a
    // job dropped unanswered takes it along and disconnects the channel.
    let (reply_to, replies) = std::sync::mpsc::channel();
    let mut reply_to = Some(reply_to);
    // The frame being read, and the reply being built: each rides to the
    // worker and back with every request.
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
        // Read-side faults act right here; worker-side faults ride on the
        // job; a write abort fires when the reply comes back.
        let (mut chaos, mut write_abort) = (None, None);
        if let Some(fault) = t.shared.fault.as_ref().and_then(|plan| plan.decide(op)) {
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
        let shard = owner(op, &request, t.queues.len()).unwrap_or(home);
        let trace = t.shared.obs.begin(op, shard as u32);
        let job = Job {
            op,
            body: std::mem::take(&mut request),
            out: std::mem::take(&mut reply),
            deadline_start: Instant::now(),
            reply: reply_to
                .take()
                .expect("the reply sender is back between requests"),
            trace: trace.clone(),
            chaos,
        };
        match dispatch(&t.queues[shard], metrics, job) {
            Ok(()) => {
                t.shared.shards[shard]
                    .requests
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(job)) => {
                metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
                (request, reply, reply_to) = (job.body, job.out, Some(job.reply));
                refuse(
                    t,
                    stream,
                    &mut reply,
                    ErrorCode::Overloaded,
                    "queue full, retry later",
                )?;
                continue;
            }
            // The workers are gone (a shutdown race): drop the connection.
            Err(TrySendError::Disconnected(_)) => return Ok(()),
        }
        let Ok(Reply {
            status,
            mut frame,
            spent,
            reply_to: back,
        }) = replies.recv()
        else {
            // The job was dropped unanswered, its worker dead outside the
            // panic guard, and the reply sender with it: answer, and close.
            let msg = "worker dropped the request";
            return refuse(t, stream, &mut reply, ErrorCode::Internal, msg);
        };
        reply_to = Some(back);
        if !op.is_upload() {
            request = spent;
        }
        if let Some(keep) = write_abort {
            // Torn frame: a strict prefix of the real reply, then the
            // connection drops. No error or byte accounting, and the trace
            // is abandoned — a reply that never made it is not timeline
            // data.
            finish_frame(&mut frame, status);
            frame.truncate(keep.min(frame.len().saturating_sub(1)));
            return stream.write_all(&frame);
        }
        let picked = Instant::now();
        let written = send(t, stream, &mut frame, status);
        // The write stage runs from reply pickup to the last byte taken by
        // the socket. A failed write finishes the trace all the same: the
        // reply was produced.
        trace.add_stage(Stage::Write, picked.elapsed());
        t.shared.obs.finish(metrics, &trace, status);
        written?;
        reply = frame;
    }
    Ok(())
}

/// The shard a keyed frame's session lives on; `None` — the connection's
/// home shard — for `Hello`, `Metrics` and `TraceDump`, and for a body too
/// short to name a session, which the worker rejects as malformed.
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
    let metrics = &t.shared.metrics;
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
