//! Scheduling: the one send path onto a shard's worker queue, and the
//! worker pool behind it.
//!
//! Every request reaches a worker the same way: its connection's thread
//! checks the frame header and hands the body to [`dispatch`] — one
//! `try_send` on the owning shard's bounded queue, so a full queue is
//! answered at once with `Overloaded`. Every request executes the same
//! way too: a worker decodes its body once, pins the keys it plans from
//! what it decoded, runs it, and unpins.
//!
//! **Workers** pop jobs, drop any whose deadline passed while queued, and
//! run ops under `catch_unwind` so a panic becomes a structured
//! [`ErrorCode::Internal`] instead of a dead worker.

use crate::exec::{decode, execute};
use crate::fault::FaultDecision;
use crate::metrics::Metrics;
use crate::obs::{RequestTrace, Stage};
use crate::plan::PinnedKeys;
use crate::protocol::{begin_frame, ErrorCode, Opcode};
use crate::server::ServerState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One parsed request on its way to a worker. It carries the
/// connection's two buffers with it — the request body exactly as it was
/// read, and the (empty) buffer the reply is built in — and both ride
/// back in the [`Reply`], with the reply sender, so a connection allocates
/// for its largest request and reply, and its reply channel, once.
pub(crate) struct Job {
    pub(crate) op: Opcode,
    /// The request body as read off the socket, behind its frame header.
    pub(crate) body: Vec<u8>,
    /// Where the reply frame is built: cleared, capacity kept from the
    /// connection's previous reply.
    pub(crate) out: Vec<u8>,
    /// When this request's deadline clock started: at enqueue.
    pub(crate) deadline_start: Instant,
    pub(crate) reply: Sender<Reply>,
    /// The request's timeline. The connection thread keeps a second
    /// handle and finishes the trace after writing the reply.
    pub(crate) trace: Arc<RequestTrace>,
    /// A worker-side fault drawn for this request by the fault plan.
    pub(crate) chaos: Option<FaultDecision>,
}

/// What a worker hands back to the connection thread.
pub(crate) struct Reply {
    /// Zero, or the [`ErrorCode`] the request failed with.
    pub(crate) status: u8,
    /// The reply frame — header reserved by [`begin_frame`], body behind
    /// it; the connection thread stamps the header and writes it out as is.
    pub(crate) frame: Vec<u8>,
    /// The request's buffer, spent: the connection reads its next frame
    /// into it.
    pub(crate) spent: Vec<u8>,
    /// The job's reply sender, back for the connection's next job.
    pub(crate) reply_to: Sender<Reply>,
}

impl Job {
    /// Delivers `self.out` — a frame begun with [`begin_frame`], its body
    /// appended — as the reply, under `status`.
    fn send(self, status: u8) {
        // A send fails only when the connection is gone; nobody is left
        // to want the buffers either.
        let reply_to = self.reply.clone();
        let _ = self.reply.send(Reply {
            status,
            frame: self.out,
            spent: self.body,
            reply_to,
        });
    }

    /// Delivers an error reply: `(status, message)` as [`outcome`] shapes
    /// it, in place of whatever the reply buffer held.
    fn fail(mut self, (status, msg): (u8, Vec<u8>)) {
        begin_frame(&mut self.out);
        self.out.extend_from_slice(&msg);
        self.send(status);
    }
}

/// Hands one parsed job to its shard's worker queue — the only way a
/// request reaches a worker. The job is counted in `serve_queue_depth`
/// before the send (a worker may pop, and decrement, the instant
/// `try_send` returns) and retracted if the queue refuses it. `Err` hands
/// the job back: `Full` → the caller answers `Overloaded`;
/// `Disconnected` (the workers are gone, a shutdown race) → the caller
/// drops the connection.
#[allow(clippy::result_large_err)] // the job itself, as `try_send` returns it
pub(crate) fn dispatch(
    work: &SyncSender<Job>,
    metrics: &Metrics,
    job: Job,
) -> Result<(), TrySendError<Job>> {
    metrics.enqueued();
    job.trace.mark_enqueued();
    work.try_send(job).inspect_err(|_| metrics.retracted())
}

pub(crate) fn worker_loop(state: &ServerState, rx: &Mutex<Receiver<Job>>, deadline: Duration) {
    loop {
        let job = {
            let rx = rx.lock().expect("queue poisoned");
            rx.recv()
        };
        let Ok(job) = job else { break };
        run_job(state, job, deadline);
    }
}

/// Per-job admission: apply worker-side chaos faults, then check the
/// deadline. Returns `None` (after replying `DeadlineExceeded`) if the
/// job must not run.
fn admit_job(state: &ServerState, job: Job, deadline: Duration) -> Option<Job> {
    if let Some(fault) = job.chaos {
        match fault {
            // Slept *before* the deadline check so injected latency
            // counts against the request deadline exactly like real
            // queueing delay.
            FaultDecision::Delay(d) => std::thread::sleep(d),
            FaultDecision::EvictionStorm => {
                state.cache.evict_all();
            }
            // Each lost session is purged as `CloseSession` purges it,
            // pinned expansions included.
            FaultDecision::SessionReset => {
                for sid in state.sessions.close_all() {
                    state.cache.purge_session(sid);
                }
            }
            // WorkerPanic fires inside catch_unwind during execution;
            // read- and write-side faults never reach the queue.
            _ => {}
        }
    }
    if job.deadline_start.elapsed() > deadline {
        state
            .metrics
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        let msg = format!("queued longer than {deadline:?}").into_bytes();
        job.fail((ErrorCode::DeadlineExceeded as u8, msg));
        return None;
    }
    Some(job)
}

/// What a guarded handler run produced, or the error reply to send: the
/// handler's structured error, or `Internal` for a caught panic.
fn outcome<T>(
    result: std::thread::Result<Result<T, (ErrorCode, String)>>,
) -> Result<T, (u8, Vec<u8>)> {
    match result {
        Ok(Ok(value)) => Ok(value),
        Ok(Err((code, msg))) => Err((code as u8, msg.into_bytes())),
        Err(_) => Err((ErrorCode::Internal as u8, b"operation panicked".to_vec())),
    }
}

/// Runs one popped job: admit it, decode it, pin the keys it plans (a
/// keyless request pins nothing), execute it, deliver its reply, unpin.
fn run_job(state: &ServerState, job: Job, deadline: Duration) {
    state.metrics.dequeued();
    job.trace.mark_picked();
    let Some(mut job) = admit_job(state, job, deadline) else {
        return;
    };
    let body = std::mem::take(&mut job.body);
    let request = decode(state, job.op, &body);
    let mut keys = PinnedKeys::default();
    let pin_start = Instant::now();
    if let Some(pinned) = request.as_ref().ok().and_then(|r| r.pin(state)) {
        keys = pinned;
        // The pin phase runs before the execution window opens.
        job.trace.add_stage(Stage::Key, pin_start.elapsed());
    }
    let mut out = std::mem::take(&mut job.out);
    begin_frame(&mut out);
    let result = {
        // Guard scope: exec accounting, the op-latency histogram and the
        // deep-trace bridge close before the reply is sent, so the
        // connection thread can never finish the trace while the worker is
        // still writing to it.
        let _exec = state.obs.enter_exec(&state.metrics, &job.trace);
        catch_unwind(AssertUnwindSafe(|| {
            if job.chaos == Some(FaultDecision::WorkerPanic) {
                panic!("injected chaos panic");
            }
            // A request that failed to decode answers inside the window,
            // as every request does.
            execute(state, request?, &keys, &mut out)
        }))
    };
    job.out = out;
    job.body = body;
    match outcome(result) {
        Ok(()) => job.send(0),
        Err(reply) => job.fail(reply),
    }
    keys.unpin(state);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{EvictionPolicy, KeyCache, KeyKind};
    use crate::config::ObsConfig;
    use crate::obs::Observer;
    use crate::server::SharedState;
    use crate::session::SessionManager;
    use ckks::serialize::serialize_switching_key;
    use ckks::{CkksContext, CkksParams, Encoder, Evaluator, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc::sync_channel;

    /// A keyed rotate for session 1, as a connection thread builds one, and
    /// the end its reply arrives at.
    fn rotate_job(chaos: Option<FaultDecision>) -> (Job, Receiver<Reply>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let job = Job {
            op: Opcode::Rotate,
            body: Vec::new(),
            out: Vec::new(),
            deadline_start: Instant::now(),
            reply: tx,
            trace: Observer::new(ObsConfig::baseline()).begin(Opcode::Rotate, 0),
            chaos,
        };
        (job, rx)
    }

    /// Regression for the queue-depth leak: a job sent into a dead worker
    /// channel (shutdown race) must be retired from the
    /// `serve_queue_depth` gauge, or depth drifts upward forever. A live
    /// channel keeps the count until a worker pops, and a full one refuses
    /// the job without counting it.
    #[test]
    fn dispatch_retires_depth_when_workers_are_gone() {
        let metrics = Metrics::new();
        let (work, rx) = sync_channel::<Job>(1);
        let depth = || metrics.queue_depth.load(Ordering::Relaxed);

        // Live channel: depth stays until a worker pops and dequeues.
        assert!(dispatch(&work, &metrics, rotate_job(None).0).is_ok());
        assert_eq!(depth(), 1);

        // Full channel: the job comes back, uncounted.
        let full = dispatch(&work, &metrics, rotate_job(None).0);
        assert!(matches!(full, Err(TrySendError::Full(_))));
        assert_eq!(depth(), 1);
        drop(rx.recv().unwrap());
        metrics.dequeued();
        assert_eq!(depth(), 0);

        // Dead channel: the send itself must retire the job.
        drop(rx);
        let dead = dispatch(&work, &metrics, rotate_job(None).0);
        assert!(matches!(dead, Err(TrySendError::Disconnected(_))));
        assert_eq!(depth(), 0, "shutdown race leaked depth");
        assert_eq!(metrics.requests_total.load(Ordering::Relaxed), 1);
    }

    /// A session reset purges each lost session's expansions exactly as
    /// `CloseSession` does: pinned ones too, and none counted as an
    /// eviction. A key pinned by a request on another worker must not stay
    /// resident for a session that no longer exists once it is unpinned.
    #[test]
    fn a_session_reset_purges_the_lost_sessions_keys() {
        let ctx = CkksContext::new(
            CkksParams::builder()
                .log_degree(5)
                .levels(3)
                .scale_bits(30)
                .first_modulus_bits(36)
                .dnum(2)
                .build()
                .unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let gk = kg.galois_keys(&mut rng, &sk, &[1, 2], false);
        let state = ServerState {
            shared: Arc::new(SharedState {
                evaluator: Evaluator::new(ctx.clone()),
                encoder: Encoder::new(ctx.clone()),
                ctx: ctx.clone(),
                metrics: Metrics::new(),
                obs: Observer::new(ObsConfig::baseline()),
                shards: Vec::new(),
                fault: None,
            }),
            sessions: Arc::new(SessionManager::new()),
            cache: Arc::new(KeyCache::new(u64::MAX, EvictionPolicy::Lru)),
        };
        let sid = state.sessions.create();
        assert_eq!(sid, 1);
        // One key pinned by a request in flight, one merely resident.
        let mut elements = Vec::new();
        for (i, (element, key)) in gk.iter().enumerate() {
            let bytes = serialize_switching_key(key);
            let kind = KeyKind::Galois(element);
            if i == 0 {
                let top = ctx.params().levels();
                state
                    .cache
                    .get_or_expand_pinned(&ctx, sid, kind, &bytes, top)
            } else {
                state.cache.get_or_expand(&ctx, sid, kind, &bytes)
            }
            .unwrap();
            elements.push(element);
        }
        assert_eq!(state.cache.stats().resident_keys, 2);

        let (job, _reply) = rotate_job(Some(FaultDecision::SessionReset));
        assert!(admit_job(&state, job, Duration::from_secs(30)).is_some());
        state.cache.unpin(sid, KeyKind::Galois(elements[0]));

        assert!(state.sessions.is_empty());
        let stats = state.cache.check_invariants();
        assert_eq!(
            stats.resident_keys, 0,
            "a lost session's key stayed resident"
        );
        assert_eq!(stats.evictions, 0, "a purge is not an eviction");
    }
}
