//! Admission and execution: each shard's gate, and how a connection's
//! thread runs the requests it reads.
//!
//! A request runs on the thread of the connection that read it. What
//! bounds a shard's load is its [`Gate`]: `workers` permits, so at most
//! that many of its requests execute at once, and a line of at most
//! `queue_capacity` requests waiting for one, served in arrival order. A
//! request that finds the line full is answered `Overloaded` at once —
//! backpressure, never buffering. Every admitted request executes the same
//! way: once its permit is granted, worker-side chaos acts and the
//! deadline is checked ([`run`]); then, under `catch_unwind`, so that a
//! panic becomes a structured [`ErrorCode::Internal`], it is decoded once,
//! the keys it plans from what was decoded are pinned, and it runs. The
//! permit is an RAII [`Permit`]: the caller drops it once the reply frame
//! is built, before the blocking write, and an unwinding thread drops it
//! too.

use crate::exec::{decode, execute};
use crate::fault::FaultDecision;
use crate::metrics::Metrics;
use crate::obs::{RequestTrace, Stage};
use crate::plan::PinnedKeys;
use crate::protocol::{begin_frame, ErrorCode, Opcode};
use crate::server::ServerState;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// One shard's admission gate: a counter of running requests with
/// `permits` slots, and a line of at most `capacity` waiting requests,
/// granted in the order they arrived.
pub(crate) struct Gate {
    permits: usize,
    capacity: u64,
    line: Mutex<Line>,
    turn: Condvar,
    /// Requests the gate took: granted at once or put in line
    /// (`serve_shard_requests_total`).
    admitted: AtomicU64,
}

/// The gate's state. Tickets `head..next` are waiting; `head` goes next.
#[derive(Default)]
struct Line {
    running: usize,
    head: u64,
    next: u64,
}

impl Gate {
    pub(crate) fn new(permits: usize, capacity: usize) -> Self {
        Gate {
            permits,
            capacity: capacity as u64,
            line: Mutex::default(),
            turn: Condvar::new(),
            admitted: AtomicU64::new(0),
        }
    }

    fn line(&self) -> MutexGuard<'_, Line> {
        self.line.lock().expect("gate poisoned")
    }

    /// Requests this gate has taken.
    pub(crate) fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Admits one request, blocking until it holds a permit. It counts in
    /// `serve_queue_depth` from entry until the grant; a request that finds
    /// `capacity` others waiting is refused (`None`), its count retracted
    /// and an overload rejection counted instead.
    pub(crate) fn enter(&self, metrics: &Metrics, trace: &mut RequestTrace) -> Option<Permit<'_>> {
        metrics.enqueued();
        trace.mark_enqueued();
        let mut line = self.line();
        let free = line.head == line.next && line.running < self.permits;
        if !free && line.next - line.head >= self.capacity {
            drop(line);
            metrics.retracted();
            metrics.rejected_overload.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if !free {
            let ticket = line.next;
            line.next += 1;
            while line.head != ticket || line.running >= self.permits {
                line = self.turn.wait(line).expect("gate poisoned");
            }
            line.head += 1;
            // The next in line may find a permit free too.
            self.turn.notify_all();
        }
        line.running += 1;
        drop(line);
        metrics.dequeued();
        trace.mark_picked();
        Some(Permit(self))
    }
}

/// A granted execution slot on a shard; dropping it frees the slot.
pub(crate) struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.line().running -= 1;
        self.0.turn.notify_all();
    }
}

/// Worker-side chaos, then the deadline check, for a request whose permit
/// was just granted after it reached the gate at `enqueued`. `Err` is the
/// `DeadlineExceeded` reply.
fn admit(
    state: &ServerState,
    chaos: Option<FaultDecision>,
    enqueued: Instant,
) -> Result<(), (u8, Vec<u8>)> {
    match chaos {
        // Slept *before* the deadline check so injected latency counts
        // against the request deadline exactly like real queueing delay.
        Some(FaultDecision::Delay(d)) => std::thread::sleep(d),
        Some(FaultDecision::EvictionStorm) => {
            state.cache.evict_all();
        }
        // Each lost session is purged as `CloseSession` purges it, pinned
        // expansions included.
        Some(FaultDecision::SessionReset) => {
            for sid in state.sessions.close_all() {
                state.cache.purge_session(sid);
            }
        }
        // WorkerPanic fires inside catch_unwind during execution; read-
        // and write-side faults act on the connection.
        _ => {}
    }
    let deadline = state.request_deadline;
    if enqueued.elapsed() > deadline {
        state
            .metrics
            .rejected_deadline
            .fetch_add(1, Ordering::Relaxed);
        let msg = format!("queued longer than {deadline:?}").into_bytes();
        return Err((ErrorCode::DeadlineExceeded as u8, msg));
    }
    Ok(())
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

/// Runs one request whose permit is held — admit it, decode it, pin the
/// keys it plans (a keyless request pins nothing), execute it, unpin —
/// and builds its reply frame in `out`. Returns the reply's status.
pub(crate) fn run(
    state: &ServerState,
    op: Opcode,
    body: &[u8],
    trace: &mut RequestTrace,
    chaos: Option<FaultDecision>,
    out: &mut Vec<u8>,
) -> u8 {
    begin_frame(out);
    let result = admit(state, chaos, trace.enqueued).and_then(|()| {
        let mut keys = PinnedKeys::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let request = decode(state, op, body);
            let pin_start = Instant::now();
            if let Some(pinned) = request.as_ref().ok().and_then(|r| r.pin(state)) {
                keys = pinned;
                // The pin phase runs before the execution window opens.
                trace.add_stage(Stage::Key, pin_start.elapsed());
            }
            // Guard scope: exec accounting, the op-latency histogram and
            // the kernel sub-spans close before the reply is written.
            let _exec = state.obs.enter_exec(&state.metrics, trace);
            if chaos == Some(FaultDecision::WorkerPanic) {
                panic!("injected chaos panic");
            }
            // A request that failed to decode answers inside the window,
            // as every request does.
            execute(state, request?, &keys, out)
        }));
        keys.unpin(state);
        outcome(result)
    });
    match result {
        Ok(()) => 0,
        Err((status, msg)) => {
            begin_frame(out);
            out.extend_from_slice(&msg);
            status
        }
    }
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
    use std::sync::Arc;
    use std::time::Duration;

    /// A shard's view of a fresh server whose requests may wait up to
    /// `deadline`.
    fn state(deadline: Duration) -> ServerState {
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
        ServerState {
            shared: Arc::new(SharedState {
                evaluator: Evaluator::new(ctx.clone()),
                encoder: Encoder::new(ctx.clone()),
                ctx,
                metrics: Metrics::new(),
                obs: Observer::new(ObsConfig::baseline()),
                shards: Vec::new(),
                fault: None,
                request_deadline: deadline,
            }),
            sessions: Arc::new(SessionManager::new()),
            cache: Arc::new(KeyCache::new(u64::MAX, EvictionPolicy::Lru)),
        }
    }

    /// `serve_queue_depth` counts a request from its entry to its grant:
    /// one waiting for the only permit counts until the permit is freed,
    /// one refused at a full line leaves the depth as it was, and one
    /// refused for its deadline has retired its count at the grant, like
    /// every request that gets one.
    #[test]
    fn the_gate_counts_depth_from_entry_to_grant() {
        let state = state(Duration::from_millis(1));
        let metrics = &state.metrics;
        let depth = || metrics.queue_depth.load(Ordering::Relaxed);
        let trace = || state.obs.begin(Opcode::Rotate, 0);
        let gate = Gate::new(1, 1);

        let held = gate.enter(metrics, &mut trace()).expect("a free permit");
        assert_eq!(depth(), 0, "a grant retires the depth at once");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.enter(metrics, &mut trace()).is_some());
            while depth() != 1 {
                std::thread::yield_now();
            }
            // The line is full: refused, uncounted.
            assert!(gate.enter(metrics, &mut trace()).is_none());
            assert_eq!(depth(), 1, "a refusal moved the depth");
            assert_eq!(metrics.rejected_overload.load(Ordering::Relaxed), 1);
            drop(held);
            assert!(waiter.join().unwrap(), "the waiter got the freed permit");
        });
        assert_eq!(depth(), 0, "the grant retired the waiter");
        assert_eq!(metrics.requests_total.load(Ordering::Relaxed), 2);
        assert_eq!(gate.admitted(), 2);

        // Past its deadline at the grant: refused, its depth retired.
        let (mut out, mut trace) = (Vec::new(), trace());
        let permit = gate.enter(metrics, &mut trace).expect("a free permit");
        trace.enqueued = Instant::now() - Duration::from_millis(5);
        let status = run(&state, Opcode::Hello, &[], &mut trace, None, &mut out);
        drop(permit);
        assert_eq!(status, ErrorCode::DeadlineExceeded as u8);
        assert_eq!(metrics.rejected_deadline.load(Ordering::Relaxed), 1);
        assert_eq!(depth(), 0, "a deadline refusal leaked depth");
        assert!(state.sessions.is_empty(), "the refused Hello ran");
    }

    /// A session reset purges each lost session's expansions exactly as
    /// `CloseSession` does: pinned ones too, and none counted as an
    /// eviction. A key pinned by a request running on another connection
    /// must not stay resident for a session that no longer exists once it
    /// is unpinned.
    #[test]
    fn a_session_reset_purges_the_lost_sessions_keys() {
        let state = state(Duration::from_secs(30));
        let ctx = state.ctx.clone();
        let mut rng = StdRng::seed_from_u64(42);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let gk = kg.galois_keys(&mut rng, &sk, &[1, 2], false);
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

        let chaos = Some(FaultDecision::SessionReset);
        assert!(admit(&state, chaos, Instant::now()).is_ok());
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
