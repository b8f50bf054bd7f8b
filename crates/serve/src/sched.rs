//! Scheduling: the per-shard key-reuse scheduler and the worker pool.
//!
//! Every request reaches a worker the same way — as a *group* of one or
//! more [`Job`]s that share a session and a [`KeyClass`] — and executes
//! the same way: pin the union of the group's key plans, run the jobs
//! back-to-back against the pinned expansions, unpin. A keyless request
//! is a group of one with an empty plan, sent straight to the worker
//! queue; keyed requests pass through the **scheduler** thread, which
//! collects them into per-`(session, class)` groups and dispatches a
//! group when it fills (`max_batch`, so `1` means no grouping), when its
//! window expires (`max_delay`), or eagerly when the shard's pool is
//! idle. A held job's deadline clock restarts at dispatch — the grouping
//! window is the scheduler's choice, not queue congestion.
//!
//! **Workers** pop groups, drop any job whose deadline passed while
//! queued, and run ops under `catch_unwind` so a panic becomes a
//! structured [`ErrorCode::Internal`] instead of a dead worker. Rotations
//! of the same ciphertext inside a Galois group share one hoisted ModUp
//! decomposition.

use crate::cache::KeyKind;
use crate::config::BatchConfig;
use crate::exec::{handle, read_ct, recycle};
#[cfg(feature = "chaos")]
use crate::fault::FaultDecision;
use crate::metrics::Metrics;
use crate::obs::{RequestTrace, Stage};
use crate::plan::{rotate_ct, KeyClass, KeyPlan, PinnedKeys};
use crate::protocol::{begin_frame, BatchHint, ErrorCode, Opcode, FRAME_HEADER_LEN};
use crate::server::ServerState;
use crate::transport::ReplySignal;
use ckks::hoisting::rotate_hoisted;
use ckks::serialize::write_ciphertext;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One parsed request on its way to a worker. It carries the
/// connection's two buffers with it — the request frame exactly as it was
/// read, and the (empty) buffer the reply is built in — and both ride
/// back in the [`Reply`], so a connection allocates for its largest
/// request and reply once.
pub(crate) struct Job {
    pub(crate) op: Opcode,
    /// The whole request frame as read off the socket; the body starts
    /// behind the header ([`Job::body`]).
    pub(crate) frame: Vec<u8>,
    /// Where the reply frame is built: cleared, capacity kept from the
    /// connection's previous reply.
    pub(crate) out: Vec<u8>,
    /// The switching keys this request needs, derived at frame parse.
    pub(crate) plan: KeyPlan,
    /// When this request's deadline clock started. The shard loop stamps
    /// it at enqueue; the scheduler re-stamps it at group dispatch,
    /// because a hold inside the grouping window is the server's own
    /// choice and must not be double-counted against the per-op
    /// deadline.
    pub(crate) deadline_start: Instant,
    pub(crate) reply: Sender<Reply>,
    /// The request's always-on timeline; `None` when tracing is
    /// disabled. The shard loop keeps a second handle and finishes the
    /// trace after flushing the reply.
    pub(crate) trace: Option<Arc<RequestTrace>>,
    /// A worker-side fault drawn for this request by the chaos plan.
    #[cfg(feature = "chaos")]
    pub(crate) chaos: Option<FaultDecision>,
}

/// What a worker hands back to the shard loop.
pub(crate) struct Reply {
    /// Zero, or the [`ErrorCode`] the request failed with.
    pub(crate) status: u8,
    /// The reply frame — header reserved by [`begin_frame`], body behind
    /// it; the shard loop stamps the header and writes it out as is.
    pub(crate) frame: Vec<u8>,
    /// The request's buffer, spent: the connection reads its next frame
    /// into it.
    pub(crate) spent: Vec<u8>,
}

impl Job {
    /// The request body: everything behind the frame header.
    pub(crate) fn body(&self) -> &[u8] {
        &self.frame[FRAME_HEADER_LEN..]
    }

    /// Delivers `self.out` — a frame begun with [`begin_frame`], its body
    /// appended — as the reply, under `status`.
    fn send(self, status: u8) {
        // A send fails only when the connection is gone; nobody is left
        // to want the buffers either.
        let _ = self.reply.send(Reply {
            status,
            frame: self.out,
            spent: self.frame,
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

pub(crate) fn worker_loop(
    state: &ServerState,
    rx: &Mutex<Receiver<Vec<Job>>>,
    backlog: &AtomicU64,
    deadline: Duration,
    signal: &ReplySignal,
) {
    loop {
        let group = {
            let rx = rx.lock().expect("queue poisoned");
            rx.recv()
        };
        let Ok(group) = group else { break };
        run_group(state, group, deadline);
        // Decremented after execution, not at pop: backlog == 0 means the
        // pool is truly idle, which is the scheduler's eager-dispatch
        // signal.
        backlog.fetch_sub(1, Ordering::Relaxed);
        // Wake the shard loop: a reply (or several, for a group) is
        // ready for pickup.
        signal.notify();
    }
}

/// Per-job admission: apply worker-side chaos faults, then check the
/// deadline. Returns `None` (after replying `DeadlineExceeded`) if the
/// job must not run.
fn admit_job(state: &ServerState, job: Job, deadline: Duration) -> Option<Job> {
    #[cfg(feature = "chaos")]
    if let Some(fault) = job.chaos {
        match fault {
            // Slept *before* the deadline check so injected latency
            // counts against the request deadline exactly like real
            // queueing delay.
            FaultDecision::Delay(d) => std::thread::sleep(d),
            FaultDecision::EvictionStorm => {
                state.cache.evict_all();
            }
            FaultDecision::SessionReset => {
                state.sessions.close_all();
                state.cache.evict_all();
            }
            // WorkerPanic fires inside catch_unwind during execution;
            // loop-side faults never reach the queue.
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

/// Runs one job to completion (chaos/deadline already applied) and
/// delivers its reply.
fn execute_job(state: &ServerState, mut job: Job, keys: &PinnedKeys) {
    let start = Instant::now();
    let mut out = std::mem::take(&mut job.out);
    begin_frame(&mut out);
    let result = {
        // Guard scope: exec accounting and the deep-trace bridge close
        // before the reply is sent, so the shard loop can never finish
        // the trace while the worker is still writing to it.
        let _exec = job.trace.as_ref().map(|t| state.obs.enter_exec(t));
        catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "chaos")]
            if matches!(job.chaos, Some(FaultDecision::WorkerPanic)) {
                panic!("injected chaos panic");
            }
            handle(state, job.op, job.body(), &job.plan, keys, &mut out)
        }))
    };
    state.metrics.latency(job.op).observe(start.elapsed());
    job.out = out;
    match outcome(result) {
        Ok(()) => job.send(0),
        Err(reply) => job.fail(reply),
    }
}

/// Executes one group: pin the union of its key plans, run the jobs
/// back-to-back against the pinned expansions (rotations of the same
/// ciphertext jointly, sharing one hoisted ModUp decomposition), then
/// unpin. A keyless group is a single job with nothing to pin.
fn run_group(state: &ServerState, jobs: Vec<Job>, deadline: Duration) {
    let class = jobs[0].plan.class();
    if class.is_some() {
        state.metrics.batches_total.fetch_add(1, Ordering::Relaxed);
        state
            .metrics
            .batch_jobs_total
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        state.metrics.batch_size.observe(jobs.len() as u64);
    }

    let mut runnable = Vec::with_capacity(jobs.len());
    for job in jobs {
        state.metrics.dequeued();
        if let Some(t) = &job.trace {
            t.mark_picked();
        }
        runnable.extend(admit_job(state, job, deadline));
    }
    if runnable.is_empty() {
        return;
    }
    let mut keys = PinnedKeys::default();
    if class.is_some() {
        let pin_start = Instant::now();
        let plans = runnable.iter().map(|j| &j.plan);
        keys = PinnedKeys::pin(state, runnable[0].plan.sid, plans);
        // Every group member waited out the shared pin phase in wall
        // time, so each job's key stage carries the full phase duration.
        let pin_elapsed = pin_start.elapsed();
        for job in &runnable {
            if let Some(t) = &job.trace {
                t.add_stage(Stage::Key, pin_elapsed);
            }
        }
    }
    if class == Some(KeyClass::Galois) {
        runnable = run_shared_hoists(state, runnable, &keys);
    }
    for job in runnable {
        execute_job(state, job, &keys);
    }
    keys.unpin(state);
}

/// Folds rotations of bit-identical ciphertexts in a Galois group into
/// one `rotate_hoisted` call each, so the ModUp decomposition of `c1` is
/// computed once per distinct ciphertext instead of once per request,
/// and returns the jobs that could not join such a fold (Bsgs, programs,
/// lone rotations, malformed bodies, missing keys, chaos-panic carriers)
/// for the ordinary per-job path.
fn run_shared_hoists(state: &ServerState, jobs: Vec<Job>, keys: &PinnedKeys) -> Vec<Job> {
    let eligible = |job: &Job| -> bool {
        #[cfg(feature = "chaos")]
        if matches!(job.chaos, Some(FaultDecision::WorkerPanic)) {
            return false;
        }
        job.op == Opcode::Rotate
            && matches!(job.plan.galois[..], [(_, e)] if keys.has(KeyKind::Galois(e)))
    };
    // Group joint-eligible rotations by ciphertext bytes.
    let mut folds: Vec<Vec<Job>> = Vec::new();
    let mut rest = Vec::new();
    for job in jobs {
        if !eligible(&job) {
            rest.push(job);
            continue;
        }
        match folds
            .iter_mut()
            .find(|f| rotate_ct(f[0].body()) == rotate_ct(job.body()))
        {
            Some(f) => f.push(job),
            None => folds.push(vec![job]),
        }
    }
    for mut fold in folds {
        if fold.len() < 2 {
            rest.extend(fold);
            continue;
        }
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ct = read_ct(
                state,
                rotate_ct(fold[0].body()).expect("a planned step was read past"),
            )?;
            let wanted: Vec<(i64, u64)> = fold.iter().map(|j| j.plan.galois[0]).collect();
            let gk = keys.galois(state, &wanted)?;
            let steps: Vec<i64> = wanted.iter().map(|&(s, _)| s).collect();
            let outs = rotate_hoisted(&state.evaluator, &ct, &steps, &gk);
            // Each rotation goes straight into its own request's reply.
            for (job, out) in fold.iter_mut().zip(&outs) {
                begin_frame(&mut job.out);
                write_ciphertext(out, &mut job.out);
            }
            recycle(state, outs.into_iter().chain([ct]));
            Ok(())
        }));
        let elapsed = start.elapsed();
        state
            .metrics
            .batch_hoist_shared
            .fetch_add(fold.len() as u64 - 1, Ordering::Relaxed);
        let result = outcome(result);
        for job in fold {
            if let Some(t) = &job.trace {
                t.set_exec_ending_now(elapsed);
            }
            state.metrics.latency(job.op).observe(elapsed);
            match &result {
                Ok(()) => job.send(0),
                Err(reply) => job.fail(reply.clone()),
            }
        }
    }
    rest
}

/// Where the shard loop drops parsed jobs: keyed ones into the
/// scheduler's admission channel, keyless ones straight to the worker
/// queue as a group of one. `backlog` counts groups sent to the workers
/// but not yet finished — the scheduler's "is the pool idle" signal.
pub(crate) struct JobSinks {
    pub(crate) direct: SyncSender<Vec<Job>>,
    pub(crate) keyed: SyncSender<Job>,
    pub(crate) backlog: Arc<AtomicU64>,
}

impl JobSinks {
    /// Routes one job; `Err` mirrors the sync-channel try_send contract
    /// (`Full` → Overloaded reply, `Disconnected` → drop connection) and
    /// hands the job back, so its buffers return to the connection.
    #[allow(clippy::result_large_err)] // the job itself, as `try_send` returns it
    pub(crate) fn dispatch(&self, job: Job) -> Result<(), TrySendError<Job>> {
        if job.plan.class().is_some() {
            return self.keyed.try_send(job);
        }
        self.backlog.fetch_add(1, Ordering::Relaxed);
        self.direct.try_send(vec![job]).map_err(|e| {
            self.backlog.fetch_sub(1, Ordering::Relaxed);
            let job = |mut group: Vec<Job>| group.pop().expect("the group of one just sent");
            match e {
                TrySendError::Full(group) => TrySendError::Full(job(group)),
                TrySendError::Disconnected(group) => TrySendError::Disconnected(job(group)),
            }
        })
    }
}

/// A group the scheduler is still filling, keyed by `(session, class)`.
struct PendingGroup {
    jobs: Vec<Job>,
    oldest: Instant,
    /// `Throughput` sessions always wait out the window; `Auto` groups
    /// flush eagerly the moment the worker pool goes idle.
    hold: bool,
}

type Groups = HashMap<(u64, KeyClass), PendingGroup>;

/// Hands one scheduler-formed group to the worker queue: restarts each
/// job's deadline clock (time held for grouping is the scheduler's
/// choice, not congestion), stamps the hold on its trace, and — when
/// the workers are already gone in a shutdown race — retires the
/// dropped jobs from the queue-depth gauge. Their shard loop counted
/// them `enqueued()` at admission and no worker will ever `dequeued()`
/// them, so skipping that here would leak `serve_queue_depth`
/// permanently.
fn dispatch_group(
    metrics: &Metrics,
    work: &SyncSender<Vec<Job>>,
    backlog: &AtomicU64,
    mut jobs: Vec<Job>,
) {
    let now = Instant::now();
    for j in &mut jobs {
        j.deadline_start = now;
        if let Some(t) = &j.trace {
            t.mark_batch_dispatch();
        }
    }
    backlog.fetch_add(1, Ordering::Relaxed);
    if let Err(std::sync::mpsc::SendError(jobs)) = work.send(jobs) {
        // Workers already gone (shutdown race); replies drop with the
        // channel and the shard loop answers Internal.
        backlog.fetch_sub(1, Ordering::Relaxed);
        for _ in &jobs {
            metrics.dequeued();
        }
    }
}

/// The scheduler thread: collects keyed jobs into per-`(session, class)`
/// groups and dispatches each when it fills, expires, or the pool idles.
/// On channel disconnect (shutdown) every held group flushes before the
/// thread exits, so no reply is lost.
pub(crate) fn scheduler_loop(
    state: &ServerState,
    rx: &Receiver<Job>,
    work: &SyncSender<Vec<Job>>,
    backlog: &AtomicU64,
    cfg: &BatchConfig,
) {
    let mut groups = Groups::new();
    let dispatch = |jobs: Vec<Job>| dispatch_group(&state.metrics, work, backlog, jobs);
    let flush = |groups: &mut Groups, pred: &dyn Fn(&PendingGroup) -> bool| {
        let due: Vec<(u64, KeyClass)> = groups
            .iter()
            .filter(|(_, p)| pred(p))
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            dispatch(groups.remove(&key).expect("listed").jobs);
        }
    };
    loop {
        let next_due = groups.values().map(|p| p.oldest + cfg.max_delay).min();
        let job = match next_due {
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(due) => rx.recv_timeout(due.saturating_duration_since(Instant::now())),
        };
        if let Err(RecvTimeoutError::Disconnected) = job {
            break;
        }
        if let Ok(job) = job {
            admit_to_group(state, &mut groups, job, cfg, &dispatch);
            // Coalesce the rest of an already-waiting burst before any
            // dispatch decision.
            while let Ok(j) = rx.try_recv() {
                admit_to_group(state, &mut groups, j, cfg, &dispatch);
            }
            // An idle pool means holding buys nothing: flush every group
            // that didn't ask to wait.
            if backlog.load(Ordering::Relaxed) == 0 {
                flush(&mut groups, &|p| !p.hold);
            }
        }
        let now = Instant::now();
        flush(&mut groups, &|p| p.oldest + cfg.max_delay <= now);
    }
    // Shutdown drain: every held job still executes and replies.
    flush(&mut groups, &|_| true);
}

/// Files one job into its `(session, class)` group, dispatching the
/// group if it reaches `max_batch`. `Interactive` sessions dispatch
/// immediately as groups of one.
fn admit_to_group(
    state: &ServerState,
    groups: &mut Groups,
    job: Job,
    cfg: &BatchConfig,
    dispatch: &dyn Fn(Vec<Job>),
) {
    let sid = job.plan.sid;
    let class = job
        .plan
        .class()
        .expect("the shard loop routes only keyed jobs to the scheduler");
    let hint = state
        .sessions
        .get(sid)
        .map_or(BatchHint::Auto, |s| s.batch_hint());
    if hint == BatchHint::Interactive {
        dispatch(vec![job]);
        return;
    }
    let p = groups.entry((sid, class)).or_insert_with(|| PendingGroup {
        jobs: Vec::new(),
        oldest: Instant::now(),
        hold: hint == BatchHint::Throughput,
    });
    p.jobs.push(job);
    if p.jobs.len() >= cfg.max_batch {
        dispatch(groups.remove(&(sid, class)).expect("just inserted").jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;

    /// Regression for the queue-depth leak: a group dispatched into a
    /// dead worker channel (shutdown race) must retire every member job
    /// from the `serve_queue_depth` gauge, or depth/peak drift upward
    /// forever.
    #[test]
    fn dispatch_group_retires_depth_when_workers_are_gone() {
        let metrics = Metrics::new();
        let backlog = AtomicU64::new(0);
        let (work, rx) = sync_channel::<Vec<Job>>(4);

        let mk_job = || {
            let (tx, _rx) = std::sync::mpsc::channel();
            Job {
                op: Opcode::Rotate,
                frame: Vec::new(),
                out: Vec::new(),
                plan: KeyPlan::default(),
                deadline_start: Instant::now(),
                reply: tx,
                trace: None,
                #[cfg(feature = "chaos")]
                chaos: None,
            }
        };

        // The shard loop counted these at admission.
        let jobs: Vec<Job> = (0..3).map(|_| mk_job()).collect();
        for _ in &jobs {
            metrics.enqueued();
        }
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 3);

        // Live channel: depth stays until a worker pops and dequeues.
        dispatch_group(&metrics, &work, &backlog, jobs);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 3);
        assert_eq!(backlog.load(Ordering::Relaxed), 1);
        for _ in &rx.recv().unwrap() {
            metrics.dequeued();
        }
        backlog.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 0);

        // Dead channel: the dispatch itself must retire the jobs.
        drop(rx);
        let jobs: Vec<Job> = (0..3).map(|_| mk_job()).collect();
        for _ in &jobs {
            metrics.enqueued();
        }
        assert_eq!(metrics.queue_depth.load(Ordering::Relaxed), 3);
        dispatch_group(&metrics, &work, &backlog, jobs);
        assert_eq!(
            metrics.queue_depth.load(Ordering::Relaxed),
            0,
            "shutdown race leaked depth"
        );
        assert_eq!(backlog.load(Ordering::Relaxed), 0);
    }
}
