//! Scheduling: the per-shard key-reuse scheduler and the worker pool.
//!
//! Every request reaches a worker the same way — as a *group* of one or
//! more [`Job`]s that share a session and a [`KeyClass`] — and executes
//! the same way: pin the union of the group's key plans, run the jobs
//! back-to-back against the pinned expansions, unpin. The shard loop
//! owns the shard's [`Scheduler`] and hands it every parsed job: a
//! keyless request is a group of one with an empty plan, sent straight
//! to the worker queue; keyed requests collect into per-`(session,
//! class)` groups, released when one fills (`max_batch`, so `1` means no
//! grouping), when its window expires (`max_delay`), eagerly before the
//! loop parks on an idle pool, or at once at shutdown. A held job's
//! deadline clock restarts at release — the grouping window is the
//! scheduler's choice, not queue congestion.
//!
//! **Workers** pop groups, drop any job whose deadline passed while
//! queued, and run ops under `catch_unwind` so a panic becomes a
//! structured [`ErrorCode::Internal`] instead of a dead worker. Rotations
//! of the same ciphertext inside a Galois group share one hoisted ModUp
//! decomposition.

use crate::cache::KeyKind;
use crate::config::{BatchConfig, ServeConfig};
use crate::exec::{handle, read_ct, recycle, ser_ct};
use crate::fault::FaultDecision;
use crate::metrics::Metrics;
use crate::obs::{RequestTrace, Stage};
use crate::plan::{rotate_ct, KeyClass, KeyPlan, PinnedKeys};
use crate::protocol::{begin_frame, BatchHint, ErrorCode, Opcode, FRAME_HEADER_LEN};
use crate::server::ServerState;
use crate::session::SessionManager;
use crate::transport::ReplySignal;
use ckks::hoisting::rotate_hoisted;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
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
    /// it at enqueue; the scheduler re-stamps it at group release,
    /// because a hold inside the grouping window is the server's own
    /// choice and must not be double-counted against the per-op
    /// deadline.
    pub(crate) deadline_start: Instant,
    pub(crate) reply: Sender<Reply>,
    /// The request's timeline. The shard loop keeps a second handle and
    /// finishes the trace after flushing the reply.
    pub(crate) trace: Arc<RequestTrace>,
    /// A worker-side fault drawn for this request by the fault plan.
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
    let mut out = std::mem::take(&mut job.out);
    begin_frame(&mut out);
    let result = {
        // Guard scope: exec accounting, the op-latency histogram and the
        // deep-trace bridge close before the reply is sent, so the shard
        // loop can never finish the trace while the worker is still
        // writing to it.
        let _exec = state.obs.enter_exec(&state.metrics, [&job.trace]);
        catch_unwind(AssertUnwindSafe(|| {
            if job.chaos == Some(FaultDecision::WorkerPanic) {
                panic!("injected chaos panic");
            }
            handle(state, job.op, job.body(), &job.plan, keys, &mut out)
        }))
    };
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
        job.trace.mark_picked();
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
        // time, before its execution window opens, so each job's key
        // stage carries the full phase duration.
        let pin_elapsed = pin_start.elapsed();
        for job in &runnable {
            job.trace.add_stage(Stage::Key, pin_elapsed);
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
/// for the ordinary per-job path. A fold runs under one execution guard
/// for all its members: each carries the fold's window, its kernel
/// sub-spans, and its decode and serialize time.
fn run_shared_hoists(state: &ServerState, jobs: Vec<Job>, keys: &PinnedKeys) -> Vec<Job> {
    let eligible = |job: &Job| -> bool {
        job.op == Opcode::Rotate
            && job.chaos != Some(FaultDecision::WorkerPanic)
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
        let result = {
            let _exec = state
                .obs
                .enter_exec(&state.metrics, fold.iter().map(|j| &j.trace));
            catch_unwind(AssertUnwindSafe(|| {
                let ct = read_ct(
                    state,
                    rotate_ct(fold[0].body()).expect("a planned step was read past"),
                )?;
                let wanted: Vec<(i64, u64)> = fold.iter().map(|j| j.plan.galois[0]).collect();
                let gk = keys.galois(&wanted)?;
                let steps: Vec<i64> = wanted.iter().map(|&(s, _)| s).collect();
                let outs = rotate_hoisted(&state.evaluator, &ct, &steps, &gk);
                // Each rotation goes straight into its own request's reply.
                for (job, out) in fold.iter_mut().zip(&outs) {
                    begin_frame(&mut job.out);
                    ser_ct(out, &mut job.out);
                }
                recycle(state, outs.into_iter().chain([ct]));
                Ok(())
            }))
        };
        state
            .metrics
            .batch_hoist_shared
            .fetch_add(fold.len() as u64 - 1, Ordering::Relaxed);
        let result = outcome(result);
        for job in fold {
            match &result {
                Ok(()) => job.send(0),
                Err(reply) => job.fail(reply.clone()),
            }
        }
    }
    rest
}

/// A group the scheduler is still filling, keyed by `(session, class)`.
struct PendingGroup {
    jobs: Vec<Job>,
    oldest: Instant,
    /// `Throughput` sessions always wait out the window; `Auto` groups
    /// go eagerly when the worker pool is idle.
    hold: bool,
}

/// Which held groups [`Scheduler::release`] lets go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Release {
    /// Those whose `max_delay` window has run out.
    Expired,
    /// Those, and every `Auto` group if the worker pool is idle.
    Parking,
    /// Every group: shutdown has begun.
    All,
}

/// One shard's key-reuse scheduler, owned by its shard loop and the only
/// sender on the shard's worker queue. It never blocks: a released group
/// the full queue will not take waits, first in line, for the next
/// release.
pub(crate) struct Scheduler {
    work: SyncSender<Vec<Job>>,
    /// Groups sent to the workers but not yet finished: the "is the pool
    /// idle" signal.
    backlog: Arc<AtomicU64>,
    cfg: BatchConfig,
    /// The most keyed jobs held at once; one more is refused.
    capacity: usize,
    groups: HashMap<(u64, KeyClass), PendingGroup>,
    /// Released groups the worker queue has not taken yet, oldest first.
    released: VecDeque<Vec<Job>>,
    /// Keyed jobs in `groups` and `released`.
    held: usize,
}

impl Scheduler {
    pub(crate) fn new(
        work: SyncSender<Vec<Job>>,
        backlog: Arc<AtomicU64>,
        cfg: &ServeConfig,
    ) -> Self {
        Scheduler {
            work,
            backlog,
            cfg: cfg.batch.clone(),
            capacity: cfg.queue_capacity,
            groups: HashMap::new(),
            released: VecDeque::new(),
            held: 0,
        }
    }

    /// Takes one parsed job: a keyless one goes straight to the worker
    /// queue; a keyed one joins its group, released at once at
    /// `max_batch`. `Err` hands the job back as `try_send` does: `Full`
    /// (or `capacity` keyed jobs held) → Overloaded reply,
    /// `Disconnected` → drop the connection.
    #[allow(clippy::result_large_err)] // the job itself, as `try_send` returns it
    pub(crate) fn submit(
        &mut self,
        sessions: &SessionManager,
        metrics: &Metrics,
        job: Job,
    ) -> Result<(), TrySendError<Job>> {
        let Some(class) = job.plan.class() else {
            self.backlog.fetch_add(1, Ordering::Relaxed);
            return self.work.try_send(vec![job]).map_err(|e| {
                self.backlog.fetch_sub(1, Ordering::Relaxed);
                let job = |mut group: Vec<Job>| group.pop().expect("the group of one just sent");
                match e {
                    TrySendError::Full(group) => TrySendError::Full(job(group)),
                    TrySendError::Disconnected(group) => TrySendError::Disconnected(job(group)),
                }
            });
        };
        if self.held >= self.capacity {
            return Err(TrySendError::Full(job));
        }
        self.held += 1;
        let sid = job.plan.sid;
        let hint = sessions
            .get(sid)
            .map_or(BatchHint::Auto, |s| s.batch_hint());
        let p = self
            .groups
            .entry((sid, class))
            .or_insert_with(|| PendingGroup {
                jobs: Vec::new(),
                oldest: Instant::now(),
                hold: hint == BatchHint::Throughput,
            });
        p.jobs.push(job);
        if p.jobs.len() < self.cfg.max_batch {
            return Ok(());
        }
        let jobs = self.groups.remove(&(sid, class)).expect("just filed").jobs;
        self.released.push_back(stamped(jobs));
        self.send_released(metrics);
        Ok(())
    }

    /// How long until the next held group's window runs out: the shard
    /// loop parks no longer than this.
    pub(crate) fn until_due(&self) -> Option<Duration> {
        let due = self.groups.values().map(|p| p.oldest + self.cfg.max_delay);
        due.min()
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Lets go of the groups `which` names, then offers every released
    /// group to the worker queue, oldest first. Called every loop pass:
    /// with nothing held it does not read the clock.
    pub(crate) fn release(&mut self, metrics: &Metrics, which: Release) {
        if !self.groups.is_empty() {
            let now = Instant::now();
            let idle = which == Release::Parking && self.backlog.load(Ordering::Relaxed) == 0;
            let max_delay = self.cfg.max_delay;
            let due = self.groups.extract_if(|_, p| {
                which == Release::All || p.oldest + max_delay <= now || (idle && !p.hold)
            });
            self.released.extend(due.map(|(_, p)| stamped(p.jobs)));
        }
        self.send_released(metrics);
    }

    /// Sends released groups, oldest first, until the worker queue is
    /// full. When the workers are already gone (a shutdown race) the
    /// dropped jobs are retired from the queue-depth gauge: the shard
    /// loop counted them `enqueued()` and no worker will ever
    /// `dequeued()` them, so skipping that would leak `serve_queue_depth`
    /// permanently. Their replies drop with them and the shard loop
    /// answers `Internal`.
    fn send_released(&mut self, metrics: &Metrics) {
        while let Some(jobs) = self.released.pop_front() {
            let n = jobs.len();
            self.backlog.fetch_add(1, Ordering::Relaxed);
            match self.work.try_send(jobs) {
                Ok(()) => {}
                Err(TrySendError::Full(jobs)) => {
                    self.backlog.fetch_sub(1, Ordering::Relaxed);
                    self.released.push_front(jobs);
                    return;
                }
                Err(TrySendError::Disconnected(jobs)) => {
                    self.backlog.fetch_sub(1, Ordering::Relaxed);
                    for _ in &jobs {
                        metrics.dequeued();
                    }
                }
            }
            self.held -= n;
        }
    }
}

/// A group at release: each job's deadline clock restarts (time held for
/// grouping is the scheduler's choice, not congestion) and its trace
/// stamps the hold.
fn stamped(mut jobs: Vec<Job>) -> Vec<Job> {
    let now = Instant::now();
    for j in &mut jobs {
        j.deadline_start = now;
        j.trace.mark_batch_dispatch();
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{EvictionPolicy, KeyCache};
    use crate::config::ObsConfig;
    use crate::obs::Observer;
    use crate::server::SharedState;
    use ckks::serialize::serialize_switching_key;
    use ckks::{CkksContext, CkksParams, Encoder, Evaluator, KeyGenerator};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc::sync_channel;

    /// A keyed rotate for session 1, as the shard loop builds one, and the
    /// end its reply arrives at.
    fn rotate_job(chaos: Option<FaultDecision>) -> (Job, Receiver<Reply>) {
        let (tx, rx) = std::sync::mpsc::channel();
        let job = Job {
            op: Opcode::Rotate,
            frame: Vec::new(),
            out: Vec::new(),
            plan: KeyPlan {
                sid: 1,
                relin: false,
                galois: vec![(1, 5)],
            },
            deadline_start: Instant::now(),
            reply: tx,
            trace: Observer::new(ObsConfig::baseline()).begin(Opcode::Rotate, 0),
            chaos,
        };
        (job, rx)
    }

    /// Regression for the queue-depth leak, on the release path: a group
    /// released into a dead worker channel (shutdown race) must retire
    /// every member job from the `serve_queue_depth` gauge, or depth/peak
    /// drift upward forever. A live channel keeps the count until a
    /// worker pops, and a full one keeps the group first in line.
    #[test]
    fn dispatch_group_retires_depth_when_workers_are_gone() {
        let metrics = Metrics::new();
        let sessions = SessionManager::new();
        let backlog = Arc::new(AtomicU64::new(0));
        let (work, rx) = sync_channel::<Vec<Job>>(1);
        let cfg = ServeConfig {
            queue_capacity: 8,
            batch: BatchConfig::baseline(),
            ..ServeConfig::default()
        };
        let mut sched = Scheduler::new(work, backlog.clone(), &cfg);
        let depth = || metrics.queue_depth.load(Ordering::Relaxed);

        // Three keyed jobs of one (unknown, so `Auto`) session: one
        // group, held until released. The shard loop counts each at
        // admission.
        let submit_three = |sched: &mut Scheduler| {
            for _ in 0..3 {
                let (job, _reply) = rotate_job(None);
                metrics.enqueued();
                assert!(sched.submit(&sessions, &metrics, job).is_ok());
            }
        };

        // Live channel: depth stays until a worker pops and dequeues.
        submit_three(&mut sched);
        assert!(sched.until_due().is_some());
        sched.release(&metrics, Release::All);
        assert_eq!((depth(), sched.held), (3, 0));
        assert_eq!(backlog.load(Ordering::Relaxed), 1);

        // Full channel: the next group waits, still held, first in line.
        submit_three(&mut sched);
        sched.release(&metrics, Release::All);
        assert_eq!((sched.held, sched.released.len()), (3, 1));
        assert_eq!(backlog.load(Ordering::Relaxed), 1);
        for _ in &rx.recv().unwrap() {
            metrics.dequeued();
        }
        backlog.fetch_sub(1, Ordering::Relaxed);
        sched.release(&metrics, Release::Expired);
        assert_eq!((depth(), sched.held), (3, 0));
        for _ in &rx.recv().unwrap() {
            metrics.dequeued();
        }
        backlog.fetch_sub(1, Ordering::Relaxed);
        assert_eq!(depth(), 0);

        // Dead channel: the release itself must retire the jobs.
        drop(rx);
        submit_three(&mut sched);
        assert_eq!(depth(), 3);
        sched.release(&metrics, Release::All);
        assert_eq!(depth(), 0, "shutdown race leaked depth");
        assert_eq!(sched.held, 0);
        assert_eq!(backlog.load(Ordering::Relaxed), 0);
    }

    /// A session reset purges each lost session's expansions exactly as
    /// `CloseSession` does: pinned ones too, and none counted as an
    /// eviction. A key pinned by a group on another worker must not stay
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
        let gk = kg.galois_keys_compressed(&mut rng, &sk, &[1, 2], false);
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
            shard: 0,
            sessions: Arc::new(SessionManager::new()),
            cache: Arc::new(KeyCache::new(u64::MAX, EvictionPolicy::Lru)),
        };
        let sid = state.sessions.create();
        assert_eq!(sid, 1);
        // One key pinned by a group in flight, one merely resident.
        let mut elements = Vec::new();
        for (i, (element, key)) in gk.iter().enumerate() {
            let bytes = serialize_switching_key(key);
            let kind = KeyKind::Galois(element);
            if i == 0 {
                state.cache.get_or_expand_pinned(&ctx, sid, kind, &bytes)
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
