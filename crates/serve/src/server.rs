//! The server: a nonblocking acceptor feeding N independent shard
//! loops, each with its own session table, key-cache slice (`1/N` of the
//! global byte budget), key-reuse scheduler (run by the loop itself), and
//! bounded worker pool — one thread, one queue and `workers` threads per
//! shard. This module owns the shared state and thread start-up/shutdown;
//! the threads themselves live in `crate::transport` (acceptor, shard
//! loop), `crate::sched` (the loop's scheduler, workers) and
//! `crate::exec` (the op handlers), and the one decision they share —
//! which keys a request needs and where a handler reads them — in
//! `crate::plan`.
//!
//! Metrics and tracing stay global: one [`Metrics`] registry aggregates
//! across shards (the dump appends per-shard labeled families), and the
//! `Observer` stamps the owning shard into every request timeline.
//!
//! Shutdown is a graceful drain: the acceptor exits (closing the
//! listening port), each shard loop releases every held group at once,
//! collects and flushes the replies it is owed and returns, dropping the
//! only sender on its worker queue; its workers run what is queued and
//! exit, and every thread is joined.

use crate::cache::{CacheStats, KeyCache};
use crate::config::ServeConfig;
use crate::fault::FaultPlan;
use crate::metrics::{Metrics, ShardSnapshot};
use crate::obs::{chrome_trace_json, FinishedTrace, Observer};
use crate::sched::{worker_loop, Job, Scheduler};
use crate::session::SessionManager;
use crate::transport::{accept_loop, shard_loop, ReplySignal, RoutedConn};
use ckks::{CkksContext, Encoder, Evaluator};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// State every shard sees: the crypto context, the global metrics and
/// tracing registries, and a window onto every shard's tenant-owning
/// structures (for aggregation — shards never execute against another
/// shard's slice).
pub(crate) struct SharedState {
    pub(crate) ctx: Arc<CkksContext>,
    pub(crate) evaluator: Evaluator,
    pub(crate) encoder: Encoder,
    pub(crate) metrics: Metrics,
    pub(crate) obs: Observer,
    /// Every shard's tenant-owning state, indexed by shard id.
    pub(crate) shards: Vec<ShardPublic>,
    /// The fault schedule, if the server was started with one.
    pub(crate) fault: Option<Arc<FaultPlan>>,
}

/// One shard's tenant-owning structures, visible to every thread for
/// metrics aggregation.
pub(crate) struct ShardPublic {
    pub(crate) sessions: Arc<SessionManager>,
    pub(crate) cache: Arc<KeyCache>,
    /// Requests this shard dispatched to its worker pool.
    pub(crate) requests: AtomicU64,
}

impl SharedState {
    /// Aggregated cache stats plus one snapshot per shard.
    fn shard_snapshots(&self) -> (CacheStats, Vec<ShardSnapshot>) {
        let mut agg = CacheStats::default();
        let mut snaps = Vec::with_capacity(self.shards.len());
        for (i, s) in self.shards.iter().enumerate() {
            let stats = s.cache.stats();
            agg.accumulate(&stats);
            snaps.push(ShardSnapshot {
                shard: i,
                requests: s.requests.load(Ordering::Relaxed),
                sessions: s.sessions.len() as u64,
                cache: stats,
                budget_bytes: s.cache.budget_bytes(),
                stored_bytes: s.sessions.stored_bytes(),
            });
        }
        (agg, snaps)
    }

    /// The full metrics dump: global families over aggregated cache
    /// stats and the context's scratch pool, then the per-shard labeled
    /// families.
    pub(crate) fn metrics_text(&self) -> String {
        let (agg, snaps) = self.shard_snapshots();
        let scratch = self.ctx.scratch().stats();
        let backend = self.ctx.kernel_backend().name();
        self.metrics.dump_sharded(&agg, &scratch, backend, &snaps)
    }
}

/// One shard's view of the world: the shared state plus its own session
/// table and cache slice. `Deref` makes the shared fields read naturally
/// (`state.metrics`, `state.ctx`) while `state.sessions` / `state.cache`
/// resolve shard-locally — the handler code cannot accidentally touch
/// another shard's slice.
pub(crate) struct ServerState {
    pub(crate) shared: Arc<SharedState>,
    pub(crate) shard: usize,
    pub(crate) sessions: Arc<SessionManager>,
    pub(crate) cache: Arc<KeyCache>,
}

impl std::ops::Deref for ServerState {
    type Target = SharedState;
    fn deref(&self) -> &SharedState {
        &self.shared
    }
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn server thread")
}

/// One shard's runtime threads, joined in [`Server::shutdown`].
struct ShardRuntime {
    loop_handle: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// A running server; dropping without [`Server::shutdown`] aborts
/// non-gracefully (threads are detached), so call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    state: Arc<SharedState>,
    shutdown: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    shards: Vec<ShardRuntime>,
}

impl Server {
    /// Binds a loopback listener on an OS-assigned port and starts the
    /// acceptor and the per-shard loops and worker pools. Shards are
    /// clamped to `1..=`[`crate::MAX_SHARDS`], and workers and queue
    /// capacity to at least 1.
    ///
    /// # Errors
    ///
    /// Propagates listener-creation I/O errors.
    pub fn start(ctx: Arc<CkksContext>, mut config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        config.shards = config.shards.clamp(1, crate::shard::MAX_SHARDS);
        config.workers = config.workers.max(1);
        config.queue_capacity = config.queue_capacity.max(1);
        let shard_count = config.shards;
        let per_shard_budget = config.key_cache_budget / shard_count as u64;
        let shard_public: Vec<ShardPublic> = (0..shard_count)
            .map(|i| ShardPublic {
                sessions: Arc::new(SessionManager::new_for_shard(i, shard_count)),
                cache: Arc::new(KeyCache::new(per_shard_budget, config.eviction)),
                requests: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(SharedState {
            evaluator: Evaluator::new(ctx.clone()),
            encoder: Encoder::new(ctx.clone()),
            ctx,
            metrics: Metrics::new(),
            obs: Observer::new(config.obs.clone()),
            shards: shard_public,
            fault: config.fault_plan.clone(),
        });
        let shutdown = Arc::new(AtomicBool::new(false));

        // The connection-migration fabric: every shard (and the
        // acceptor) can hand a connection to any shard.
        let (conn_txs, conn_rxs): (Vec<Sender<RoutedConn>>, Vec<Receiver<RoutedConn>>) =
            (0..shard_count).map(|_| std::sync::mpsc::channel()).unzip();

        let mut shards = Vec::with_capacity(shard_count);
        for (i, conn_rx) in conn_rxs.into_iter().enumerate() {
            let public = &shared.shards[i];
            let state = Arc::new(ServerState {
                shared: shared.clone(),
                shard: i,
                sessions: public.sessions.clone(),
                cache: public.cache.clone(),
            });
            let backlog = Arc::new(AtomicU64::new(0));
            let signal = Arc::new(ReplySignal::default());
            let (work_tx, work_rx) = sync_channel::<Vec<Job>>(config.queue_capacity);
            let work_rx = Arc::new(Mutex::new(work_rx));

            let workers: Vec<JoinHandle<()>> = (0..config.workers)
                .map(|w| {
                    let state = state.clone();
                    let rx = work_rx.clone();
                    let backlog = backlog.clone();
                    let signal = signal.clone();
                    let deadline = config.request_deadline;
                    spawn(format!("serve-w{i}-{w}"), move || {
                        worker_loop(&state, &rx, &backlog, deadline, &signal);
                    })
                })
                .collect();

            // The loop owns the scheduler, and with it the only sender on
            // the worker queue.
            let sched = Scheduler::new(work_tx, backlog, &config);
            let loop_handle = {
                let shutdown = shutdown.clone();
                let conn_txs = conn_txs.clone();
                let max_frame = config.max_frame_bytes;
                spawn(format!("serve-shard-{i}"), move || {
                    shard_loop(
                        &state, &shutdown, sched, &conn_rx, &conn_txs, &signal, max_frame,
                    );
                })
            };
            shards.push(ShardRuntime {
                loop_handle,
                workers,
            });
        }

        let acceptor = {
            let shared = shared.clone();
            let shutdown = shutdown.clone();
            spawn("serve-acceptor".into(), move || {
                accept_loop(&shared, &listener, &shutdown, &conn_txs);
            })
        };

        Ok(Server {
            addr,
            state: shared,
            shutdown,
            acceptor,
            shards,
        })
    }

    /// The bound address to hand to [`crate::client::Client::connect`].
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of shard loops this server runs.
    pub fn shard_count(&self) -> usize {
        self.state.shards.len()
    }

    /// Key-cache counters summed across every shard's slice (also part
    /// of the metrics dump).
    pub fn cache_stats(&self) -> CacheStats {
        self.state.shard_snapshots().0
    }

    /// Asserts every shard's key-cache invariants (byte ledger, stats
    /// mirror, per-shard budget, hit/miss partition of the lookup
    /// count), then cross-checks the aggregated ledger, and returns the
    /// summed snapshot. Panics on violation — used by the chaos and
    /// stress suites, safe to call on a live server.
    pub fn assert_cache_consistent(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for shard in &self.state.shards {
            agg.accumulate(&shard.cache.check_invariants());
        }
        assert_eq!(
            agg.hits + agg.misses,
            agg.accesses,
            "cross-shard lookup ledger out of balance"
        );
        agg
    }

    /// The current metrics dump, server-side (the `Metrics` opcode
    /// returns the same text over the wire): global families over
    /// aggregated cache stats, then per-shard labeled families.
    pub fn metrics_dump(&self) -> String {
        self.state.metrics_text()
    }

    /// The name of the kernel backend the serving context dispatches its
    /// hot kernels to (also reported in the `Hello` reply and the metrics
    /// dump).
    pub fn kernel_backend_name(&self) -> &'static str {
        self.state.ctx.kernel_backend().name()
    }

    /// Recent finished request timelines, oldest first (the `TraceDump`
    /// opcode renders the same data as Chrome trace-event JSON).
    pub fn recent_traces(&self) -> Vec<FinishedTrace> {
        self.state.obs.recent()
    }

    /// The slowest request observed since the server started, retained
    /// even after it ages out of the trace ring.
    pub fn slowest_trace(&self) -> Option<FinishedTrace> {
        self.state.obs.slowest()
    }

    /// Chrome trace-event JSON of the retained request timelines —
    /// server-side twin of the `TraceDump` opcode, loadable in Perfetto.
    pub fn trace_json(&self) -> String {
        chrome_trace_json(&self.state.obs.recent())
    }

    /// The structured slow-request log (requests over the configured
    /// threshold, annotated with their dominant stage), oldest first.
    pub fn slow_log(&self) -> String {
        self.state.obs.slow_log()
    }

    /// Graceful drain: stop accepting (the listening port closes with
    /// the acceptor), let every shard release its held groups and flush
    /// the replies it is owed, let queued requests finish, then join
    /// every thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor wakes on its poll tick and exits, dropping the
        // listener — new connects are refused from here on.
        let _ = self.acceptor.join();
        // Each shard loop releases every held group at once and exits
        // once its connections are gone (idle ones close immediately;
        // ones owed a reply first collect and flush it). Its return drops
        // the only worker-queue sender, so its workers drain the queue
        // and exit.
        for shard in self.shards {
            let _ = shard.loop_handle.join();
            for h in shard.workers {
                let _ = h.join();
            }
        }
    }
}
