//! The server: an acceptor giving every connection a thread of its own,
//! and N independent shards, each with its own session table, key-cache
//! slice (`1/N` of the global byte budget) and admission gate
//! (`workers` permits, a line of `queue_capacity`). This module owns the
//! shared state and thread start-up/shutdown; the threads themselves live
//! in `crate::transport` (acceptor, connection threads), what a connection
//! thread does with a request in `crate::sched` (the gate, running one
//! admitted request) and `crate::exec` (the op handlers), and the one
//! decision they share — which keys a request needs and where a handler
//! reads them — in `crate::plan`.
//!
//! Metrics and tracing stay global: one [`Metrics`] registry aggregates
//! across shards (the dump appends per-shard labeled families), and the
//! `Observer` stamps the owning shard into every request timeline.
//!
//! No thread polls or wakes on a timer: the acceptor blocks in `accept`,
//! each connection thread in its socket read or at its shard's gate.
//! Shutdown is a graceful drain in three steps: the acceptor is woken by
//! one connect to its own port and exits (closing the listening port);
//! the read side of every open connection is shut, so a blocked read ends
//! at its frame boundary while a reply still owed goes out; and the
//! connection threads are joined.

use crate::cache::{CacheStats, KeyCache};
use crate::config::ServeConfig;
use crate::fault::FaultPlan;
use crate::metrics::{Metrics, ShardSnapshot};
use crate::obs::{chrome_trace_json, FinishedTrace, Observer};
use crate::sched::Gate;
use crate::session::SessionManager;
use crate::transport::{accept_loop, Transport};
use ckks::{CkksContext, Encoder, Evaluator};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

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
    /// How long a request may wait for its permit
    /// ([`ServeConfig::request_deadline`]).
    pub(crate) request_deadline: Duration,
}

/// One shard's tenant-owning structures and its admission gate, visible
/// to every thread (the gate to every connection thread, the rest for
/// metrics aggregation).
pub(crate) struct ShardPublic {
    pub(crate) sessions: Arc<SessionManager>,
    pub(crate) cache: Arc<KeyCache>,
    /// What bounds how many of this shard's requests run at once.
    pub(crate) gate: Gate,
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
                requests: s.gate.admitted(),
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
    pub(crate) sessions: Arc<SessionManager>,
    pub(crate) cache: Arc<KeyCache>,
}

impl std::ops::Deref for ServerState {
    type Target = SharedState;
    fn deref(&self) -> &SharedState {
        &self.shared
    }
}

/// A running server; dropping without [`Server::shutdown`] aborts
/// non-gracefully (threads are detached), so call `shutdown`.
pub struct Server {
    addr: SocketAddr,
    state: Arc<SharedState>,
    transport: Arc<Transport>,
    /// Returns the connection threads still running when it exits.
    acceptor: JoinHandle<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Binds a loopback listener on an OS-assigned port and starts the
    /// acceptor. Shards are clamped to `1..=`[`crate::MAX_SHARDS`], and
    /// workers and queue capacity to at least 1.
    ///
    /// # Errors
    ///
    /// Propagates the I/O errors of creating the listener and of spawning
    /// the acceptor thread.
    pub fn start(ctx: Arc<CkksContext>, mut config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
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
                gate: Gate::new(config.workers, config.queue_capacity),
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
            request_deadline: config.request_deadline,
        });

        let shards = shared
            .shards
            .iter()
            .map(|public| ServerState {
                shared: shared.clone(),
                sessions: public.sessions.clone(),
                cache: public.cache.clone(),
            })
            .collect();
        let transport = Arc::new(Transport::new(shards, config.max_frame_bytes));
        let acceptor = {
            let transport = transport.clone();
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || accept_loop(&transport, listener))?
        };

        Ok(Server {
            addr,
            state: shared,
            transport,
            acceptor,
        })
    }

    /// The bound address to hand to [`crate::client::Client::connect`].
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The number of shards this server runs.
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
    /// the acceptor), end every connection at its frame boundary once the
    /// reply it is owed has gone out, then join every connection thread.
    pub fn shutdown(self) {
        self.transport.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor blocked in `accept`: it sees the flag and
        // exits, dropping the listener — new connects are refused from
        // here on.
        let _ = TcpStream::connect(self.addr);
        let conns = self.acceptor.join().unwrap_or_default();
        self.transport.close_reads();
        for conn in conns {
            let _ = conn.join();
        }
    }
}
