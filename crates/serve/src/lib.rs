#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! A multi-tenant FHE evaluation server built on the `ckks` crate —
//! the MAD paper's memory-aware techniques turned into a service.
//!
//! The paper's key observation is that FHE at scale is bound by key and
//! ciphertext *bytes*, not modular multiplies. A serving runtime faces
//! the same wall one level up: every tenant brings megabytes of
//! switching keys, and the host cannot keep them all expanded. This
//! crate operationalizes the paper's two memory levers:
//!
//! - **Key compression (§3.2)** on the wire and at rest: clients upload
//!   every key as its seed and `b_j` (half size), sessions store only that
//!   form, and the [`cache::KeyCache`] regenerates full keys from seeds on
//!   demand under a server-wide byte budget — trading compute for
//!   resident key memory, with LRU eviction.
//! - **Deterministic evaluation** end to end: seeded expansion is
//!   bit-exact and every evaluator op is deterministic, so a result
//!   computed through the server is *bit-identical* to the same calls
//!   made locally — which the loopback integration test asserts.
//!
//! The stack is std-only: a framed TCP protocol ([`protocol`]) over the
//! `MADf` serialization, a session manager ([`session`]), and a scale-out
//! server ([`server`]) of N independent shards behind one blocking thread
//! per connection. Each request takes one path: its connection's thread
//! reads the frame, checks its header and hands it to the bounded worker
//! queue of the shard that owns its session; a worker decodes the body
//! once ([`protocol`] holds every request body's layout), pins the keys it
//! plans from that, runs it and unpins. Sessions are placed on shards by
//! consistent hashing of the session id ([`shard`]), so a tenant's
//! compressed keys, cache slice and programs live on exactly one shard.
//! Plain-text metrics ([`metrics`]) aggregate across
//! shards with per-shard labels, and request-scoped tracing attributes
//! per-stage latency with the owning shard stamped on every timeline
//! ([`obs`]). [`client::Client`]
//! is the matching blocking client, and [`client::RetryingClient`] wraps
//! it with capped exponential backoff, per-op timeouts, and transparent
//! reconnect with session re-setup and compressed-key re-upload.
//!
//! There is one build. A deterministic fault-injection layer ([`fault`])
//! is always compiled: a seeded [`fault::FaultPlan`] set as
//! [`ServeConfig::fault_plan`] injects I/O errors, torn frames, latency,
//! eviction storms, overload rejections, and worker panics on a fixed
//! schedule, so every failure a test observes replays bit-for-bit from
//! its seed. Without a plan (the default) no injection site consults
//! anything but that empty `Option`.
//!
//! ```no_run
//! use fhe_serve::{Client, ServeConfig, Server};
//! use ckks::{CkksContext, CkksParams};
//!
//! let ctx = CkksContext::new(
//!     CkksParams::builder()
//!         .log_degree(5)
//!         .levels(3)
//!         .scale_bits(30)
//!         .first_modulus_bits(36)
//!         .dnum(2)
//!         .build()
//!         .unwrap(),
//! );
//! let server = Server::start(ctx.clone(), ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr(), ctx).unwrap();
//! let session = client.hello().unwrap();
//! // … upload keys, evaluate, then:
//! client.close_session(session).unwrap();
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
mod config;
mod exec;
pub mod fault;
pub mod metrics;
pub mod obs;
mod plan;
pub mod protocol;
mod sched;
pub mod server;
pub mod session;
pub mod shard;
mod transport;

pub use cache::{CacheStats, EvictionPolicy, KeyCache, KeyKind};
pub use client::{Client, ClientError, ProgramHandle, RetryPolicy, RetryStats, RetryingClient};
pub use config::{BatchConfig, ObsConfig, ServeConfig};
pub use fault::{FaultDecision, FaultMix, FaultPlan, InjectedFault};
pub use obs::{chrome_trace_json, FinishedTrace, Stage, SubSpan};
pub use protocol::{ErrorCode, Opcode, PROTOCOL_VERSION};
pub use server::Server;
pub use session::{Session, SessionManager, StoredProgram};
pub use shard::{shard_of, MAX_SHARDS};
