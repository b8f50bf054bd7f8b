//! Server configuration and the one reader of the `MAD_SERVE_SHARDS`
//! environment variable.
//!
//! [`ServeConfig::default`] is the only place the crate consults the
//! process environment, and it does so through an injected lookup so the
//! clamp and the leniency (an unset, empty or unparseable value falls
//! back to the baseline) are unit-tested without mutating process state.
//! Explicit struct values always win over the environment.

use crate::cache::EvictionPolicy;
use crate::fault::FaultPlan;
use crate::protocol::DEFAULT_MAX_FRAME_BYTES;
use crate::shard::MAX_SHARDS;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`crate::Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent shards; sessions are placed by consistent hashing of
    /// the session id, and each shard owns its own session table,
    /// key-cache slice (`key_cache_budget / shards`), worker queue and
    /// worker pool. The default reads `MAD_SERVE_SHARDS`
    /// (clamped to `1..=`[`MAX_SHARDS`], default 1).
    pub shards: usize,
    /// Worker threads executing FHE ops, **per shard**; `0` runs one.
    pub workers: usize,
    /// Bounded worker-queue length per shard: the most parsed requests
    /// waiting for a worker at once. Past it, a request gets
    /// `Overloaded`. `0` is served as 1.
    pub queue_capacity: usize,
    /// Global byte budget for expanded switching keys, split evenly
    /// across the per-shard [`crate::KeyCache`]s.
    pub key_cache_budget: u64,
    /// Cache eviction policy.
    pub eviction: EvictionPolicy,
    /// Maximum time a request may wait in the queue before a worker
    /// starts it; exceeded requests answer `DeadlineExceeded`.
    pub request_deadline: Duration,
    /// Ceiling on a single frame.
    pub max_frame_bytes: u32,
    /// Ignored: the server holds no request back to group it with
    /// others, so there is nothing to tune. Kept so existing
    /// `ServeConfig` literals still build.
    pub batch: BatchConfig,
    /// Request-tracing knobs ([`crate::obs`]); tracing itself is always
    /// on.
    pub obs: ObsConfig,
    /// Deterministic fault schedule consulted by the connection threads
    /// and worker pools; `None` (the default) serves faithfully and
    /// never consults a plan.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }
}

/// The type of the ignored [`ServeConfig::batch`] field: no knobs.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig;

impl BatchConfig {
    /// The only value.
    pub const fn baseline() -> Self {
        Self
    }
}

/// Tracing knobs for the serving runtime, a field of [`ServeConfig`].
/// Every request is traced; these size what is retained.
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// How many finished request timelines the ring retains.
    pub ring_capacity: usize,
    /// Requests slower than this end-to-end land in the slow-request
    /// log, annotated with their dominant stage.
    pub slow_threshold: Duration,
}

impl ObsConfig {
    /// The hardcoded defaults: a 128-entry ring, 500 ms slow threshold.
    pub fn baseline() -> Self {
        Self {
            ring_capacity: 128,
            slow_threshold: Duration::from_millis(500),
        }
    }
}

impl ServeConfig {
    /// The baseline overridden by whatever `lookup` returns for
    /// `MAD_SERVE_SHARDS`, the one variable read, clamped to
    /// `1..=`[`MAX_SHARDS`]; an unparseable value is ignored.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let shards = lookup("MAD_SERVE_SHARDS").and_then(|v| v.trim().parse::<usize>().ok());
        Self {
            shards: shards.map_or(1, |n| n.clamp(1, MAX_SHARDS)),
            workers: 2,
            queue_capacity: 32,
            key_cache_budget: 64 << 20,
            eviction: EvictionPolicy::Lru,
            request_deadline: Duration::from_secs(30),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            batch: BatchConfig,
            obs: ObsConfig::baseline(),
            fault_plan: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with(vars: &[(&str, &str)]) -> ServeConfig {
        ServeConfig::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn unset_environment_is_the_baseline() {
        let cfg = with(&[]);
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.obs.ring_capacity, 128);
        assert_eq!(cfg.obs.slow_threshold, Duration::from_millis(500));
    }

    #[test]
    fn shard_count_is_clamped_and_garbage_means_one() {
        assert_eq!(with(&[("MAD_SERVE_SHARDS", "0")]).shards, 1);
        assert_eq!(with(&[("MAD_SERVE_SHARDS", "65")]).shards, MAX_SHARDS);
        assert_eq!(with(&[("MAD_SERVE_SHARDS", " 4 ")]).shards, 4);
        assert_eq!(with(&[("MAD_SERVE_SHARDS", "many")]).shards, 1);
        assert_eq!(with(&[("MAD_SERVE_SHARDS", "")]).shards, 1);
    }
}
