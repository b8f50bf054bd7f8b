//! Server configuration and the one reader of the `MAD_SERVE_*`
//! environment variables.
//!
//! [`ServeConfig::default`] is the only place the crate consults the
//! process environment, and it does so through an injected lookup so the
//! clamps and the leniency (unset, empty or unparseable values fall back
//! to the baseline) are unit-tested without mutating process state.
//! Explicit struct values always win over the environment.

use crate::cache::EvictionPolicy;
use crate::fault::FaultPlan;
use crate::protocol::DEFAULT_MAX_FRAME_BYTES;
use crate::shard::MAX_SHARDS;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for [`crate::Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent shard loops; sessions are placed by consistent
    /// hashing of the session id, and each shard owns its own session
    /// table, key-cache slice (`key_cache_budget / shards`), scheduler,
    /// and worker pool. The default reads `MAD_SERVE_SHARDS` (clamped to
    /// `1..=`[`MAX_SHARDS`], default 1).
    pub shards: usize,
    /// Worker threads executing FHE ops, **per shard**; `0` runs one.
    pub workers: usize,
    /// Bounded queue length per shard, and the most keyed requests it
    /// holds for grouping; past either, a request gets `Overloaded`.
    /// `0` is served as 1.
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
    /// Key-reuse grouping knobs (each shard runs its own scheduler). The
    /// default reads `MAD_SERVE_BATCH_SIZE` / `MAD_SERVE_BATCH_DELAY_MS`.
    pub batch: BatchConfig,
    /// Request-tracing knobs ([`crate::obs`]); tracing itself is always
    /// on.
    pub obs: ObsConfig,
    /// Deterministic fault schedule threaded through the shard loops
    /// and worker pools; `None` (the default) serves faithfully and
    /// never consults a plan.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }
}

/// Knobs for the key-reuse scheduler, part of [`ServeConfig`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// A group dispatches as soon as it holds this many requests; `1`
    /// disables grouping (every keyed request runs as a group of one).
    pub max_batch: usize,
    /// A group dispatches at latest this long after its first request
    /// (the hold applies to `Auto` sessions only while the worker pool
    /// is busy, and to `Throughput` sessions always).
    pub max_delay: Duration,
}

impl BatchConfig {
    /// Built-in defaults: groups of up to 8, 2 ms window.
    pub const fn baseline() -> Self {
        Self {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
        }
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
    /// The baseline overridden by whatever `lookup` returns for the
    /// `MAD_SERVE_*` variables named on the fields above; counts are
    /// clamped to at least 1 (shards to `1..=`[`MAX_SHARDS`]) and
    /// unparseable values are ignored.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        fn parsed<T: FromStr>(value: Option<String>) -> Option<T> {
            value?.trim().parse().ok()
        }
        let mut batch = BatchConfig::baseline();
        if let Some(n) = parsed::<usize>(lookup("MAD_SERVE_BATCH_SIZE")) {
            batch.max_batch = n.max(1);
        }
        if let Some(ms) = parsed(lookup("MAD_SERVE_BATCH_DELAY_MS")) {
            batch.max_delay = Duration::from_millis(ms);
        }
        Self {
            shards: parsed::<usize>(lookup("MAD_SERVE_SHARDS"))
                .map_or(1, |n| n.clamp(1, MAX_SHARDS)),
            workers: 2,
            queue_capacity: 32,
            key_cache_budget: 64 << 20,
            eviction: EvictionPolicy::Lru,
            request_deadline: Duration::from_secs(30),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            batch,
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
        assert_eq!(cfg.batch.max_batch, 8);
        assert_eq!(cfg.batch.max_delay, Duration::from_millis(2));
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

    #[test]
    fn batch_overrides_are_lenient() {
        let cfg = with(&[
            ("MAD_SERVE_BATCH_SIZE", "0"),
            ("MAD_SERVE_BATCH_DELAY_MS", "soon"),
        ]);
        assert_eq!(cfg.batch.max_batch, 1, "a group holds at least one job");
        assert_eq!(cfg.batch.max_delay, Duration::from_millis(2));
        let cfg = with(&[
            ("MAD_SERVE_BATCH_SIZE", "3"),
            ("MAD_SERVE_BATCH_DELAY_MS", "7"),
        ]);
        assert_eq!(cfg.batch.max_batch, 3);
        assert_eq!(cfg.batch.max_delay, Duration::from_millis(7));
    }
}
