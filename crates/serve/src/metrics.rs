//! Server observability: per-op latency histograms, queue and wire
//! gauges, and a plain-text dump in a Prometheus-flavoured format.
//!
//! Everything is lock-free atomics so the hot path (one histogram update
//! and a few counter bumps per request) never contends. The dump also
//! folds in the key cache's counters: each miss is one switching-key
//! expansion, so the expansion families read the cache's misses and the
//! expanded bytes it counts beside them — the server's own, summed over
//! its shards.

use crate::cache::CacheStats;
use crate::obs::Stage;
use crate::protocol::Opcode;
use fhe_math::ScratchStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets. Bucket 0 is the labeled floor: everything at
/// or below 1 (sub-microsecond requests included, not collapsed into an
/// unlabeled slot). Bucket `i ≥ 1` counts values in `(2^{i-1}, 2^i]`, so
/// every bucket's upper bound is its `le` label. The final slot is an
/// unlabeled overflow (> 2^{BUCKETS-2} µs ≈ 4.2 s) that only ever surfaces
/// through the `le="+Inf"` line of the dump.
const BUCKETS: usize = 24;

/// A log2 histogram of latencies in whole microseconds, with total count
/// and sum.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Records one observation, clamping sub-microsecond durations into
    /// the labeled `le="1"` floor bucket.
    pub fn observe(&self, d: Duration) {
        let v = d.as_micros() as u64;
        let idx = if v <= 1 {
            0
        } else {
            (64 - (v - 1).leading_zeros() as usize).min(BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observed latencies, µs.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The `[lo, hi]` µs range bucket `i` covers, with the overflow
    /// bucket assigned a pseudo upper bound of twice its lower bound so
    /// interpolation stays finite.
    fn bucket_bounds(i: usize) -> (f64, f64) {
        if i == 0 {
            (0.0, 1.0)
        } else {
            let lo = (1u64 << (i - 1)) as f64;
            (lo, lo * 2.0)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) in µs, linearly interpolated inside
    /// the log2 bucket holding the target rank — the classic Prometheus
    /// `histogram_quantile` estimate, bounded by the bucket resolution.
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if cum + n >= rank {
                let (lo, hi) = Self::bucket_bounds(i);
                let frac = (rank - cum) as f64 / n as f64;
                return Some(lo + (hi - lo) * frac);
            }
            cum += n;
        }
        None
    }

    /// Emits the cumulative bucket/count/sum sample lines for family
    /// `name`, the first `buckets` buckets labeled. `labels` is either
    /// empty or a `key="value"` fragment spliced before the `le` label.
    fn dump_into(&self, out: &mut String, name: &str, labels: &str, buckets: usize) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0;
        // Past the labeled buckets everything is overflow: rendered only
        // through the `+Inf` line below, never with a numeric `le` it
        // would violate.
        for (i, b) in self.buckets.iter().take(buckets).enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            cumulative += n;
            let le = 1u64 << i;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count()
        );
        let braces = |s: &str| {
            if s.is_empty() {
                String::new()
            } else {
                format!("{{{s}}}")
            }
        };
        let _ = writeln!(out, "{name}_count{} {}", braces(labels), self.count());
        let _ = writeln!(out, "{name}_sum{} {}", braces(labels), self.sum());
    }

    /// Emits `p50`/`p95`/`p99` gauge samples for family `name` (empty
    /// histograms emit nothing).
    fn dump_quantiles_into(&self, out: &mut String, name: &str, labels: &str) {
        if self.count() == 0 {
            return;
        }
        let sep = if labels.is_empty() { "" } else { "," };
        for q in [0.5, 0.95, 0.99] {
            let v = self.quantile(q).expect("non-empty");
            let _ = writeln!(out, "{name}{{{labels}{sep}q=\"{q}\"}} {v:.1}");
        }
    }
}

/// One shard's contribution to the sharded metrics dump: its request
/// count, open sessions, stored bytes and key-cache slice, captured
/// together so the per-shard lines in [`Metrics::dump_sharded`] describe
/// one moment.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardSnapshot {
    /// The shard index (the `shard="i"` label value).
    pub shard: usize,
    /// Requests this shard's gate has taken.
    pub requests: u64,
    /// Sessions currently open on this shard.
    pub sessions: u64,
    /// This shard's key-cache counters.
    pub cache: CacheStats,
    /// This shard's slice of the global cache byte budget.
    pub budget_bytes: u64,
    /// Compressed key and program bytes this shard's sessions store
    /// (`SessionManager::stored_bytes`).
    pub stored_bytes: u64,
}

/// One row of the per-shard family table in
/// [`Metrics::dump_sharded`]: family name, Prometheus type, help text,
/// and the [`ShardSnapshot`] field it reads.
type ShardFamily = (
    &'static str,
    &'static str,
    &'static str,
    fn(&ShardSnapshot) -> u64,
);

/// All server-side counters; one instance shared by every thread.
#[derive(Default)]
pub struct Metrics {
    latency: [Histogram; Opcode::ALL.len()],
    /// Attributed latency per lifecycle [`Stage`], fed by the tracing
    /// layer at request finish.
    stage_latency: [Histogram; Stage::ALL.len()],
    /// End-to-end request latency (accept → reply written).
    e2e_latency: Histogram,
    /// Requests accepted by a shard's gate.
    pub requests_total: AtomicU64,
    /// Responses carrying a non-zero status.
    pub errors_total: AtomicU64,
    /// Requests refused at a gate because its line was full.
    pub rejected_overload: AtomicU64,
    /// Requests refused at their permit's grant because their deadline
    /// had passed.
    pub rejected_deadline: AtomicU64,
    /// Frame bytes read off the wire (including headers).
    pub bytes_read: AtomicU64,
    /// Frame bytes written to the wire (including headers).
    pub bytes_written: AtomicU64,
    /// Requests currently waiting for a permit.
    pub queue_depth: AtomicU64,
    /// High-water mark of `queue_depth`.
    pub queue_peak: AtomicU64,
    /// Connections accepted.
    pub connections_total: AtomicU64,
    /// Faults deliberately injected by a chaos [`crate::fault::FaultPlan`]
    /// (always present in the dump; stays zero on a server without one).
    pub faults_injected: AtomicU64,
}

impl Metrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latency histogram for one opcode.
    pub fn latency(&self, op: Opcode) -> &Histogram {
        let idx = Opcode::ALL.iter().position(|&o| o == op).expect("in table");
        &self.latency[idx]
    }

    /// The attributed-latency histogram for one lifecycle stage.
    pub fn stage_latency(&self, stage: Stage) -> &Histogram {
        let idx = Stage::ALL.iter().position(|&s| s == stage).expect("listed");
        &self.stage_latency[idx]
    }

    /// The end-to-end request latency histogram.
    pub fn e2e_latency(&self) -> &Histogram {
        &self.e2e_latency
    }

    /// Marks a request arriving at a gate.
    pub fn enqueued(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Marks a request granted its permit.
    pub fn dequeued(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Undoes [`Metrics::enqueued`] when a gate refused the request with
    /// its line full.
    pub fn retracted(&self) {
        self.requests_total.fetch_sub(1, Ordering::Relaxed);
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Renders every counter, plus the cache's and the scratch pool's, as
    /// plain text in the Prometheus exposition format: every family gets a
    /// `# HELP` and `# TYPE` header immediately before its samples,
    /// families appear in a fixed order regardless of traffic, and
    /// histogram families additionally derive `p50`/`p95`/`p99` gauge
    /// estimates from their log2 buckets. `backend` is the context's
    /// active kernel backend, exported as an info-style gauge so dashboards
    /// can attribute latency shifts to kernel changes.
    pub fn dump(&self, cache: &CacheStats, scratch: &ScratchStats, backend: &str) -> String {
        let mut out = String::new();
        let family = |out: &mut String, name: &str, ty: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {ty}");
        };
        let g = |out: &mut String, name: &str, ty: &str, help: &str, v: u64| {
            family(out, name, ty, help);
            let _ = writeln!(out, "{name} {v}");
        };

        family(
            &mut out,
            "serve_kernel_backend",
            "gauge",
            "Active kernel backend (info-style, value always 1).",
        );
        let _ = writeln!(out, "serve_kernel_backend{{backend=\"{backend}\"}} 1");

        let rel = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counters: [(&str, &str, &str, u64); 19] = [
            (
                "serve_requests_total",
                "counter",
                "Requests accepted by a shard's gate.",
                rel(&self.requests_total),
            ),
            (
                "serve_errors_total",
                "counter",
                "Responses carrying a non-zero status.",
                rel(&self.errors_total),
            ),
            (
                "serve_rejected_overload_total",
                "counter",
                "Requests rejected because the gate's line was full.",
                rel(&self.rejected_overload),
            ),
            (
                "serve_rejected_deadline_total",
                "counter",
                "Requests dropped because their deadline passed while queued.",
                rel(&self.rejected_deadline),
            ),
            (
                "serve_bytes_read_total",
                "counter",
                "Frame bytes read off the wire, headers included.",
                rel(&self.bytes_read),
            ),
            (
                "serve_bytes_written_total",
                "counter",
                "Frame bytes written to the wire, headers included.",
                rel(&self.bytes_written),
            ),
            (
                "serve_queue_depth",
                "gauge",
                "Requests currently waiting for a shard's permit.",
                rel(&self.queue_depth),
            ),
            (
                "serve_queue_depth_peak",
                "gauge",
                "High-water mark of serve_queue_depth.",
                rel(&self.queue_peak),
            ),
            (
                "serve_connections_total",
                "counter",
                "Connections accepted.",
                rel(&self.connections_total),
            ),
            (
                "serve_faults_injected_total",
                "counter",
                "Faults deliberately injected by a chaos plan.",
                rel(&self.faults_injected),
            ),
            (
                "serve_key_cache_hits_total",
                "counter",
                "Key-cache hits.",
                cache.hits,
            ),
            (
                "serve_key_cache_misses_total",
                "counter",
                "Key-cache misses (each one a seeded expansion).",
                cache.misses,
            ),
            (
                "serve_key_cache_evictions_total",
                "counter",
                "Expanded keys evicted under budget pressure.",
                cache.evictions,
            ),
            (
                "serve_key_cache_resident_bytes",
                "gauge",
                "Bytes the key-cache budget charges its resident keys (each a whole key).",
                cache.resident_bytes,
            ),
            (
                "serve_cache_materialized_bytes",
                "gauge",
                "Bytes of key material resident keys hold, each expanded for the levels it was read at.",
                cache.materialized_bytes,
            ),
            (
                "serve_cache_widenings_total",
                "counter",
                "Key-cache hits that re-expanded a key for a higher level.",
                cache.widenings,
            ),
            (
                "serve_key_cache_resident_keys",
                "gauge",
                "Expanded keys currently resident.",
                cache.resident_keys,
            ),
            (
                "serve_key_cache_pinned_keys",
                "gauge",
                "Keys currently pinned by executing requests.",
                cache.pinned_keys,
            ),
            (
                "serve_scratch_free_bytes",
                "gauge",
                "Bytes held by the scratch pool's free list (buffer capacity).",
                scratch.free_bytes,
            ),
        ];
        for (name, ty, help, v) in counters {
            g(&mut out, name, ty, help, v);
        }

        // Every cache miss and every widening is one expansion from the
        // seeded form.
        g(
            &mut out,
            "serve_key_expansions_total",
            "counter",
            "Switching-key expansions performed by the math layer.",
            cache.misses + cache.widenings,
        );
        g(
            &mut out,
            "serve_key_expansion_bytes_total",
            "counter",
            "Bytes of switching-key material unpacked into held keys.",
            cache.expanded_bytes,
        );

        family(
            &mut out,
            "serve_op_latency_us",
            "histogram",
            "Handler latency per opcode, log2 µs buckets.",
        );
        for op in Opcode::ALL {
            let h = self.latency(op);
            if h.count() > 0 {
                h.dump_into(
                    &mut out,
                    "serve_op_latency_us",
                    &format!("op=\"{}\"", op.name()),
                    BUCKETS - 1,
                );
            }
        }
        family(
            &mut out,
            "serve_op_latency_us_quantile",
            "gauge",
            "Per-opcode latency quantiles interpolated from the log2 buckets.",
        );
        for op in Opcode::ALL {
            self.latency(op).dump_quantiles_into(
                &mut out,
                "serve_op_latency_us_quantile",
                &format!("op=\"{}\"", op.name()),
            );
        }

        family(
            &mut out,
            "serve_stage_latency_us",
            "histogram",
            "Attributed latency per request lifecycle stage, log2 µs buckets.",
        );
        for s in Stage::ALL {
            let h = self.stage_latency(s);
            if h.count() > 0 {
                h.dump_into(
                    &mut out,
                    "serve_stage_latency_us",
                    &format!("stage=\"{}\"", s.name()),
                    BUCKETS - 1,
                );
            }
        }
        family(
            &mut out,
            "serve_stage_latency_us_quantile",
            "gauge",
            "Per-stage latency quantiles interpolated from the log2 buckets.",
        );
        for s in Stage::ALL {
            self.stage_latency(s).dump_quantiles_into(
                &mut out,
                "serve_stage_latency_us_quantile",
                &format!("stage=\"{}\"", s.name()),
            );
        }

        family(
            &mut out,
            "serve_e2e_latency_us",
            "histogram",
            "End-to-end request latency (accept to reply written), log2 µs buckets.",
        );
        if self.e2e_latency.count() > 0 {
            self.e2e_latency
                .dump_into(&mut out, "serve_e2e_latency_us", "", BUCKETS - 1);
        }
        family(
            &mut out,
            "serve_e2e_latency_us_quantile",
            "gauge",
            "End-to-end latency quantiles interpolated from the log2 buckets.",
        );
        self.e2e_latency
            .dump_quantiles_into(&mut out, "serve_e2e_latency_us_quantile", "");
        out
    }

    /// [`Metrics::dump`] plus the per-shard families of a sharded
    /// server: the shard count, then per-shard request counters, open
    /// sessions, each shard's key-cache slice and its sessions' stored
    /// bytes (`shard="i"` labels).
    /// `cache` must be the *aggregate* of every shard's stats so the
    /// global families keep reading as one fleet-wide cache; family
    /// order is fixed and traffic-independent, exactly like
    /// [`Metrics::dump`].
    pub fn dump_sharded(
        &self,
        cache: &CacheStats,
        scratch: &ScratchStats,
        backend: &str,
        shards: &[ShardSnapshot],
    ) -> String {
        let mut out = self.dump(cache, scratch, backend);
        let family = |out: &mut String, name: &str, ty: &str, help: &str| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {ty}");
        };
        family(
            &mut out,
            "serve_shards",
            "gauge",
            "Number of independent shards.",
        );
        let _ = writeln!(out, "serve_shards {}", shards.len());
        let labeled: [ShardFamily; 8] = [
            (
                "serve_shard_requests_total",
                "counter",
                "Requests this shard's gate accepted, each run on its connection's thread.",
                |s| s.requests,
            ),
            (
                "serve_shard_sessions",
                "gauge",
                "Sessions currently open on this shard.",
                |s| s.sessions,
            ),
            (
                "serve_shard_key_cache_hits_total",
                "counter",
                "Key-cache hits on this shard's slice.",
                |s| s.cache.hits,
            ),
            (
                "serve_shard_key_cache_misses_total",
                "counter",
                "Key-cache misses on this shard's slice.",
                |s| s.cache.misses,
            ),
            (
                "serve_shard_key_cache_resident_bytes",
                "gauge",
                "Expanded-key bytes resident on this shard's slice.",
                |s| s.cache.resident_bytes,
            ),
            (
                "serve_shard_key_cache_budget_bytes",
                "gauge",
                "This shard's slice of the global cache byte budget.",
                |s| s.budget_bytes,
            ),
            (
                "serve_shard_key_cache_evictions_total",
                "counter",
                "Expanded keys evicted from this shard's slice.",
                |s| s.cache.evictions,
            ),
            (
                "serve_shard_stored_key_bytes",
                "gauge",
                "Compressed key (and program) bytes stored by this shard's sessions.",
                |s| s.stored_bytes,
            ),
        ];
        for (name, ty, help, get) in labeled {
            family(&mut out, name, ty, help);
            for s in shards {
                let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", s.shard, get(s));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(1));
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_micros(1000));
        h.observe(Duration::from_secs(7200)); // lands in the +Inf overflow
        assert_eq!(h.count(), 4);
        let m = Metrics::new();
        m.latency(Opcode::Add).observe(Duration::from_micros(5));
        let dump = m.dump(&CacheStats::default(), &ScratchStats::default(), "scalar");
        assert!(dump.contains("serve_op_latency_us_count{op=\"add\"} 1"));
        assert!(dump.contains("serve_op_latency_us_bucket{op=\"add\",le=\"+Inf\"} 1"));
        assert!(dump.contains("serve_requests_total 0"));
        assert!(dump.contains("serve_faults_injected_total 0"));
        assert!(dump.contains("serve_key_cache_hits_total 0"));
    }

    /// Parses `(le, cumulative)` pairs for one op out of a dump.
    fn bucket_lines(dump: &str, op: &str) -> Vec<(Option<u64>, u64)> {
        let prefix = format!("serve_op_latency_us_bucket{{op=\"{op}\",le=\"");
        dump.lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .map(|rest| {
                let (le, val) = rest.split_once("\"} ").expect("well-formed bucket line");
                (le.parse::<u64>().ok(), val.parse::<u64>().unwrap())
            })
            .collect()
    }

    #[test]
    fn sub_microsecond_lands_in_labeled_floor_bucket() {
        let m = Metrics::new();
        let h = m.latency(Opcode::Rotate);
        h.observe(Duration::from_nanos(0));
        h.observe(Duration::from_nanos(300));
        h.observe(Duration::from_micros(1));
        let dump = m.dump(&CacheStats::default(), &ScratchStats::default(), "scalar");
        let lines = bucket_lines(&dump, "rotate");
        assert_eq!(
            lines.first(),
            Some(&(Some(1), 3)),
            "all three observations belong to the le=\"1\" floor bucket: {lines:?}"
        );
    }

    #[test]
    fn bucket_labels_are_monotone_and_cover_every_observation() {
        let m = Metrics::new();
        let h = m.latency(Opcode::Mult);
        // One observation per decade from sub-µs into the overflow range.
        let samples_us: [u64; 9] = [0, 1, 2, 17, 999, 65_000, 1 << 19, 1 << 20, 1 << 30];
        for us in samples_us {
            h.observe(Duration::from_micros(us));
        }
        let dump = m.dump(&CacheStats::default(), &ScratchStats::default(), "scalar");
        let lines = bucket_lines(&dump, "mult");
        assert!(lines.len() >= 2);
        // Every rendered bucket is labeled except the final +Inf; labels
        // strictly increase and cumulative counts never decrease.
        let (last_le, last_cum) = lines.last().unwrap();
        assert!(last_le.is_none(), "dump must end with le=\"+Inf\"");
        assert_eq!(*last_cum, h.count(), "+Inf must cover every observation");
        let mut prev_le = 0u64;
        let mut prev_cum = 0u64;
        for (le, cum) in &lines[..lines.len() - 1] {
            let le = le.expect("only the final bucket may be +Inf");
            assert!(le > prev_le, "le labels must strictly increase");
            assert!(*cum >= prev_cum, "cumulative counts must not decrease");
            prev_le = le;
            prev_cum = *cum;
        }
        // Each labeled observation sits in a bucket whose le bounds it:
        // cumulative at le must count exactly the samples ≤ le.
        for (le, cum) in &lines[..lines.len() - 1] {
            let le = le.unwrap();
            let expect = samples_us.iter().filter(|&&s| s <= le).count() as u64;
            assert_eq!(
                *cum, expect,
                "cumulative at le={le} miscounts the samples ≤ {le}"
            );
        }
    }

    #[test]
    fn quantiles_interpolate_inside_log2_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 100 observations spread uniformly over (256, 512] land in one
        // bucket; interpolation should place p50 near its middle and
        // p99 near its top.
        for i in 1..=100u64 {
            h.observe(Duration::from_micros(256 + i * 256 / 100));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 > 256.0 && p50 < 512.0, "p50 = {p50}");
        assert!(p50 <= p95 && p95 <= p99, "p50 {p50} p95 {p95} p99 {p99}");
        assert!((p50 - 384.0).abs() < 32.0, "p50 ≈ bucket midpoint: {p50}");
        assert!(p99 > 500.0 && p99 <= 512.0, "p99 ≈ bucket top: {p99}");
        // A bimodal distribution: quantiles pick the right bucket.
        let h = Histogram::default();
        for _ in 0..90 {
            h.observe(Duration::from_micros(10));
        }
        for _ in 0..10 {
            h.observe(Duration::from_micros(100_000));
        }
        assert!(h.quantile(0.5).unwrap() <= 16.0);
        assert!(h.quantile(0.95).unwrap() > 65_536.0);
    }

    /// Strips a sample line down to its family name: label block and
    /// value dropped, histogram suffixes folded into the family.
    fn family_of(line: &str) -> String {
        let name = line
            .split(['{', ' '])
            .next()
            .expect("non-empty line")
            .to_string();
        for suffix in ["_bucket", "_count", "_sum"] {
            if let Some(stripped) = name.strip_suffix(suffix) {
                return stripped.to_string();
            }
        }
        name
    }

    #[test]
    fn dump_has_help_and_type_for_every_series_in_stable_order() {
        let m = Metrics::new();
        m.latency(Opcode::Rotate)
            .observe(Duration::from_micros(700));
        m.stage_latency(Stage::Kernel)
            .observe(Duration::from_micros(650));
        m.e2e_latency().observe(Duration::from_micros(800));
        m.enqueued();
        let scratch = ScratchStats {
            free_bytes: 4096,
            ..ScratchStats::default()
        };
        let cache = CacheStats {
            misses: 3,
            widenings: 2,
            resident_bytes: 4096,
            materialized_bytes: 640,
            ..CacheStats::default()
        };
        let dump = m.dump(&cache, &scratch, "scalar");

        let mut families_in_order = Vec::new();
        let mut typed = std::collections::HashSet::new();
        let mut helped = std::collections::HashSet::new();
        for line in dump.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, ty) = rest.split_once(' ').expect("TYPE name ty");
                assert!(
                    matches!(ty, "counter" | "gauge" | "histogram"),
                    "unknown type: {line}"
                );
                assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                families_in_order.push(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(helped.insert(name.to_string()), "duplicate HELP for {name}");
                continue;
            }
            if line.is_empty() {
                continue;
            }
            // Every sample line's family must have been declared above it,
            // quantile gauges included.
            let fam = family_of(line);
            assert!(
                typed.contains(&fam),
                "sample before its TYPE header: {line} (family {fam})"
            );
        }
        assert_eq!(typed, helped, "HELP and TYPE must pair up exactly");

        // Ordering is structural, not traffic-dependent: a dump from a
        // metrics instance with different traffic declares the same
        // families in the same order.
        let m2 = Metrics::new();
        m2.latency(Opcode::Add).observe(Duration::from_micros(5));
        let dump2 = m2.dump(&CacheStats::default(), &ScratchStats::default(), "unrolled");
        let families2: Vec<String> = dump2
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|r| r.split(' ').next().unwrap().to_string())
            .collect();
        assert_eq!(families_in_order, families2, "family order must be stable");
        // The pool's free-list bytes follow the key cache's residency.
        let at = |name: &str| families_in_order.iter().position(|f| f == name);
        assert_eq!(
            at("serve_scratch_free_bytes"),
            at("serve_key_cache_pinned_keys").map(|i| i + 1)
        );
        assert!(dump.contains("\nserve_scratch_free_bytes 4096\n"));
        // The cache's reservation beside what it holds; a widening is an
        // expansion as a miss is.
        assert!(dump.contains("\nserve_key_cache_resident_bytes 4096\n"));
        assert!(dump.contains("\nserve_cache_materialized_bytes 640\n"));
        assert!(dump.contains("\nserve_cache_widenings_total 2\n"));
        assert!(dump.contains("\nserve_key_expansions_total 5\n"));

        // Quantile estimates honour the bucket that fed them.
        assert!(dump.contains("serve_stage_latency_us_quantile{stage=\"kernel\",q=\"0.5\"}"));
        assert!(dump.contains("serve_e2e_latency_us_quantile{q=\"0.99\"}"));
        assert!(dump.contains("serve_op_latency_us_quantile{op=\"rotate\",q=\"0.95\"}"));
    }

    #[test]
    fn sharded_dump_appends_per_shard_families_after_the_global_ones() {
        let m = Metrics::new();
        m.enqueued();
        let agg = CacheStats {
            hits: 3,
            misses: 2,
            accesses: 5,
            ..CacheStats::default()
        };
        let shards = [
            ShardSnapshot {
                shard: 0,
                requests: 1,
                sessions: 2,
                cache: CacheStats {
                    hits: 3,
                    misses: 1,
                    accesses: 4,
                    ..CacheStats::default()
                },
                budget_bytes: 512,
                stored_bytes: 1234,
            },
            ShardSnapshot {
                shard: 1,
                requests: 0,
                sessions: 0,
                cache: CacheStats {
                    misses: 1,
                    accesses: 1,
                    ..CacheStats::default()
                },
                budget_bytes: 512,
                stored_bytes: 0,
            },
        ];
        let scratch = ScratchStats::default();
        let dump = m.dump_sharded(&agg, &scratch, "scalar", &shards);
        // The global families are the plain dump, byte for byte.
        assert!(dump.starts_with(&m.dump(&agg, &scratch, "scalar")));
        assert!(dump.contains("serve_shards 2"));
        assert!(dump.contains("serve_shard_requests_total{shard=\"0\"} 1"));
        assert!(dump.contains("serve_shard_requests_total{shard=\"1\"} 0"));
        assert!(dump.contains("serve_shard_sessions{shard=\"0\"} 2"));
        assert!(dump.contains("serve_shard_key_cache_hits_total{shard=\"0\"} 3"));
        assert!(dump.contains("serve_shard_key_cache_budget_bytes{shard=\"1\"} 512"));
        assert!(dump.contains("serve_shard_stored_key_bytes{shard=\"0\"} 1234"));
        // Every appended family is declared before its samples.
        for name in [
            "serve_shards",
            "serve_shard_requests_total",
            "serve_shard_sessions",
            "serve_shard_key_cache_hits_total",
            "serve_shard_key_cache_misses_total",
            "serve_shard_key_cache_resident_bytes",
            "serve_shard_key_cache_budget_bytes",
            "serve_shard_key_cache_evictions_total",
            "serve_shard_stored_key_bytes",
        ] {
            assert!(dump.contains(&format!("# HELP {name} ")), "{name}");
            assert!(dump.contains(&format!("# TYPE {name} ")), "{name}");
        }
    }

    #[test]
    fn queue_gauges_track_depth_and_peak() {
        let m = Metrics::new();
        m.enqueued();
        m.enqueued();
        m.dequeued();
        m.enqueued();
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 2);
        assert_eq!(m.queue_peak.load(Ordering::Relaxed), 2);
        assert_eq!(m.requests_total.load(Ordering::Relaxed), 3);
    }
}
