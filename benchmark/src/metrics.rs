//! The metric registry — the single list `/BENCHMARK.json` is generated from
//! (`--manifest`) and every run's output is checked against — and the
//! printing of a run's result.

use crate::workloads::WORKLOAD_NAMES;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// An end-to-end metric and how far its median may worsen before a change is
/// a regression: by `bound` as a share of the parent's median or by `floor`
/// in the metric's own unit, whichever is more. `/BENCHMARK.json` carries only
/// the share; `--agree` applies both.
pub struct EndToEnd {
    pub def: Def,
    pub bound: f64,
    pub floor: f64,
}

/// `failed_share` is the fifth end-to-end figure of every run; it is carried
/// by the result's `attempted` / `failed` / `correct` fields rather than
/// listed here, because the driver bounds a metric by a share of its median
/// and asks for metrics that are never 0, which this one is on every healthy
/// run.
pub const END_TO_END: &[EndToEnd] = &[
    // A set-up of 50 ms moves by a quarter of itself between identical runs.
    e2e(d("setup_s", "s", "lower"), 0.25, 0.25),
    e2e(d("throughput_rps", "req/s", "higher"), 0.15, 0.0),
    e2e(d("latency_p50_ms", "ms", "lower"), 0.15, 0.0),
    e2e(d("peak_rss_mb", "MB", "lower"), 0.20, 0.0),
];

const fn e2e(def: Def, bound: f64, floor: f64) -> EndToEnd {
    EndToEnd { def, bound, floor }
}

const fn d(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

pub const PER_LAYER: &[Def] = &[
    d("loadgen.latency_p95_ms", "ms", "lower"),
    d("loadgen.latency_p99_ms", "ms", "lower"),
    d("loadgen.samples", "count", "higher"),
    d("loadgen.cpu_ms_per_req", "ms", "lower"),
    d("loadgen.trace_overhead_share", "ratio", "lower"),
    d("loadgen.host_slowdown", "ratio", "lower"),
    d("loadgen.op_p50_ms.add", "ms", "lower"),
    d("loadgen.op_p50_ms.pt_mult", "ms", "lower"),
    d("loadgen.op_p50_ms.rescale", "ms", "lower"),
    d("loadgen.op_p50_ms.rotate", "ms", "lower"),
    d("loadgen.op_p50_ms.mult", "ms", "lower"),
    d("loadgen.op_p50_ms.bsgs", "ms", "lower"),
    d("loadgen.op_p50_ms.run_program", "ms", "lower"),
    d("loadgen.op_p50_ms.reprovision", "ms", "lower"),
    d("fhe_serve.client.outside_server_ms", "ms", "lower"),
    d("fhe_serve.protocol.wire_bytes_per_req", "B", "lower"),
    d("fhe_serve.protocol.frame_roundtrip_us", "us", "lower"),
    d("fhe_serve.stage.queue_us", "us", "lower"),
    d("fhe_serve.stage.batch_hold_us", "us", "lower"),
    d("fhe_serve.stage.decode_us", "us", "lower"),
    d("fhe_serve.stage.key_us", "us", "lower"),
    d("fhe_serve.stage.kernel_us", "us", "lower"),
    d("fhe_serve.stage.serialize_us", "us", "lower"),
    d("fhe_serve.stage.write_us", "us", "lower"),
    d("fhe_serve.stage.total_us", "us", "lower"),
    d("fhe_serve.stage.unattributed_us", "us", "lower"),
    d("fhe_serve.server.rejected", "count", "lower"),
    d("fhe_serve.server.errors", "count", "lower"),
    d("fhe_serve.batch.jobs_per_batch", "ratio", "higher"),
    d("fhe_serve.batch.expansions_avoided", "count", "higher"),
    d("fhe_serve.batch.hoist_shared", "count", "higher"),
    d("fhe_serve.cache.hit_share", "ratio", "higher"),
    d("fhe_serve.cache.misses", "count", "lower"),
    d("fhe_serve.cache.evictions", "count", "lower"),
    d("fhe_serve.cache.resident_mb", "MB", "lower"),
    d("fhe_serve.cache.hit_us", "us", "lower"),
    d("fhe_serve.cache.miss_us", "us", "lower"),
    d("fhe_serve.shard.request_imbalance", "ratio", "lower"),
    d("ckks.serialize.ct_encode_us", "us", "lower"),
    d("ckks.serialize.ct_decode_us", "us", "lower"),
    d("ckks.serialize.ct_bytes", "B", "lower"),
    d("ckks.serialize.key_expand_us", "us", "lower"),
    d("ckks.serialize.key_compressed_bytes", "B", "lower"),
    d("ckks.keys.expanded_bytes", "B", "lower"),
    d("ckks.ops.add_us", "us", "lower"),
    d("ckks.ops.mul_plain_us", "us", "lower"),
    d("ckks.ops.rescale_us", "us", "lower"),
    d("ckks.ops.mul_us", "us", "lower"),
    d("ckks.ops.rotate_us", "us", "lower"),
    d("ckks.keyswitch.modup_us", "us", "lower"),
    d("ckks.keyswitch.inner_product_us", "us", "lower"),
    d("ckks.keyswitch.moddown_us", "us", "lower"),
    d("ckks.keyswitch.total_us", "us", "lower"),
    d("ckks.hoisting.rotate_hoisted_us", "us", "lower"),
    d("ckks.hoisting.bsgs_us", "us", "lower"),
    d("ckks.encoding.encode_us", "us", "lower"),
    d("ckks.max_slot_error", "abs", "lower"),
    d("fhe_math.ntt.forward_us", "us", "lower"),
    d("fhe_math.ntt.inverse_us", "us", "lower"),
    d("fhe_math.rns.basis_ext_us", "us", "lower"),
    d("fhe_math.ntt.limb_transforms_per_req", "count", "lower"),
    d("fhe_math.scratch.miss_share", "ratio", "lower"),
    d("fhe_program.execute_ms.dot_product", "ms", "lower"),
    d("fhe_program.execute_ms.sha256_stress", "ms", "lower"),
    d("fhe_program.execute_ms.aggregate", "ms", "lower"),
    d("fhe_program.execute_ms.helr_step", "ms", "lower"),
    d("fhe_program.vs_primitives_ratio", "ratio", "lower"),
    d("simfhe.validate_us", "us", "lower"),
    d("simfhe.program_cost_us", "us", "lower"),
    d("simfhe.model_ops", "count", "lower"),
    d("simfhe.model_dram_bytes", "B", "lower"),
    d("simfhe.model_ntt_ratio", "ratio", "lower"),
    d("simfhe.search_candidates_per_s", "1/s", "higher"),
];

/// The values one run measured. A registered metric that does not apply to
/// the workload (no server in `lib_programs`, no program in `serve_light`)
/// is simply absent: the table prints `n/a` and the result line carries 0.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under a registered name.
    ///
    /// # Panics
    ///
    /// Panics on a name the registry does not list — a typo must not
    /// silently drop a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .map(|e| &e.def)
            .chain(PER_LAYER)
            .find(|def| def.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the registry"));
        self.0
            .insert(def.name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// What a run reports besides its metrics.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Self-assertion and checker failures, already printed.
    pub violations: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

fn defs(traced: bool) -> Vec<&'static Def> {
    if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|e| &e.def).collect()
    }
}

/// The human-readable table: every metric of the mode by name and unit,
/// with `notes[name]` (spreads, sample counts) beside it.
pub fn print_table(traced: bool, values: &Values, notes: &BTreeMap<&'static str, String>) {
    for def in defs(traced) {
        let value = match values.get(def.name) {
            Some(v) => format!("{v:.6}"),
            None => "n/a".to_string(),
        };
        println!(
            "{:<42} {:>18} {:<6} {}",
            def.name,
            value,
            def.unit,
            notes.get(def.name).map_or("", String::as_str)
        );
    }
}

/// The machine-readable result: one JSON object, the last line of stdout.
pub fn result_line(traced: bool, values: &Values, verdict: &Verdict) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.correct(),
        verdict.attempted,
        verdict.failed
    );
    for (i, def) in defs(traced).iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            values.get(def.name).unwrap_or(0.0),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// Reads `"name": {"value": <number>` back out of a result line (the
/// `--agree` parent parses its children's output with this).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `/BENCHMARK.json`, generated so that the registry above stays the only
/// list of names.
pub fn manifest(run_seconds: u64, whys: &[&str; 4]) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {run_seconds},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_NAMES.iter().zip(whys).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{}",
            if i + 1 == WORKLOAD_NAMES.len() {
                ""
            } else {
                ","
            }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            e.def.name,
            e.def.unit,
            e.def.better,
            e.bound,
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, def) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            def.name,
            def.unit,
            def.better,
            if i + 1 == PER_LAYER.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_manifest_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|e| &e.def).chain(PER_LAYER);
        for def in all {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16 && !def.unit.is_empty());
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|e| e.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|e| e.def.name == "setup_s" && e.def.unit == "s" && e.def.better == "lower"));
    }

    #[test]
    fn result_line_round_trips_through_the_reader() {
        let mut v = Values::default();
        v.set("setup_s", 0.8127);
        v.set("throughput_rps", 449.25);
        let verdict = Verdict {
            attempted: 1000,
            failed: 0,
            violations: Vec::new(),
        };
        let line = result_line(false, &v, &verdict);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0,"));
        assert_eq!(value_in(&line, "setup_s"), Some(0.8127));
        assert_eq!(value_in(&line, "throughput_rps"), Some(449.25));
        // Not measured: carried as 0.
        assert_eq!(value_in(&line, "peak_rss_mb"), Some(0.0));
        assert_eq!(value_in(&line, "absent"), None);
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(crate::RUN_SECONDS, &crate::WHYS),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
    }
}
