//! Reader for the server's plain-text (Prometheus exposition) metrics dump —
//! the only window the benchmark has into the server's own accounting.

use std::collections::BTreeMap;

/// Every sample of one dump, keyed by the series exactly as printed
/// (`serve_stage_latency_us_sum{stage="kernel"}`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dump(BTreeMap<String, f64>);

impl Dump {
    /// Parses a dump; comment lines and lines without a numeric value are
    /// skipped.
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            // Label values never contain spaces in this server's dump, but
            // splitting at the last space is right even if one did.
            if let Some((series, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(series.to_string(), v);
                }
            }
        }
        Dump(map)
    }

    /// The sample for `series`, or 0 if the dump does not carry it (a
    /// histogram family prints nothing before its first observation).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Every `(label value, sample)` of a single-label family, in label
    /// order: `family{label="…"}`.
    pub fn labelled(&self, family: &str, label: &str) -> Vec<(String, f64)> {
        let prefix = format!("{family}{{{label}=\"");
        self.0
            .iter()
            .filter_map(|(k, v)| {
                let rest = k.strip_prefix(&prefix)?;
                Some((rest.strip_suffix("\"}")?.to_string(), *v))
            })
            .collect()
    }

    /// `self − earlier`, sample by sample: what a phase added to the
    /// monotone counters.
    pub fn since(&self, earlier: &Dump) -> Dump {
        Dump(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - earlier.get(k)))
                .collect(),
        )
    }

    /// Mean of a `_sum`/`_count` histogram pair, `labels` being the
    /// brace-enclosed label set or empty.
    pub fn mean(&self, family: &str, labels: &str) -> f64 {
        let count = self.get(&format!("{family}_count{labels}"));
        if count == 0.0 {
            0.0
        } else {
            self.get(&format!("{family}_sum{labels}")) / count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP serve_requests_total Requests accepted into the queue.
# TYPE serve_requests_total counter
serve_requests_total 10
serve_kernel_backend{backend=\"unrolled\"} 1
serve_stage_latency_us_count{stage=\"kernel\"} 10
serve_stage_latency_us_sum{stage=\"kernel\"} 5000
serve_shard_requests_total{shard=\"0\"} 6
serve_shard_requests_total{shard=\"1\"} 4
";
    const AFTER: &str = "\
serve_requests_total 40
serve_stage_latency_us_count{stage=\"kernel\"} 40
serve_stage_latency_us_sum{stage=\"kernel\"} 35000
serve_e2e_latency_us_count 30
serve_e2e_latency_us_sum 45000
serve_shard_requests_total{shard=\"0\"} 26
serve_shard_requests_total{shard=\"1\"} 14
garbage line without a number
";

    #[test]
    fn parses_counters_labels_and_skips_comments() {
        let d = Dump::parse(BEFORE);
        assert_eq!(d.get("serve_requests_total"), 10.0);
        assert_eq!(
            d.get("serve_stage_latency_us_sum{stage=\"kernel\"}"),
            5000.0
        );
        assert_eq!(d.get("serve_absent_total"), 0.0);
        assert_eq!(
            d.labelled("serve_shard_requests_total", "shard"),
            vec![("0".to_string(), 6.0), ("1".to_string(), 4.0)]
        );
        assert_eq!(
            d.labelled("serve_kernel_backend", "backend"),
            vec![("unrolled".to_string(), 1.0)]
        );
    }

    #[test]
    fn phase_delta_and_histogram_mean_by_hand() {
        let delta = Dump::parse(AFTER).since(&Dump::parse(BEFORE));
        assert_eq!(delta.get("serve_requests_total"), 30.0);
        // (35000 − 5000) / (40 − 10)
        assert_eq!(
            delta.mean("serve_stage_latency_us", "{stage=\"kernel\"}"),
            1000.0
        );
        // A family absent from the earlier dump counts from zero.
        assert_eq!(delta.mean("serve_e2e_latency_us", ""), 1500.0);
        assert_eq!(delta.mean("serve_op_latency_us", "{op=\"add\"}"), 0.0);
        assert_eq!(
            delta.labelled("serve_shard_requests_total", "shard"),
            vec![("0".to_string(), 20.0), ("1".to_string(), 10.0)]
        );
    }
}
