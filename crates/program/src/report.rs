//! The validation report the [`ledger`](crate::ledger) fills, the
//! committed tolerances that gate it, and the cache-sweep table of
//! `validate --sweep`.
//!
//! The functional crates (`fhe-math`, `ckks`) count the modular operations
//! they actually execute (`fhe_math::telemetry`) and record the limb
//! touches [`crate::replay`] turns into DRAM bytes; a
//! [`ValidationReport`] sets those measurements beside the analytical
//! predictions of `simfhe::primitives` and renders the result as a
//! machine-readable JSON report. Gating is driven by one committed
//! tolerance file and holds in both directions: every gated
//! `(row, metric)` pair must have a bound its relative error does not
//! exceed, and every committed bound must name a gated metric the report
//! still has.
//!
//! The tolerance file is plain text — one `row metric tolerance` triple
//! per line, each pair at most once, `#` comments and blank lines ignored:
//!
//! ```text
//! # row         metric   max relative error
//! Add           adds     0.0
//! KeySwitch     mults    0.12
//! ```
//!
//! Known, deterministic deviations between the implementation and the
//! model are absorbed by the committed bounds and documented in
//! `DESIGN.md` §4.

use fhe_math::telemetry::json_string;
use simfhe::report::Table;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One gated metric of one primitive: a measured count against the
/// model's prediction.
#[derive(Clone, Copy, Debug)]
pub struct MetricCheck {
    /// Metric name (`mults`, `adds`, `ntt_fwd`, `ntt_inv`, …).
    pub metric: &'static str,
    /// Count observed by the telemetry layer.
    pub measured: u64,
    /// Count predicted by the analytical model.
    pub modeled: u64,
}

impl MetricCheck {
    /// Relative error `|measured − modeled| / modeled`. When the model
    /// predicts zero, the error is zero if the measurement agrees and
    /// infinite otherwise.
    pub fn rel_err(&self) -> f64 {
        if self.modeled == 0 {
            if self.measured == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.measured as f64 - self.modeled as f64).abs() / self.modeled as f64
        }
    }
}

/// All checks for one primitive: the gated metrics plus informational
/// rows (byte proxies) that are reported but never gated.
#[derive(Clone, Debug)]
pub struct PrimitiveCheck {
    /// Primitive name, matching the tolerance file and span names.
    pub name: String,
    /// Gated metrics.
    pub metrics: Vec<MetricCheck>,
    /// Informational metrics (reported in the JSON, not gated).
    pub info: Vec<MetricCheck>,
}

impl PrimitiveCheck {
    /// Creates a check with no rows yet.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }
}

/// Committed per-`(primitive, metric)` relative-error bounds.
#[derive(Clone, Debug, Default)]
pub struct Tolerances {
    bounds: BTreeMap<(String, String), f64>,
}

impl Tolerances {
    /// Parses the plain-text tolerance format. Returns a description of
    /// the first malformed or repeated line on failure.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut bounds = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (name, metric, tol) = match (parts.next(), parts.next(), parts.next()) {
                (Some(n), Some(m), Some(t)) => (n, m, t),
                _ => {
                    return Err(format!(
                        "line {}: expected `primitive metric tolerance`",
                        idx + 1
                    ))
                }
            };
            if parts.next().is_some() {
                return Err(format!("line {}: trailing fields", idx + 1));
            }
            let tol: f64 = tol
                .parse()
                .map_err(|_| format!("line {}: `{tol}` is not a number", idx + 1))?;
            if !(0.0..).contains(&tol) {
                return Err(format!("line {}: tolerance must be non-negative", idx + 1));
            }
            // A second line for the same pair would silently replace the
            // bound a reader saw first.
            if bounds
                .insert((name.to_string(), metric.to_string()), tol)
                .is_some()
            {
                return Err(format!(
                    "line {}: duplicate bound for {name}/{metric}",
                    idx + 1
                ));
            }
        }
        Ok(Self { bounds })
    }

    /// The committed bound for a `(primitive, metric)` pair, if any.
    pub fn get(&self, name: &str, metric: &str) -> Option<f64> {
        self.bounds
            .get(&(name.to_string(), metric.to_string()))
            .copied()
    }

    /// Number of committed bounds.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when no bounds are committed.
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }
}

/// One gate failure: the relative error exceeded its bound, no bound was
/// committed for a gated metric, or a committed bound names no gated
/// metric of the report.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Primitive name.
    pub primitive: String,
    /// Metric name.
    pub metric: String,
    /// Human-readable description of the failure.
    pub reason: String,
}

/// The full validation result: per-primitive checks against one
/// parameter-set description.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Free-form `key: value` description of the parameter point, emitted
    /// into the JSON header.
    pub params: Vec<(String, String)>,
    /// All primitive checks, in run order.
    pub primitives: Vec<PrimitiveCheck>,
}

impl ValidationReport {
    /// Gates every metric against the committed tolerances, returning all
    /// violations (empty means the report passes). A committed bound that
    /// matches no gated metric is a violation too: a renamed row must not
    /// leave its old bounds behind gating nothing.
    pub fn evaluate(&self, tol: &Tolerances) -> Vec<Violation> {
        let mut out = Vec::new();
        for p in &self.primitives {
            for m in &p.metrics {
                match tol.get(&p.name, m.metric) {
                    None => out.push(Violation {
                        primitive: p.name.clone(),
                        metric: m.metric.to_string(),
                        reason: format!("no tolerance committed for {}/{}", p.name, m.metric),
                    }),
                    Some(bound) => {
                        let err = m.rel_err();
                        if err > bound {
                            out.push(Violation {
                                primitive: p.name.clone(),
                                metric: m.metric.to_string(),
                                reason: format!(
                                    "{}/{}: measured {} vs modeled {} (rel err {:.4} > tolerance {:.4})",
                                    p.name, m.metric, m.measured, m.modeled, err, bound
                                ),
                            });
                        }
                    }
                }
            }
        }
        for (name, metric) in tol.bounds.keys() {
            let gated = self
                .primitives
                .iter()
                .any(|p| p.name == *name && p.metrics.iter().any(|m| m.metric == metric));
            if !gated {
                out.push(Violation {
                    primitive: name.clone(),
                    metric: metric.clone(),
                    reason: format!(
                        "stale tolerance: {name}/{metric} is not a gated metric of this report"
                    ),
                });
            }
        }
        out
    }

    /// Renders the report as JSON (schema `mad-validate-v1`), including
    /// the pass/fail verdict under the given tolerances.
    pub fn to_json(&self, tol: &Tolerances) -> String {
        let violations = self.evaluate(tol);
        let mut s = String::new();
        s.push_str("{\n  \"schema\": \"mad-validate-v1\",\n  \"params\": {");
        for (i, (k, v)) in self.params.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}: {}", json_string(k), json_string(v));
        }
        s.push_str("},\n  \"primitives\": [\n");
        for (pi, p) in self.primitives.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"name\": {}, \"metrics\": [",
                json_string(&p.name)
            );
            for (i, m) in p.metrics.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let bound = tol.get(&p.name, m.metric);
                let pass = bound.is_some_and(|b| m.rel_err() <= b);
                let _ = write!(
                    s,
                    "{{\"metric\": {}, \"measured\": {}, \"modeled\": {}, \"rel_err\": {}, \"tolerance\": {}, \"pass\": {}}}",
                    json_string(m.metric),
                    m.measured,
                    m.modeled,
                    json_f64(m.rel_err()),
                    bound.map_or_else(|| "null".to_string(), json_f64),
                    pass
                );
            }
            s.push_str("], \"info\": [");
            for (i, m) in p.info.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(
                    s,
                    "{{\"metric\": {}, \"measured\": {}, \"modeled\": {}, \"rel_err\": {}}}",
                    json_string(m.metric),
                    m.measured,
                    m.modeled,
                    json_f64(m.rel_err())
                );
            }
            s.push_str("]}");
            if pi + 1 < self.primitives.len() {
                s.push(',');
            }
            s.push('\n');
        }
        let _ = write!(
            s,
            "  ],\n  \"violations\": {},\n  \"pass\": {}\n}}\n",
            violations.len(),
            violations.is_empty()
        );
        s
    }
}

/// Formats a float as a JSON number (JSON has no infinities; they surface
/// as a large sentinel that still fails any finite tolerance).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "1e308".to_string()
    }
}

/// One point of the measured-vs-modeled cache sweep (Figure-6 style): a
/// primitive replayed at one on-chip size against the model at the
/// caching level that size affords.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Primitive name.
    pub primitive: String,
    /// On-chip capacity in MB (fractional at reduced parameters).
    pub cache_mb: f64,
    /// The model's caching level for this capacity (display string).
    pub caching: String,
    /// The analytical model's DRAM bytes.
    pub modeled_bytes: u64,
    /// The cache simulator's DRAM bytes.
    pub measured_bytes: u64,
}

/// Renders sweep rows as a [`Table`] (columns: primitive, cache_KiB,
/// caching, modeled_B, measured_B, meas/model) for text or CSV output.
pub fn sweep_table(rows: &[SweepRow]) -> Table {
    let mut t = Table::new(
        "cache sweep: modeled vs cache-replayed DRAM bytes",
        &[
            "primitive",
            "cache_KiB",
            "caching",
            "modeled_B",
            "measured_B",
            "meas/model",
        ],
    );
    for r in rows {
        let ratio = if r.modeled_bytes == 0 {
            "n/a".to_string()
        } else {
            format!("{:.3}", r.measured_bytes as f64 / r.modeled_bytes as f64)
        };
        t.row(&[
            r.primitive.clone(),
            format!("{:.1}", r.cache_mb * 1024.0),
            r.caching.clone(),
            r.modeled_bytes.to_string(),
            r.measured_bytes.to_string(),
            ratio,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_err_handles_zero_model() {
        let exact = MetricCheck {
            metric: "mults",
            measured: 0,
            modeled: 0,
        };
        assert_eq!(exact.rel_err(), 0.0);
        let phantom = MetricCheck {
            metric: "mults",
            measured: 5,
            modeled: 0,
        };
        assert!(phantom.rel_err().is_infinite());
        // JSON has no infinity: the report writes a finite sentinel.
        assert_eq!(json_f64(phantom.rel_err()), "1e308");
        let ten_pct = MetricCheck {
            metric: "adds",
            measured: 110,
            modeled: 100,
        };
        assert!((ten_pct.rel_err() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tolerance_parsing_accepts_comments_and_blanks() {
        let t =
            Tolerances::parse("# header comment\n\nAdd adds 0.0\nKeySwitch mults 0.12 # inline\n")
                .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.get("Add", "adds"), Some(0.0));
        assert_eq!(t.get("KeySwitch", "mults"), Some(0.12));
        assert_eq!(t.get("KeySwitch", "adds"), None);
    }

    #[test]
    fn tolerance_parsing_rejects_malformed_lines() {
        assert!(Tolerances::parse("Add adds")
            .unwrap_err()
            .contains("line 1"));
        assert!(Tolerances::parse("Add adds x")
            .unwrap_err()
            .contains("not a number"));
        assert!(Tolerances::parse("Add adds 0.1 extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(Tolerances::parse("Add adds -0.5")
            .unwrap_err()
            .contains("non-negative"));
    }

    #[test]
    fn tolerance_parsing_rejects_a_repeated_pair() {
        // The later line must not quietly loosen (or tighten) the earlier.
        let err = Tolerances::parse("Add adds 0.0\nAdd mults 0.1\nAdd adds 0.5").unwrap_err();
        assert!(err.contains("line 3") && err.contains("duplicate"), "{err}");
        assert!(err.contains("Add/adds"), "{err}");
    }

    fn sample_report() -> ValidationReport {
        ValidationReport {
            params: vec![("log_n".into(), "6".into())],
            primitives: vec![PrimitiveCheck {
                name: "Add".into(),
                metrics: vec![
                    MetricCheck {
                        metric: "adds",
                        measured: 640,
                        modeled: 640,
                    },
                    MetricCheck {
                        metric: "mults",
                        measured: 12,
                        modeled: 10,
                    },
                ],
                info: vec![MetricCheck {
                    metric: "bytes",
                    measured: 100,
                    modeled: 50,
                }],
            }],
        }
    }

    #[test]
    fn evaluation_gates_on_committed_bounds() {
        let report = sample_report();
        let pass = Tolerances::parse("Add adds 0.0\nAdd mults 0.25").unwrap();
        assert!(report.evaluate(&pass).is_empty());
        let tight = Tolerances::parse("Add adds 0.0\nAdd mults 0.1").unwrap();
        let v = report.evaluate(&tight);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].metric, "mults");
        // A missing bound for a gated metric is itself a violation; the
        // informational rows never gate.
        let missing = Tolerances::parse("Add adds 0.0").unwrap();
        let v = report.evaluate(&missing);
        assert_eq!(v.len(), 1);
        assert!(v[0].reason.contains("no tolerance"));
    }

    #[test]
    fn evaluation_flags_bounds_that_gate_nothing() {
        // A bound for a row the report no longer has, for a metric a row
        // no longer has, or for a metric that is only informational.
        let report = sample_report();
        let stale = Tolerances::parse(
            "Add adds 0.0\nAdd mults 0.25\nAddRenamed adds 0.0\nAdd ntt_fwd 0.0\nAdd bytes 1.0",
        )
        .unwrap();
        let v = report.evaluate(&stale);
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|v| v.reason.contains("stale tolerance")));
        let named: Vec<(&str, &str)> = v
            .iter()
            .map(|v| (v.primitive.as_str(), v.metric.as_str()))
            .collect();
        assert!(named.contains(&("AddRenamed", "adds")));
        assert!(named.contains(&("Add", "ntt_fwd")));
        assert!(named.contains(&("Add", "bytes")));
        assert!(report.to_json(&stale).contains("\"pass\": false"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = sample_report();
        let tol = Tolerances::parse("Add adds 0.0\nAdd mults 0.25").unwrap();
        let json = report.to_json(&tol);
        assert!(json.contains("\"schema\": \"mad-validate-v1\""));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("\"measured\": 640"));
        assert!(json.contains("\"metric\": \"bytes\""));
        // Balanced braces/brackets (cheap structural sanity without a
        // JSON parser).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let failing = Tolerances::parse("Add adds 0.0\nAdd mults 0.01").unwrap();
        assert!(report.to_json(&failing).contains("\"pass\": false"));
    }

    #[test]
    fn sweep_table_has_expected_columns() {
        let rows = vec![SweepRow {
            primitive: "Mult".into(),
            cache_mb: 0.0009765625, // 1 KiB
            caching: "O(1)-limb".into(),
            modeled_bytes: 1000,
            measured_bytes: 1100,
        }];
        let t = sweep_table(&rows);
        let csv = t.to_csv();
        assert!(csv.starts_with("primitive,cache_KiB,caching,modeled_B,measured_B,meas/model"));
        assert!(csv.contains("Mult,1.0,O(1)-limb,1000,1100,1.100"));
    }

    #[test]
    fn renders_cache_sweep_columns() {
        // The `validate --sweep` CSV is produced through this renderer;
        // pin its column contract so downstream plots don't silently
        // break.
        let rows = vec![SweepRow {
            primitive: "KeySwitch".into(),
            cache_mb: 4.0 / 1024.0,
            caching: "O(1)-limb".into(),
            modeled_bytes: 87040,
            measured_bytes: 56832,
        }];
        let t = sweep_table(&rows);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "primitive,cache_KiB,caching,modeled_B,measured_B,meas/model"
        );
        assert_eq!(lines[1], "KeySwitch,4.0,O(1)-limb,87040,56832,0.653");
        // The aligned rendering carries the same cells.
        let rendered = t.render();
        assert!(rendered.contains("meas/model"));
        assert!(rendered.contains("0.653"));
    }
}
