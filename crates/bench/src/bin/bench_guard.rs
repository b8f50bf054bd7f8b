//! CI perf-trajectory gate: compares a freshly measured bench JSONL
//! against the committed baseline and fails if any mean regressed beyond
//! the tolerance.
//!
//! Both files use the vendored criterion's JSON-lines schema, one object
//! per benchmark: `{"name": "...", "mean_ns": 123.45, ...}`. Extra fields
//! (`iters`, `elements`, `bytes`) are ignored.
//!
//! ```text
//! bench_guard --baseline BENCH_kernels.json --current current.json \
//!             [--max-ratio 1.25] [--allow-missing] \
//!             [--expect-faster <name> <than-name>]...
//! ```
//!
//! Exit status 0 when every benchmark present in the baseline was
//! measured and stayed within `max_ratio × baseline`; 1 otherwise.
//! `--expect-faster A B` (repeatable) additionally fails the run unless
//! the current mean of `A` is below the current mean of `B` — an ordering
//! two rows must keep whatever their absolute numbers do (an optimized
//! backend that loses to the reference one is a defect even when both sit
//! inside their tolerances).
//! `--allow-missing` downgrades baseline rows absent from the current
//! run to a warning (for quick-mode runs that filter groups). New
//! benchmarks with no baseline row never fail the gate — commit a
//! refreshed baseline to start tracking them.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut baseline_path = None;
    let mut current_path = None;
    let mut max_ratio = 1.25f64;
    let mut allow_missing = false;
    let mut orderings: Vec<(String, String)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next(),
            "--current" => current_path = args.next(),
            "--max-ratio" => {
                max_ratio = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-ratio needs a number"));
            }
            "--allow-missing" => allow_missing = true,
            "--expect-faster" => match (args.next(), args.next()) {
                (Some(fast), Some(slow)) => orderings.push((fast, slow)),
                _ => die("--expect-faster needs two benchmark names"),
            },
            other => die(&format!("unknown argument {other}")),
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| die("--baseline <path> is required"));
    let current_path = current_path.unwrap_or_else(|| die("--current <path> is required"));

    let baseline = load(&baseline_path);
    let current = load(&current_path);
    let mut report = compare(&baseline, &current, max_ratio, allow_missing);
    check_orderings(&mut report, &current, &orderings, allow_missing);

    for line in &report.lines {
        println!("{line}");
    }
    println!(
        "bench_guard: {} compared, {} regressed, {} missing (tolerance {:.0}%)",
        report.compared,
        report.regressed,
        report.missing,
        (max_ratio - 1.0) * 100.0
    );
    if report.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench_guard: {msg}");
    std::process::exit(2);
}

fn load(path: &str) -> BTreeMap<String, f64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let map = parse_jsonl(&text);
    if map.is_empty() {
        die(&format!("{path} holds no benchmark rows"));
    }
    map
}

/// Pulls `(name, mean_ns)` out of each JSONL row with a hand-rolled
/// field scan — the schema is flat and machine-written, so full JSON
/// parsing would be dead weight. Later duplicates of a name win (a
/// re-run appends).
fn parse_jsonl(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let Some(name) = string_field(line, "name") else {
            continue;
        };
        let Some(mean) = number_field(line, "mean_ns") else {
            continue;
        };
        if mean.is_finite() && mean > 0.0 {
            out.insert(name, mean);
        }
    }
    out
}

/// The value of `"key":"..."` in `line`. Benchmark names never contain
/// escapes (criterion builds them from group/id strings), so a plain
/// quote scan is exact for this schema.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The value of `"key":<number>` in `line`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        .collect();
    digits.parse().ok()
}

struct Report {
    lines: Vec<String>,
    compared: usize,
    regressed: usize,
    missing: usize,
    failed: bool,
}

fn compare(
    baseline: &BTreeMap<String, f64>,
    current: &BTreeMap<String, f64>,
    max_ratio: f64,
    allow_missing: bool,
) -> Report {
    let mut report = Report {
        lines: Vec::new(),
        compared: 0,
        regressed: 0,
        missing: 0,
        failed: false,
    };
    for (name, &base) in baseline {
        match current.get(name) {
            Some(&now) => {
                report.compared += 1;
                let ratio = now / base;
                let verdict = if ratio > max_ratio {
                    report.regressed += 1;
                    report.failed = true;
                    "REGRESSED"
                } else {
                    "ok"
                };
                report.lines.push(format!(
                    "{verdict:>9}  {name}: {base:.0} ns -> {now:.0} ns ({:+.1}%)",
                    (ratio - 1.0) * 100.0
                ));
            }
            None => {
                report.missing += 1;
                if !allow_missing {
                    report.failed = true;
                }
                report
                    .lines
                    .push(format!("  MISSING  {name}: in baseline, not measured"));
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            report
                .lines
                .push(format!("      new  {name}: no baseline yet"));
        }
    }
    report
}

/// Holds each `(fast, slow)` pair to `current[fast] < current[slow]`. A
/// pair with an unmeasured side counts as missing.
fn check_orderings(
    report: &mut Report,
    current: &BTreeMap<String, f64>,
    orderings: &[(String, String)],
    allow_missing: bool,
) {
    for (fast, slow) in orderings {
        match (current.get(fast), current.get(slow)) {
            (Some(&f), Some(&s)) => {
                let verdict = if f < s {
                    "ok"
                } else {
                    report.regressed += 1;
                    report.failed = true;
                    "INVERTED"
                };
                report.lines.push(format!(
                    "{verdict:>9}  {fast} ({f:.0} ns) must be faster than {slow} ({s:.0} ns)"
                ));
            }
            _ => {
                report.missing += 1;
                if !allow_missing {
                    report.failed = true;
                }
                report.lines.push(format!(
                    "  MISSING  ordering {fast} < {slow}: not both measured"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jsonl(rows: &[(&str, f64)]) -> BTreeMap<String, f64> {
        let text: String = rows
            .iter()
            .map(|(n, m)| format!("{{\"name\":\"{n}\",\"mean_ns\":{m:.2},\"iters\":3}}\n"))
            .collect();
        parse_jsonl(&text)
    }

    #[test]
    fn parses_the_criterion_stub_schema() {
        let text = concat!(
            "{\"name\":\"ntt/forward/1024\",\"mean_ns\":10276.71,\"iters\":3839,\"elements\":1024}\n",
            "{\"name\":\"serve/batching/rotate_fanin_on\",\"mean_ns\":5.5e6,\"iters\":6}\n",
            "not json at all\n",
            "{\"name\":\"dup\",\"mean_ns\":1.0}\n",
            "{\"name\":\"dup\",\"mean_ns\":2.0}\n",
        );
        let map = parse_jsonl(text);
        assert_eq!(map.len(), 3);
        assert_eq!(map["ntt/forward/1024"], 10276.71);
        assert_eq!(map["serve/batching/rotate_fanin_on"], 5.5e6);
        assert_eq!(map["dup"], 2.0, "later rows win");
    }

    #[test]
    fn within_tolerance_passes_and_beyond_fails() {
        let base = jsonl(&[("a", 100.0), ("b", 100.0)]);
        let ok = compare(&base, &jsonl(&[("a", 124.0), ("b", 80.0)]), 1.25, false);
        assert!(!ok.failed);
        assert_eq!(ok.compared, 2);
        let bad = compare(&base, &jsonl(&[("a", 126.0), ("b", 80.0)]), 1.25, false);
        assert!(bad.failed);
        assert_eq!(bad.regressed, 1);
    }

    #[test]
    fn an_inverted_ordering_fails_even_inside_tolerance() {
        let base = jsonl(&[("ext/scalar", 100.0), ("ext/unrolled", 110.0)]);
        let pair = [("ext/unrolled".to_string(), "ext/scalar".to_string())];
        // The committed anomaly: both rows within tolerance, order wrong.
        let mut inverted = compare(&base, &base, 1.25, false);
        check_orderings(&mut inverted, &base, &pair, false);
        assert!(inverted.failed);
        let fixed = jsonl(&[("ext/scalar", 100.0), ("ext/unrolled", 60.0)]);
        let mut ok = compare(&base, &fixed, 1.25, false);
        check_orderings(&mut ok, &fixed, &pair, false);
        assert!(!ok.failed);
        // A filtered quick run that measured neither side is only a
        // warning under --allow-missing.
        let other = jsonl(&[("ntt", 1.0)]);
        let mut strict = compare(&other, &other, 1.25, false);
        check_orderings(&mut strict, &other, &pair, false);
        assert!(strict.failed);
        let mut lax = compare(&other, &other, 1.25, true);
        check_orderings(&mut lax, &other, &pair, true);
        assert!(!lax.failed);
    }

    #[test]
    fn missing_rows_fail_unless_allowed() {
        let base = jsonl(&[("a", 100.0), ("gone", 50.0)]);
        let cur = jsonl(&[("a", 100.0), ("brand_new", 1.0)]);
        let strict = compare(&base, &cur, 1.25, false);
        assert!(strict.failed);
        assert_eq!(strict.missing, 1);
        let lax = compare(&base, &cur, 1.25, true);
        assert!(!lax.failed, "--allow-missing downgrades to a warning");
        // New benchmarks never fail the gate either way.
        assert!(lax.lines.iter().any(|l| l.contains("brand_new")));
    }
}
