//! `--agree`: does the benchmark agree with itself? Two full sets of runs of
//! the same build — every workload on `RUNS` different seeds per set, the
//! sets' runs alternating as a parent/change comparison's would, each run a
//! child process so `peak_rss_mb` is a run's own — then every end-to-end
//! metric side by side: the spread of each set (interquartile range over
//! median) and the shift between the sets' medians, both against what the
//! metric may worsen by. This is the acceptance rule a later change is held to,
//! applied to no change at all: a shift beyond the bound is a regression, and
//! where a set's own spread is wider than the bound the comparison is
//! unresolved, not passed.

use crate::metrics::{value_in, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOAD_NAMES;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// Seeds per set, as the driver's own check of the benchmark uses.
const RUNS: usize = 10;

/// One set: `values[workload][metric]` are the per-seed readings.
type Set = Vec<Vec<Vec<f64>>>;

/// Runs one workload on one seed as a child process; returns its result line.
fn run_child(workload: &str, seed: u64, seconds: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(&exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
    }
    Ok(stdout.lines().last().unwrap_or_default().to_string())
}

pub fn run(seconds: u64) -> ExitCode {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut sets: [Set; 2] =
        std::array::from_fn(|_| vec![vec![Vec::new(); END_TO_END.len()]; WORKLOAD_NAMES.len()]);
    let mut json = [String::from("[\n"), String::from("[\n")];
    for (w, workload) in WORKLOAD_NAMES.iter().enumerate() {
        for r in 0..RUNS {
            // The two sets take turns, and take turns going first, so that a
            // slow drift of the host falls on both alike.
            for turn in 0..2 {
                let set = (r + turn) % 2;
                // Seeds differ between runs and between sets.
                let seed = (set * RUNS + r + 1) as u64;
                let line = match run_child(workload, seed, seconds) {
                    Ok(line) => line,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                for (m, e) in END_TO_END.iter().enumerate() {
                    let Some(v) = value_in(&line, e.def.name) else {
                        eprintln!("{workload} seed {seed}: no {} in `{line}`", e.def.name);
                        return ExitCode::FAILURE;
                    };
                    sets[set][w][m].push(v);
                }
                let last = w + 1 == WORKLOAD_NAMES.len() && r + 1 == RUNS;
                let _ = writeln!(
                    json[set],
                    "  {{\"workload\": \"{workload}\", \"seed\": {seed}, \"result\": {line}}}{}",
                    if last { "" } else { "," }
                );
                eprintln!("set {} {workload} seed {seed}: {line}", set + 1);
            }
        }
    }
    for (set, mut json) in json.into_iter().enumerate() {
        json.push_str("]\n");
        let path = dir.join(format!("agree-set{}.json", set + 1));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }

    let mut report = format!(
        "# --agree: 2 interleaved sets x {RUNS} seeds x {} workloads, --seconds {seconds}\n\
         # spread = interquartile range / median of a set; shift = how much worse set 2's median\n\
         # is than set 1's. PASS: shift and spreads within the bound (setup_s: or within 0.25 s).\n\
         # UNRESOLVED: the shift is, but a set's own spread is wider than the bound, so these\n\
         # runs could not have shown a regression of that size. FAIL: the sets disagree.\n\
         {:<14} {:<16} {:>12} {:>12} {:>9} {:>9} {:>8} {:>6}  verdict\n",
        WORKLOAD_NAMES.len(),
        "workload",
        "metric",
        "median_1",
        "median_2",
        "spread_1",
        "spread_2",
        "shift",
        "bound"
    );
    let mut all_pass = true;
    for (w, workload) in WORKLOAD_NAMES.iter().enumerate() {
        for (m, e) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][w][m], &sets[1][w][m]);
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (iqr_share(a), iqr_share(b));
            let shift = if e.def.better == "lower" {
                (mb - ma) / ma
            } else {
                (ma - mb) / ma
            };
            // The larger of the share and the absolute floor, as a share.
            let allowed = e.bound.max(e.floor / ma);
            let verdict = if shift > allowed {
                "FAIL"
            } else if sa > allowed || sb > allowed {
                "UNRESOLVED"
            } else {
                "PASS"
            };
            all_pass &= verdict == "PASS";
            let _ = writeln!(
                report,
                "{workload:<14} {:<16} {ma:>12.4} {mb:>12.4} {sa:>9.4} {sb:>9.4} {shift:>+8.4} {:>6.2}  {}",
                e.def.name,
                e.bound,
                verdict
            );
        }
    }
    print!("{report}");
    if let Err(e) = std::fs::write(dir.join("agree.txt"), &report) {
        eprintln!("agree.txt: {e}");
        return ExitCode::FAILURE;
    }
    if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
