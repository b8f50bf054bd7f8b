//! The measured-vs-modeled gate: runs [`fhe_program::ledger`] once and
//! checks every gated metric — op counts and cache-replayed DRAM bytes —
//! against the committed `crates/program/tolerances.txt`.
//!
//! Prints the `mad-validate-v1` JSON report on stdout. Exit code 0 when
//! every gated metric is within its bound and every bound gates something,
//! 1 on a violation, 2 on a bad argument, unreadable or malformed
//! tolerance file, or unwritable output.
//!
//! Usage: `validate [--tolerances PATH] [--out PATH] [--perfetto PATH]
//! [--sweep PATH]` — `--perfetto` writes [`fhe_program::ledger::perfetto_json`]
//! (load in `ui.perfetto.dev`), `--sweep` the cache-size sweep CSV of
//! [`fhe_program::ledger::sweep`].

use fhe_program::ledger;
use fhe_program::report::{sweep_table, Tolerances};
use std::process::ExitCode;

const USAGE: &str =
    "usage: validate [--tolerances PATH] [--out PATH] [--perfetto PATH] [--sweep PATH]";

fn main() -> ExitCode {
    match gate() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(passed)`, or the message of a failure that is not the gate's.
fn gate() -> Result<bool, String> {
    let (mut tolerances, mut out, mut perfetto, mut sweep) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--tolerances" => &mut tolerances,
            "--out" => &mut out,
            "--perfetto" => &mut perfetto,
            "--sweep" => &mut sweep,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument: {other}\n{USAGE}")),
        };
        *slot = Some(
            args.next()
                .ok_or_else(|| format!("{arg} needs a path\n{USAGE}"))?,
        );
    }
    let tol_text = match &tolerances {
        Some(p) => std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?,
        None => ledger::TOLERANCES.to_string(),
    };
    let tol = Tolerances::parse(&tol_text).map_err(|e| format!("bad tolerance file: {e}"))?;
    let write = |path: &str, text: String| {
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
    };

    let run = ledger::run();
    let json = run.report.to_json(&tol);
    print!("{json}");
    if let Some(p) = &out {
        write(p, json)?;
    }
    if let Some(p) = &perfetto {
        write(p, ledger::perfetto_json(&run.events))?;
    }
    if let Some(p) = &sweep {
        write(p, sweep_table(&ledger::sweep(&run.events)).to_csv())?;
    }

    let violations = run.report.evaluate(&tol);
    for v in &violations {
        eprintln!("FAIL {}", v.reason);
    }
    if violations.is_empty() {
        eprintln!(
            "validate: all {} rows within tolerance ({} bounds)",
            run.report.primitives.len(),
            tol.len()
        );
    } else {
        eprintln!("validate: {} violation(s)", violations.len());
    }
    Ok(violations.is_empty())
}
