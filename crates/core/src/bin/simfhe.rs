//! The `simfhe` command-line tool: interactive access to the cost model
//! without writing Rust.
//!
//! ```text
//! simfhe primitive [--mad] [--ell N]      per-primitive cost table
//! simfhe bootstrap [--mad] [--csv]        bootstrap cost + phase breakdown
//! simfhe designs   [--mad]                roofline across the Table-6 designs
//! simfhe search    [--cache MB] [--top N] memory-aware parameter search
//! ```
//!
//! Flags: `--mad` enables all MAD optimizations (default: the Jung et al.
//! baseline), `--csv` prints CSV instead of an aligned table,
//! `--params logq,L,dnum,fftIter` overrides the parameter set.

use simfhe::bootstrap::BootstrapPhase;
use simfhe::report::Table;
use simfhe::search::{search, SearchSpace};
use simfhe::throughput::run_mad_bootstrap;
use simfhe::{CostModel, HardwareConfig, MadConfig, SchemeParams};

/// Minimal flag parser: `--key value` pairs plus one positional command.
struct Args {
    command: String,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse() -> Self {
        let mut argv = std::env::args().skip(1);
        let command = argv.next().unwrap_or_else(|| "help".to_string());
        let mut flags = Vec::new();
        let rest: Vec<String> = argv.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].trim_start_matches("--").to_string();
            let value = if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                i += 1;
                Some(rest[i].clone())
            } else {
                None
            };
            flags.push((key, value));
            i += 1;
        }
        Self { command, flags }
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn usize_flag(&self, key: &str, default: usize) -> usize {
        self.value(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn f64_flag(&self, key: &str, default: f64) -> f64 {
        self.value(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn params(&self) -> SchemeParams {
        match self.value("params") {
            Some(spec) => {
                let parts: Vec<usize> = spec
                    .split(',')
                    .filter_map(|p| p.trim().parse().ok())
                    .collect();
                if parts.len() != 4 {
                    eprintln!("--params expects logq,L,dnum,fftIter; using defaults");
                    return self.default_params();
                }
                SchemeParams {
                    log_n: 17,
                    log_q: parts[0] as u32,
                    limbs: parts[1],
                    dnum: parts[2],
                    fft_iter: parts[3],
                }
            }
            None => self.default_params(),
        }
    }

    fn default_params(&self) -> SchemeParams {
        if self.has("mad") {
            SchemeParams::mad_practical()
        } else {
            SchemeParams::baseline()
        }
    }

    fn config(&self) -> MadConfig {
        if self.has("mad") {
            MadConfig::all()
        } else {
            MadConfig::baseline()
        }
    }
}

fn emit(args: &Args, table: Table) {
    if args.has("csv") {
        print!("{}", table.to_csv());
    } else {
        println!("{}", table.render());
    }
}

fn cmd_primitive(args: &Args) {
    let params = args.params();
    let ell = args.usize_flag("ell", params.limbs);
    let model = CostModel::new(params, args.config());
    let mut t = Table::new(
        format!("primitive costs at ℓ = {ell} ({params:?})"),
        &["op", "Gops", "GB", "AI"],
    );
    let rows: [(&str, simfhe::Cost); 7] = [
        ("Add", model.add(ell)),
        ("PtMult", model.pt_mult(ell)),
        ("Mult", model.mult(ell)),
        ("Rotate", model.rotate(ell)),
        ("Rescale", model.rescale(ell)),
        ("KeySwitch", model.keyswitch(ell)),
        ("ModDown", model.mod_down(ell, model.params.special_limbs())),
    ];
    for (name, c) in rows {
        t.row(&[
            name.to_string(),
            format!("{:.4}", c.ops() as f64 / 1e9),
            format!("{:.4}", c.dram_total() as f64 / 1e9),
            format!("{:.2}", c.arithmetic_intensity()),
        ]);
    }
    emit(args, t);
}

fn cmd_bootstrap(args: &Args) {
    let params = args.params();
    let model = CostModel::new(params, args.config());
    let b = model.bootstrap();
    let mut t = Table::new(
        format!(
            "bootstrap phases ({params:?}; {} switches, log Q1 = {})",
            b.orientation_switches, b.log_q1
        ),
        &["phase", "Gops", "GB", "share%"],
    );
    for (phase, c) in BootstrapPhase::ALL.iter().zip(&b.phases) {
        t.row(&[
            phase.name().to_string(),
            format!("{:.1}", c.ops() as f64 / 1e9),
            format!("{:.1}", c.dram_total() as f64 / 1e9),
            format!(
                "{:.1}",
                100.0 * c.dram_total() as f64 / b.cost.dram_total() as f64
            ),
        ]);
    }
    t.row(&[
        "total".to_string(),
        format!("{:.1}", b.cost.ops() as f64 / 1e9),
        format!("{:.1}", b.cost.dram_total() as f64 / 1e9),
        "100.0".to_string(),
    ]);
    emit(args, t);
}

fn cmd_designs(args: &Args) {
    let params = args.params();
    let mut t = Table::new(
        format!("Table-6 designs at 32 MB ({params:?})"),
        &["design", "boot ms", "tput(10^7/s)", "bound"],
    );
    for hw in HardwareConfig::all_designs() {
        let run = run_mad_bootstrap(params, &hw.with_cache_mb(32.0));
        t.row(&[
            hw.name.to_string(),
            format!("{:.1}", run.runtime_ms),
            format!("{:.0}", run.throughput_display),
            if run.memory_bound { "mem" } else { "comp" }.to_string(),
        ]);
    }
    emit(args, t);
}

fn cmd_search(args: &Args) {
    let cache = args.f64_flag("cache", 32.0);
    let top = args.usize_flag("top", 5);
    let hw = HardwareConfig::gpu().with_cache_mb(cache);
    let space = SearchSpace::default();
    let results = search(&space, &hw);
    let mut t = Table::new(
        format!("top {top} parameter sets at {cache} MB"),
        &["logq", "L", "dnum", "fftIter", "boot ms", "tput(10^7/s)"],
    );
    for r in results.iter().take(top) {
        let p = r.run.params;
        t.row(&[
            p.log_q.to_string(),
            p.limbs.to_string(),
            p.dnum.to_string(),
            p.fft_iter.to_string(),
            format!("{:.1}", r.run.runtime_ms),
            format!("{:.0}", r.run.throughput_display),
        ]);
    }
    emit(args, t);
}

fn main() {
    let args = Args::parse();
    match args.command.as_str() {
        "primitive" => cmd_primitive(&args),
        "bootstrap" => cmd_bootstrap(&args),
        "designs" => cmd_designs(&args),
        "search" => cmd_search(&args),
        other => {
            if other != "help" {
                eprintln!("unknown command: {other}\n");
            }
            eprintln!(
                "usage: simfhe <command> [flags]\n\
                 commands:\n\
                 \x20 primitive [--mad] [--ell N] [--csv]   per-primitive cost table\n\
                 \x20 bootstrap [--mad] [--csv]             bootstrap phase breakdown\n\
                 \x20 designs   [--mad]                     roofline across Table-6 designs\n\
                 \x20 search    [--cache MB] [--top N]      parameter search\n\
                 flags:\n\
                 \x20 --params logq,L,dnum,fftIter          override the parameter set\n\
                 \x20 --mad                                 all MAD optimizations on"
            );
            std::process::exit(if other == "help" { 0 } else { 2 });
        }
    }
}
