//! Per-operation cost breakdown of the application workloads (HELR LR
//! training and ResNet-20 inference), backing the paper's claim that
//! bootstrapping consumes the lion's share of ML application time.
//!
//! Run with: `cargo run --release -p mad-bench --bin workloads`

use fhe_apps::{figure6_program, price, Fig6Workload};
use simfhe::program::Program;
use simfhe::report::Table;
use simfhe::{Cost, CostModel, HardwareConfig, MadConfig, SchemeParams};

/// The program's price per instruction kind (`Instr::name`), in
/// first-seen order.
fn cost_by_kind(p: &Program, per_instr: &[Cost]) -> Vec<(&'static str, Cost)> {
    let mut kinds: Vec<(&'static str, Cost)> = Vec::new();
    for (instr, &cost) in p.instrs.iter().zip(per_instr) {
        match kinds.iter_mut().find(|(k, _)| *k == instr.name()) {
            Some((_, sum)) => *sum += cost,
            None => kinds.push((instr.name(), cost)),
        }
    }
    kinds
}

fn print_breakdown(name: &str, p: &Program, model: &CostModel, hw: &HardwareConfig) {
    let priced = price(model, p);
    let total = priced.cost;
    let mut t = Table::new(
        format!("{name} — {} ({} instructions)", p.name, p.instrs.len()),
        &["op kind", "Gops", "GB", "share%", "time ms"],
    );
    for (kind, c) in cost_by_kind(p, &priced.per_instr) {
        t.row(&[
            kind.to_string(),
            format!("{:.1}", c.ops() as f64 / 1e9),
            format!("{:.1}", c.dram_total() as f64 / 1e9),
            format!(
                "{:.1}",
                100.0 * c.dram_total() as f64 / total.dram_total() as f64
            ),
            format!("{:.1}", hw.runtime_seconds(&c) * 1e3),
        ]);
    }
    t.row(&[
        "total".to_string(),
        format!("{:.1}", total.ops() as f64 / 1e9),
        format!("{:.1}", total.dram_total() as f64 / 1e9),
        "100.0".to_string(),
        format!("{:.1}", hw.runtime_seconds(&total) * 1e3),
    ]);
    println!("{}", t.render());
}

fn main() {
    let hw = HardwareConfig::gpu().with_cache_mb(32.0);
    for (label, params, config) in [
        ("baseline", SchemeParams::baseline(), MadConfig::baseline()),
        ("MAD", SchemeParams::mad_practical(), MadConfig::all()),
    ] {
        let model = CostModel::new(params, config);
        for (title, kind) in [
            ("HELR LR training", Fig6Workload::LrTraining),
            ("ResNet-20 inference", Fig6Workload::ResNetInference),
        ] {
            let p = figure6_program(kind, &params);
            print_breakdown(&format!("{title} [{label}]"), &p, &model, &hw);
        }
    }
}
