#![warn(missing_docs)]

//! Generators for every table and figure in the MAD paper's evaluation.
//!
//! Each `*_table()` function returns a [`simfhe::report::Table`] holding
//! both the simulated values and the paper's published numbers side by
//! side; the binaries in `src/bin/` print them and `EXPERIMENTS.md`
//! records the comparison. (`benches/` holds the Criterion micro-benchmarks
//! of the kernels and the functional library.)

use fhe_apps::{figure6_groups, Fig6Workload};
use simfhe::bootstrap::BootstrapCost;
use simfhe::report::{sig3, Table};
use simfhe::search::{search, SearchSpace};
use simfhe::throughput::{run_mad_bootstrap, PublishedDesign};
use simfhe::{AlgoOpts, CachingLevel, Cost, CostModel, HardwareConfig, MadConfig, SchemeParams};

/// The Table-4 configuration: baseline parameters, a cache of a couple of
/// limbs (O(1)-limb fusion), ModUp hoisting as in Jung et al.
pub fn table4_model() -> CostModel {
    CostModel::new(
        SchemeParams::baseline(),
        MadConfig {
            caching: CachingLevel::OneLimb,
            algo: AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
        },
    )
}

/// Paper values for Table 4: `(name, Gops, GB, AI)`.
pub const TABLE4_PAPER: [(&str, f64, f64, f64); 12] = [
    ("PtAdd", 0.0046, 0.1101, 0.04),
    ("Add", 0.0092, 0.2202, 0.04),
    ("PtMult", 0.2747, 0.3282, 0.84),
    ("Decomp", 0.0092, 0.0734, 0.12),
    ("ModUp", 0.2847, 0.1510, 1.88),
    ("KSKInnerProd", 0.0629, 0.4530, 0.13),
    ("ModDown", 0.3000, 0.1877, 1.59),
    ("Mult", 1.8333, 1.9293, 0.95),
    ("Automorph", 0.0, 0.1468, 0.0),
    ("Rotate", 1.5310, 1.5645, 0.98),
    ("Conjugate", 1.5310, 1.5645, 0.98),
    ("Bootstrap", 149.546, 207.982, 0.72),
];

/// The simulated cost behind one Table-4 row.
///
/// # Panics
///
/// Panics on an unknown row name.
pub fn table4_cost(model: &CostModel, name: &str) -> Cost {
    let ell = 35;
    match name {
        "PtAdd" => model.pt_add(ell),
        "Add" => model.add(ell),
        "PtMult" => model.pt_mult(ell),
        "Decomp" => {
            // The paper's row is charged without fusion (a standalone pass).
            let unfused = CostModel::new(
                model.params,
                MadConfig {
                    caching: CachingLevel::Baseline,
                    algo: model.config.algo,
                },
            );
            unfused.decomp(ell)
        }
        "ModUp" => model.mod_up_digit(ell, model.params.alpha()),
        "KSKInnerProd" => model.ksk_inner_product(ell, 3, true, true),
        "ModDown" => model.mod_down(ell, model.params.special_limbs()),
        "Mult" => model.mult(ell),
        "Automorph" => model.automorph(ell, true),
        "Rotate" | "Conjugate" => model.rotate(ell),
        "Bootstrap" => model.bootstrap().cost,
        other => panic!("unknown Table-4 row {other}"),
    }
}

/// Regenerates Table 4 (ops, DRAM transfers, arithmetic intensity per
/// primitive) with the paper's numbers alongside.
pub fn table4() -> Table {
    let model = table4_model();
    let mut t = Table::new(
        "Table 4 — ops (Gops), DRAM (GB), arithmetic intensity; logN=17, ℓ=35, dnum=3",
        &["op", "Gops", "paper", "GB", "paper", "AI", "paper"],
    );
    for (name, p_ops, p_gb, p_ai) in TABLE4_PAPER {
        let c = table4_cost(&model, name);
        t.row(&[
            name.to_string(),
            format!("{:.4}", c.ops() as f64 / 1e9),
            format!("{p_ops:.4}"),
            format!("{:.4}", c.dram_total() as f64 / 1e9),
            format!("{p_gb:.4}"),
            format!("{:.2}", c.arithmetic_intensity()),
            format!("{p_ai:.2}"),
        ]);
    }
    t
}

/// Paper's cumulative ciphertext-traffic reductions in Figure 2.
pub const FIG2_PAPER_REDUCTIONS: [(&str, f64); 5] = [
    ("baseline", 0.0),
    ("O(1)-limb", -15.0),
    ("O(β)-limb", -22.0),
    ("O(α)-limb", -44.0),
    ("limb re-order", -52.0),
];

/// Bootstrap cost at each caching level (baseline parameters, ModUp
/// hoisting only — the Figure-2 setting).
pub fn fig2_ladder() -> Vec<(CachingLevel, BootstrapCost)> {
    CachingLevel::ALL
        .iter()
        .map(|&lvl| {
            let model = CostModel::new(
                SchemeParams::baseline(),
                MadConfig {
                    caching: lvl,
                    algo: AlgoOpts {
                        modup_hoist: true,
                        ..AlgoOpts::none()
                    },
                },
            );
            (lvl, model.bootstrap())
        })
        .collect()
}

/// Regenerates Figure 2: cumulative DRAM-transfer impact of the caching
/// optimizations on one bootstrapping operation.
pub fn fig2() -> Table {
    let ladder = fig2_ladder();
    let base_ct = (ladder[0].1.cost.ct_read + ladder[0].1.cost.ct_write) as f64;
    let mut t = Table::new(
        "Figure 2 — cumulative caching optimizations on bootstrapping",
        &["config", "ct GB", "Δct%", "paper", "total GB", "AI"],
    );
    for ((lvl, b), (_, paper_delta)) in ladder.iter().zip(FIG2_PAPER_REDUCTIONS) {
        let ct = (b.cost.ct_read + b.cost.ct_write) as f64;
        t.row(&[
            lvl.to_string(),
            format!("{:.1}", ct / 1e9),
            format!("{:+.1}", (ct / base_ct - 1.0) * 100.0),
            format!("{paper_delta:+.0}"),
            format!("{:.1}", b.cost.dram_total() as f64 / 1e9),
            format!("{:.2}", b.cost.arithmetic_intensity()),
        ]);
    }
    t
}

/// Bootstrap cost along the Figure-3 algorithmic ladder (all caching
/// optimizations on, MAD-practical parameters).
pub fn fig3_ladder() -> Vec<(&'static str, BootstrapCost)> {
    AlgoOpts::figure3_ladder()
        .into_iter()
        .map(|(name, algo)| {
            let model = CostModel::new(
                SchemeParams::mad_practical(),
                MadConfig {
                    caching: CachingLevel::LimbReorder,
                    algo,
                },
            );
            (name, model.bootstrap())
        })
        .collect()
}

/// Regenerates Figure 3: cumulative impact of the algorithmic
/// optimizations (paper: merge −6% compute; hoisting −34% compute, −19%
/// ct DRAM, +25% key reads; key compression −50% key reads).
pub fn fig3() -> Table {
    let ladder = fig3_ladder();
    let mut t = Table::new(
        "Figure 3 — cumulative algorithmic optimizations on bootstrapping",
        &[
            "config", "Gops", "Δops%", "ct GB", "Δct%", "key GB", "Δkey%", "AI",
        ],
    );
    let mut prev: Option<Cost> = None;
    for (name, b) in &ladder {
        let c = b.cost;
        let (dops, dct, dkey) = match prev {
            Some(p) => (
                (c.ops() as f64 / p.ops() as f64 - 1.0) * 100.0,
                ((c.ct_read + c.ct_write) as f64 / (p.ct_read + p.ct_write) as f64 - 1.0) * 100.0,
                (c.key_read as f64 / p.key_read as f64 - 1.0) * 100.0,
            ),
            None => (0.0, 0.0, 0.0),
        };
        t.row(&[
            name.to_string(),
            format!("{:.1}", c.ops() as f64 / 1e9),
            format!("{dops:+.1}"),
            format!("{:.1}", (c.ct_read + c.ct_write) as f64 / 1e9),
            format!("{dct:+.1}"),
            format!("{:.1}", c.key_read as f64 / 1e9),
            format!("{dkey:+.1}"),
            format!("{:.2}", c.arithmetic_intensity()),
        ]);
        prev = Some(c);
    }
    t
}

/// The headline arithmetic-intensity improvement (paper: 3×, 0.72 → ~2.2).
pub fn ai_improvement() -> (f64, f64) {
    let before = table4_model().bootstrap().cost.arithmetic_intensity();
    let after = CostModel::new(SchemeParams::mad_practical(), MadConfig::all())
        .bootstrap()
        .cost
        .arithmetic_intensity();
    (before, after)
}

/// Regenerates Table 5: the baseline parameter set vs the memory-aware
/// optimum found by the brute-force search at 32 MB.
pub fn table5(space: &SearchSpace) -> Table {
    let hw = HardwareConfig::gpu().with_cache_mb(32.0);
    let results = search(space, &hw);
    let best = results.first().expect("non-empty search space");
    let baseline_run = run_mad_bootstrap(SchemeParams::baseline(), &hw);
    let mut t = Table::new(
        "Table 5 — baseline vs memory-aware optimal bootstrapping parameters (32 MB)",
        &["set", "n", "logq", "L", "dnum", "fftIter", "tput(10^7/s)"],
    );
    for (label, run) in [
        ("baseline [20]", &baseline_run),
        ("ours (searched)", &best.run),
    ] {
        let p = run.params;
        t.row(&[
            label.to_string(),
            format!("2^{}", p.log_n - 1),
            p.log_q.to_string(),
            p.limbs.to_string(),
            p.dnum.to_string(),
            p.fft_iter.to_string(),
            sig3(run.throughput_display),
        ]);
    }
    // The paper's published rows for reference.
    t.row(&[
        "paper baseline".into(),
        "2^16".into(),
        "54".into(),
        "35".into(),
        "3".into(),
        "3".into(),
        "-".into(),
    ]);
    t.row(&[
        "paper ours".into(),
        "2^16".into(),
        "50".into(),
        "40".into(),
        "2".into(),
        "6".into(),
        "-".into(),
    ]);
    t
}

/// Regenerates Table 6: published designs vs the same hardware with MAD
/// at 32 MB (MAD-practical parameters; pass `searched = true` to run the
/// full parameter search per design instead).
pub fn table6(searched: bool) -> Table {
    let designs = [
        HardwareConfig::gpu(),
        HardwareConfig::f1(),
        HardwareConfig::bts(),
        HardwareConfig::ark(),
        HardwareConfig::craterlake(),
    ];
    // Paper's normalized-throughput column (published / MAD).
    let paper_norm = [0.1361, 0.0005, 1.7178, 2.1326, 4.6248];
    let mut t = Table::new(
        "Table 6 — bootstrapping comparison (published vs +MAD at 32 MB)",
        &[
            "design", "pub ms", "pub tput", "MAD ms", "MAD tput", "pub/MAD", "paper", "bound",
        ],
    );
    for ((pubd, hw), paper) in PublishedDesign::table6()
        .iter()
        .zip(&designs)
        .zip(paper_norm)
    {
        let mad_hw = hw.with_cache_mb(32.0);
        let params = if searched {
            simfhe::search::best_params(&SearchSpace::default(), &mad_hw)
                .expect("search finds parameters")
        } else {
            SchemeParams::mad_practical()
        };
        let run = run_mad_bootstrap(params, &mad_hw);
        t.row(&[
            pubd.name.to_string(),
            format!("{:.2}", pubd.bootstrap_ms),
            sig3(pubd.throughput_display()),
            format!("{:.2}", run.runtime_ms),
            sig3(run.throughput_display),
            format!("{:.4}", pubd.throughput_display() / run.throughput_display),
            format!("{paper:.4}"),
            if run.memory_bound { "mem" } else { "comp" }.to_string(),
        ]);
    }
    t
}

/// Regenerates one Figure-6 panel set (LR training or ResNet-20
/// inference): per design, the original bar and the +MAD bars.
pub fn fig6(kind: Fig6Workload) -> Table {
    let title = match kind {
        Fig6Workload::LrTraining => "Figure 6(a-e) — HELR LR training time",
        Fig6Workload::ResNetInference => "Figure 6(f-h) — ResNet-20 inference time",
    };
    let mut t = Table::new(
        title,
        &["bar", "cache MB", "caching", "time (s)", "speedup", "bound"],
    );
    for (_, bars) in figure6_groups(kind) {
        let orig = bars[0].runtime_s;
        for b in &bars {
            t.row(&[
                b.label.clone(),
                format!("{}", b.cache_mb as u64),
                if b.mad {
                    b.caching.to_string()
                } else {
                    "baseline".into()
                },
                format!("{:.3}", b.runtime_s),
                format!("{:.2}x", orig / b.runtime_s),
                if b.memory_bound { "mem" } else { "comp" }.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_all_rows_within_tolerance() {
        let model = table4_model();
        for (name, p_ops, p_gb, _) in TABLE4_PAPER {
            let c = table4_cost(&model, name);
            let gops = c.ops() as f64 / 1e9;
            let gb = c.dram_total() as f64 / 1e9;
            if p_ops > 0.0 {
                assert!(
                    (gops / p_ops - 1.0).abs() < 0.30,
                    "{name}: {gops:.4} Gops vs paper {p_ops}"
                );
            }
            assert!(
                (gb / p_gb - 1.0).abs() < 0.30,
                "{name}: {gb:.4} GB vs paper {p_gb}"
            );
        }
        assert_eq!(table4().len(), 12);
    }

    #[test]
    fn fig2_reductions_track_paper_shape() {
        let ladder = fig2_ladder();
        let base = (ladder[0].1.cost.ct_read + ladder[0].1.cost.ct_write) as f64;
        for ((_, b), (name, paper)) in ladder.iter().zip(FIG2_PAPER_REDUCTIONS).skip(1) {
            let delta = ((b.cost.ct_read + b.cost.ct_write) as f64 / base - 1.0) * 100.0;
            assert!(
                (delta - paper).abs() < 10.0,
                "{name}: {delta:+.1}% vs paper {paper:+.0}%"
            );
        }
    }

    #[test]
    fn fig3_directions_match_paper() {
        let ladder = fig3_ladder();
        let costs: Vec<Cost> = ladder.iter().map(|(_, b)| b.cost).collect();
        // Merge: compute down, key reads flat.
        assert!(costs[1].ops() < costs[0].ops());
        assert_eq!(costs[1].key_read, costs[0].key_read);
        // Hoisting: compute down, ct traffic down, key reads up.
        assert!(costs[2].ops() < costs[1].ops());
        assert!(costs[2].ct_read + costs[2].ct_write < costs[1].ct_read + costs[1].ct_write);
        assert!(costs[2].key_read > costs[1].key_read);
        // Key compression: exactly halves key reads, all else equal.
        assert_eq!(costs[3].key_read * 2, costs[2].key_read);
        assert_eq!(costs[3].ops(), costs[2].ops());
    }

    #[test]
    fn ai_improves_by_large_factor() {
        // Paper: 3× (0.72 → ~2.2). Our stricter accounting retains the
        // raised-digit round-trip between ModUp and KSKInnerProd, so we
        // reproduce ~1.8–2×; see EXPERIMENTS.md.
        let (before, after) = ai_improvement();
        assert!(
            after / before > 1.7,
            "AI {before:.2} -> {after:.2} (paper: 0.72 -> ~2.2, 3×)"
        );
    }

    #[test]
    fn table6_reproduces_winner_ordering() {
        let t = table6(false);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn fig6_tables_are_complete() {
        assert_eq!(fig6(Fig6Workload::LrTraining).len(), 3 + 3 + 3 + 4 + 4);
        assert_eq!(fig6(Fig6Workload::ResNetInference).len(), 17);
    }
}
