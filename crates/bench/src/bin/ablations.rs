//! Ablation studies for the design choices DESIGN.md calls out:
//! each algorithmic optimization in isolation (not cumulative), the BSGS
//! baby/giant trade-off of §3.2, and dnum / fftIter sweeps at 32 MiB.
//!
//! Run with: `cargo run --release -p mad-bench --bin ablations`

use simfhe::matvec::MatVecShape;
use simfhe::program::bsgs_baby_dim;
use simfhe::report::Table;
use simfhe::throughput::run_mad_bootstrap;
use simfhe::{AlgoOpts, CachingLevel, CostModel, HardwareConfig, MadConfig, SchemeParams};

fn main() {
    isolated_algorithmic_opts();
    bsgs_split();
    dnum_sweep();
    fft_iter_sweep();
    cache_sweep();
}

/// Each algorithmic optimization toggled alone against a common baseline.
fn isolated_algorithmic_opts() {
    let base_algo = AlgoOpts {
        modup_hoist: true,
        ..AlgoOpts::none()
    };
    let variants: [(&str, AlgoOpts); 4] = [
        ("none (ModUp hoist only)", base_algo),
        (
            "only ModDown merge",
            AlgoOpts {
                moddown_merge: true,
                ..base_algo
            },
        ),
        (
            "only ModDown hoisting",
            AlgoOpts {
                moddown_hoist: true,
                ..base_algo
            },
        ),
        (
            "only key compression",
            AlgoOpts {
                key_compression: true,
                ..base_algo
            },
        ),
    ];
    let mut t = Table::new(
        "Ablation: algorithmic optimizations in isolation (bootstrap, MAD params, full caching)",
        &["variant", "Gops", "ct GB", "key GB", "total GB", "AI"],
    );
    for (name, algo) in variants {
        let b = CostModel::new(
            SchemeParams::mad_practical(),
            MadConfig {
                caching: CachingLevel::LimbReorder,
                algo,
            },
        )
        .bootstrap();
        t.row(&[
            name.to_string(),
            format!("{:.1}", b.cost.ops() as f64 / 1e9),
            format!("{:.1}", (b.cost.ct_read + b.cost.ct_write) as f64 / 1e9),
            format!("{:.1}", b.cost.key_read as f64 / 1e9),
            format!("{:.1}", b.cost.dram_total() as f64 / 1e9),
            format!("{:.2}", b.cost.arithmetic_intensity()),
        ]);
    }
    println!("{}", t.render());
}

/// §3.2's baby/giant trade-off: larger baby step = more key reads, fewer
/// ciphertext reads.
fn bsgs_split() {
    let params = SchemeParams::baseline();
    let model = CostModel::new(
        params,
        MadConfig {
            caching: CachingLevel::LimbReorder,
            algo: AlgoOpts {
                modup_hoist: true,
                ..AlgoOpts::none()
            },
        },
    );
    let shape = MatVecShape {
        ell: 35,
        diagonals: 63,
    };
    let mut t = Table::new(
        "Ablation: BSGS split for one PtMatVecMult (ℓ=35, 63 diagonals)",
        &["schedule", "keys read/matmul", "ct GB", "key GB", "Gops"],
    );
    // The library's default split plus the fully-hoisted (flat) schedule.
    let bsgs = model.pt_mat_vec_mult(shape);
    let n1 = bsgs_baby_dim(shape.diagonals);
    let n2 = shape.diagonals.div_ceil(n1);
    t.row(&[
        format!("BSGS n1={n1}, n2={n2}"),
        format!("{}", n1 + n2 - 1),
        format!(
            "{:.2}",
            (bsgs.cost.ct_read + bsgs.cost.ct_write) as f64 / 1e9
        ),
        format!("{:.2}", bsgs.cost.key_read as f64 / 1e9),
        format!("{:.1}", bsgs.cost.ops() as f64 / 1e9),
    ]);
    let hoisted_model = CostModel::new(
        params,
        MadConfig {
            caching: CachingLevel::LimbReorder,
            algo: AlgoOpts {
                modup_hoist: true,
                moddown_hoist: true,
                ..AlgoOpts::none()
            },
        },
    );
    let flat = hoisted_model.pt_mat_vec_mult(shape);
    t.row(&[
        "flat hoisted (n1 = r)".to_string(),
        format!("{}", shape.diagonals),
        format!(
            "{:.2}",
            (flat.cost.ct_read + flat.cost.ct_write) as f64 / 1e9
        ),
        format!("{:.2}", flat.cost.key_read as f64 / 1e9),
        format!("{:.1}", flat.cost.ops() as f64 / 1e9),
    ]);
    println!("{}", t.render());
}

/// dnum sweep at 32 MiB: fewer digits mean fewer ModUps but larger α
/// (bigger working set and special basis).
fn dnum_sweep() {
    let hw = HardwareConfig::gpu().with_cache_mb(32.0);
    let mut t = Table::new(
        "Ablation: dnum at 32 MiB (L=40, logq=50, fftIter=6)",
        &["dnum", "alpha", "caching", "boot ms", "tput(10^7/s)"],
    );
    for dnum in [1usize, 2, 3, 4, 5] {
        let p = SchemeParams {
            dnum,
            ..SchemeParams::mad_practical()
        };
        if !p.is_secure_128() {
            continue;
        }
        let run = run_mad_bootstrap(p, &hw);
        t.row(&[
            dnum.to_string(),
            p.alpha().to_string(),
            run.config.caching.to_string(),
            format!("{:.1}", run.runtime_ms),
            format!("{:.0}", run.throughput_display),
        ]);
    }
    println!("{}", t.render());
}

/// fftIter sweep: more, smaller DFT matrices trade extra levels for fewer
/// rotations per matrix.
fn fft_iter_sweep() {
    let hw = HardwareConfig::gpu().with_cache_mb(32.0);
    let mut t = Table::new(
        "Ablation: fftIter at 32 MiB (L=40, logq=50, dnum=3)",
        &[
            "fftIter",
            "levels consumed",
            "log Q1",
            "boot ms",
            "tput(10^7/s)",
        ],
    );
    for fft_iter in [1usize, 2, 3, 4, 6, 8] {
        let p = SchemeParams {
            fft_iter,
            ..SchemeParams::mad_practical()
        };
        let consumed = 2 * fft_iter + 2 + simfhe::bootstrap::EVAL_MOD_DEPTH;
        if p.limbs <= consumed {
            continue;
        }
        let run = run_mad_bootstrap(p, &hw);
        t.row(&[
            fft_iter.to_string(),
            run.bootstrap.levels_consumed.to_string(),
            run.bootstrap.log_q1.to_string(),
            format!("{:.1}", run.runtime_ms),
            format!("{:.0}", run.throughput_display),
        ]);
    }
    println!("{}", t.render());
}

/// Cache-size sweep: §4.2's "any increase in the on-chip memory beyond
/// 32 MB does not improve the bootstrapping throughput" — the caching
/// ladder saturates once the α-limb working set fits.
fn cache_sweep() {
    let mut t = Table::new(
        "Ablation: on-chip memory sweep (MAD params, GPU-class bandwidth)",
        &["cache MiB", "caching level", "boot ms", "tput(10^7/s)"],
    );
    for cache in [1.0f64, 2.0, 6.0, 16.0, 32.0, 64.0, 256.0, 512.0] {
        let hw = HardwareConfig::gpu().with_cache_mb(cache);
        let run = run_mad_bootstrap(SchemeParams::mad_practical(), &hw);
        t.row(&[
            format!("{cache}"),
            run.config.caching.to_string(),
            format!("{:.1}", run.runtime_ms),
            format!("{:.0}", run.throughput_display),
        ]);
    }
    println!("{}", t.render());
}
