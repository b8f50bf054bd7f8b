//! The four workloads. Names, rings and traffic shapes are normative (see
//! README.md for why each exists); the `*_per_second` quotas only size a run.

use crate::plan::{Op, Shape};
use ckks::CkksParams;

/// Repetitions of the measured phase, each against a fresh set-up; every
/// end-to-end figure is the median over them.
pub const REPETITIONS: usize = 3;

/// BSGS transform and served dot-product size: 4 diagonals, baby dimension 2.
pub const DIAGONALS: usize = 4;
pub const BSGS_N1: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct Ring {
    pub log_degree: u32,
    pub levels: usize,
    pub dnum: usize,
}

impl Ring {
    /// 40-bit scale, 50-bit first and special moduli on every ring.
    pub fn params(&self) -> CkksParams {
        CkksParams::builder()
            .log_degree(self.log_degree)
            .levels(self.levels)
            .scale_bits(40)
            .first_modulus_bits(50)
            .special_modulus_bits(50)
            .dnum(self.dnum)
            .build()
            .expect("workload ring parameters are valid")
    }
}

#[derive(Clone, Copy, Debug)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub ring: Ring,
    pub shape: Shape,
    pub shards: usize,
    /// Workers per shard.
    pub workers: usize,
    /// Level of the tenants' input ciphertexts; `None` is the top level.
    pub ct_level: Option<usize>,
    /// Global key-cache budget in expanded switching keys; `None` is 1 GiB.
    pub cache_keys: Option<u64>,
    /// Requests issued per second of `--seconds`, all connections together.
    /// Fixes the *count*, so both sides of a comparison do identical work.
    /// Sized so that the three measured repetitions serve for about six
    /// tenths of `--seconds` on a quiet reference host, which is about
    /// `--seconds` at the speed the host usually offers.
    pub requests_per_second: f64,
    /// How strongly the workload's latency follows the host probe's: a
    /// block's latencies are divided by the probe's slowdown raised to this
    /// power (see `hostprobe`). Fitted as the power that minimises the spread
    /// of thirty runs over a rough half hour on the reference host.
    pub host_sensitivity: f64,
    pub expect: Expect,
}

/// What a traced run must observe for the workload to still be stressing the
/// layer it exists for; a run outside these fails loudly instead of drifting.
/// The issue's prototype read kernel shares of 0.25 (`serve_light`, limit
/// 0.40) and 0.82 (`serve_keyed`, limit 0.70) with two clients queueing; one
/// request at a time reads 0.40 and 0.88 with the host probe at twice its
/// quiet time. Both sides of the ratio are as measured and a neighbour slows
/// kernels more than copies, so the share rises with the host's slowdown (to
/// 0.5 on `serve_light` at four times); the limits sit further out for that.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Open bounds on kernel-stage mean ÷ client-observed mean latency.
    pub kernel_share: (f64, f64),
    /// Open bounds on the cache hit share over the measured phase, with at
    /// least one eviction; `None` means every key stays resident (no more
    /// misses than keys uploaded).
    pub hit_share: Option<(f64, f64)>,
}

impl ServeWorkload {
    pub fn requests_per_conn(&self, seconds: u64) -> usize {
        let per_rep = self.requests_per_second * seconds as f64 / REPETITIONS as f64;
        // A whole number of reprovision periods (and so of bursts) keeps the
        // op counts of a connection exact.
        let unit = self.shape.reprovision_every.max(self.shape.burst);
        let per_conn = (per_rep / self.shape.connections as f64).ceil() as usize;
        per_conn.div_ceil(unit).max(1) * unit
    }
}

const SERVE_RING: Ring = Ring {
    log_degree: 13,
    levels: 6,
    dnum: 3,
};

pub const SERVE_WORKLOADS: &[ServeWorkload] = &[
    ServeWorkload {
        name: "serve_light",
        ring: SERVE_RING,
        shape: Shape {
            connections: 2,
            tenants_per_conn: 1,
            tenant_weights: &[1],
            burst: 1,
            mix: &[(Op::Add, 6), (Op::PtMult, 3), (Op::Rescale, 1)],
            reprovision_every: 0,
            operands: 2,
        },
        shards: 1,
        workers: 2,
        ct_level: None,
        cache_keys: None,
        requests_per_second: 220.0,
        host_sensitivity: 0.8,
        expect: Expect {
            kernel_share: (0.0, 0.65),
            hit_share: None,
        },
    },
    ServeWorkload {
        name: "serve_keyed",
        ring: SERVE_RING,
        shape: Shape {
            connections: 2,
            tenants_per_conn: 1,
            tenant_weights: &[1],
            burst: 1,
            mix: &[
                (Op::Rotate, 5),
                (Op::Mult, 3),
                (Op::Bsgs, 1),
                (Op::RunProgram, 1),
            ],
            reprovision_every: 0,
            operands: 2,
        },
        shards: 1,
        workers: 2,
        ct_level: None,
        cache_keys: None,
        requests_per_second: 50.0,
        host_sensitivity: 1.2,
        expect: Expect {
            kernel_share: (0.65, 1.0),
            hit_share: None,
        },
    },
    ServeWorkload {
        name: "serve_thrash",
        ring: Ring {
            log_degree: 12,
            levels: 12,
            dnum: 4,
        },
        shape: Shape {
            connections: 2,
            tenants_per_conn: 3,
            tenant_weights: &[4, 2, 1],
            burst: 2,
            mix: &[(Op::Rotate, 1)],
            reprovision_every: 64,
            operands: 2,
        },
        shards: 2,
        workers: 1,
        ct_level: Some(2),
        cache_keys: Some(2),
        requests_per_second: 300.0,
        host_sensitivity: 1.6,
        expect: Expect {
            kernel_share: (0.0, 1.0),
            hit_share: Some((0.30, 0.95)),
        },
    },
];

/// `lib_programs`: no server, one caller thread, a request is one round of
/// the four programs.
#[derive(Clone, Copy, Debug)]
pub struct LibWorkload {
    pub name: &'static str,
    pub ring: Ring,
    pub dot_diagonals: usize,
    pub sha_rotations: (i64, i64),
    pub helr_dim: usize,
    pub rounds_per_second: f64,
    /// As [`ServeWorkload::host_sensitivity`].
    pub host_sensitivity: f64,
}

impl LibWorkload {
    pub fn rounds_per_rep(&self, seconds: u64) -> usize {
        ((self.rounds_per_second * seconds as f64 / REPETITIONS as f64).round() as usize).max(2)
    }
}

pub const LIB_PROGRAMS: LibWorkload = LibWorkload {
    name: "lib_programs",
    ring: Ring {
        log_degree: 14,
        levels: 8,
        dnum: 3,
    },
    dot_diagonals: 16,
    sha_rotations: (1, 4),
    helr_dim: 2,
    rounds_per_second: 0.9,
    host_sensitivity: 1.1,
};

pub const WORKLOAD_NAMES: [&str; 4] =
    ["serve_light", "serve_keyed", "serve_thrash", "lib_programs"];
