//! A fixed reference kernel that measures how fast the host is running *right
//! now*, and the arithmetic that uses it to express every timing at the
//! reference host's quiet speed.
//!
//! The reference host is a 2-vCPU guest whose vCPUs share their physical
//! cores with other guests. When a neighbour's vCPU is busy on the sibling
//! hyperthread, throughput-bound code (an NTT, a key switch) runs 1.3–1.8x
//! slower, in episodes of 0.3–1 s that cover a tenth of a calm minute and all
//! of a rough one. A run's wall-clock figures therefore move by tens of
//! percent between identical runs, and no statistic over the run's own
//! requests removes that: a run can lie wholly inside an episode.
//!
//! So the load generator, which issues one request at a time, runs one pass
//! of this kernel between requests every [`BLOCK`], on the CPU the work runs
//! on. The kernel is a copy of nothing in the repository and must never
//! change: a radix-2 butterfly network with Shoup multiplication over eight
//! 64 KiB limbs, the instruction mix and cache footprint of the library's
//! own hot loops. The requests between two passes are one *block*; the mean
//! of the two passes over [`REFERENCE_MS`] is the probe's slowdown during
//! the block, and every latency of the block is divided by that slowdown
//! raised to the workload's `host_sensitivity` — code the neighbour slows
//! less than an NTT (socket copies) has a power below 1, code it slows more
//! (a working set the shared L2 no longer holds) a power above 1. README.md,
//! *Noise*, has the measurements and how the powers were fitted.

use std::time::{Duration, Instant};

/// One pass on the reference host with nothing on the sibling hyperthread.
/// It only fixes the unit: every corrected figure scales with it, so a
/// comparison on one host does not depend on its value.
pub const REFERENCE_MS: f64 = 0.80;

/// The generator runs a pass once this much time has gone by since the last
/// one: well under the length of an episode, and 2% of the run.
pub const BLOCK: Duration = Duration::from_millis(40);

const N: usize = 8192;
const LIMBS: usize = 8;
/// A 60-bit odd modulus; the kernel needs arithmetic, not a field.
const P: u64 = 0x0fff_ffff_fffc_0001;

#[inline(always)]
fn mul_shoup(x: u64, w: u64, w_shoup: u64) -> u64 {
    let q = ((u128::from(x) * u128::from(w_shoup)) >> 64) as u64;
    let r = x.wrapping_mul(w).wrapping_sub(q.wrapping_mul(P));
    if r >= P {
        r - P
    } else {
        r
    }
}

pub struct HostProbe {
    data: Vec<u64>,
    twiddles: Vec<(u64, u64)>,
}

impl HostProbe {
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % P
        };
        let data = (0..N * LIMBS).map(|_| next()).collect();
        let twiddles = (0..N)
            .map(|_| {
                let w = next();
                (w, ((u128::from(w) << 64) / u128::from(P)) as u64)
            })
            .collect();
        let mut probe = HostProbe { data, twiddles };
        // Touch everything once so the first timed pass finds its pages.
        probe.pass();
        probe
    }

    /// One pass over every limb; returns its duration in ms.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        for limb in self.data.chunks_exact_mut(N) {
            let (mut m, mut t) = (1, N / 2);
            while m < N {
                for i in 0..m {
                    let (w, w_shoup) = self.twiddles[m + i];
                    let (lo, hi) = limb[2 * i * t..2 * (i + 1) * t].split_at_mut(t);
                    for (a, b) in lo.iter_mut().zip(hi) {
                        let v = mul_shoup(*b, w, w_shoup);
                        let u = *a;
                        *a = if u + v >= P { u + v - P } else { u + v };
                        *b = if u >= v { u - v } else { u + P - v };
                    }
                }
                m *= 2;
                t /= 2;
            }
        }
        std::hint::black_box(&self.data);
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// How much slower than the quiet reference host the host ran while a block
/// was measured, from the passes either side of it.
pub fn slowdown(pass_before_ms: f64, pass_after_ms: f64) -> f64 {
    (pass_before_ms + pass_after_ms) / (2.0 * REFERENCE_MS)
}

/// A pass this recent still describes the host, so it can open a block.
const FRESH: Duration = Duration::from_millis(2);

/// Brackets blocks of measured work between passes of the probe.
pub struct Meter {
    probe: HostProbe,
    /// The workload's [`crate::workloads`] `host_sensitivity`.
    sensitivity: f64,
    /// The pass that opened the current block, and when it ended.
    opened_ms: f64,
    opened_at: Instant,
    /// Every pass since the last [`Meter::take_passes`], in ms.
    passes: Vec<f64>,
}

impl Meter {
    pub fn new(sensitivity: f64) -> Self {
        let mut probe = HostProbe::new();
        let opened_ms = probe.pass();
        Meter {
            probe,
            sensitivity,
            opened_ms,
            opened_at: Instant::now(),
            passes: vec![opened_ms],
        }
    }

    fn pass(&mut self) {
        self.opened_ms = self.probe.pass();
        self.opened_at = Instant::now();
        self.passes.push(self.opened_ms);
    }

    /// Opens a block: runs a pass unless the one that closed the previous
    /// block has only just ended.
    pub fn open(&mut self) {
        if self.opened_at.elapsed() > FRESH {
            self.pass();
        }
    }

    /// Whether the open block has run long enough to be closed.
    pub fn due(&self) -> bool {
        self.opened_at.elapsed() >= BLOCK
    }

    /// Closes the block with a pass, which also opens the next one, and
    /// returns how much slower than on the quiet reference host the
    /// workload's own code ran during the block: the probe's slowdown
    /// raised to the workload's sensitivity.
    pub fn close(&mut self) -> f64 {
        let before = self.opened_ms;
        self.pass();
        slowdown(before, self.opened_ms).powf(self.sensitivity)
    }

    /// The passes run since the last call, in ms: what the probe cost and
    /// what it saw.
    pub fn take_passes(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.passes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_pass_over_the_reference() {
        assert!((slowdown(REFERENCE_MS, REFERENCE_MS) - 1.0).abs() < 1e-12);
        // Passes of 1.0 and 1.4 ms against 0.8: mean 1.2, so 1.5x slower.
        assert!((slowdown(1.0, 1.4) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn the_kernel_is_deterministic_and_stays_reduced() {
        let (mut a, mut b) = (HostProbe::new(), HostProbe::new());
        a.pass();
        b.pass();
        assert_eq!(a.data, b.data);
        assert!(a.data.iter().all(|&x| x < P));
    }
}
