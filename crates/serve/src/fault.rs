//! Deterministic fault injection for the serving runtime.
//!
//! A [`FaultPlan`] is a seeded decision stream: each parsed request frame
//! asks the plan whether (and how) to misbehave, and the answer depends
//! only on the seed, the [`FaultMix`] weights, and the *sequence* of
//! `decide` calls — never on the wall clock or OS randomness. Replaying
//! the same client workload against the same seed therefore replays the
//! same faults, which is what lets the `chaos_matrix` suite commit a seed
//! grid and assert invariants for every cell.
//!
//! The injection sites are always compiled: a server started with
//! [`crate::ServeConfig::fault_plan`] set consults the plan once per
//! frame, and one started without (the default) never does. The
//! [`crate::client::RetryPolicy`] borrows the RNG for backoff jitter.
//!
//! The taxonomy mirrors how a memory-constrained FHE server actually
//! fails in the field:
//!
//! | fault | where it strikes | what the client sees |
//! |---|---|---|
//! | [`FaultDecision::ReadError`] | connection reader | connection drops with no reply |
//! | [`FaultDecision::WriteAbort`] | response writer | a torn (partial) response frame, then EOF |
//! | [`FaultDecision::Delay`] | worker dequeue | extra latency, possibly `DeadlineExceeded` |
//! | [`FaultDecision::EvictionStorm`] | key cache | silent re-expansion cost (bit-exact results) |
//! | [`FaultDecision::SessionReset`] | session table | `NoSession`, forcing re-setup + key re-upload |
//! | [`FaultDecision::Overloaded`] | admission | synthetic `Overloaded`, back off and retry |
//! | [`FaultDecision::WorkerPanic`] | op execution | structured `Internal` (panic is caught) |

use crate::protocol::Opcode;
use std::sync::Mutex;
use std::time::Duration;

/// A tiny deterministic RNG (xorshift64*): no wall clock, no OS entropy,
/// identical streams for identical seeds on every platform.
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Seeds the generator; a zero seed is remapped to a fixed odd
    /// constant because the all-zero state is a fixed point of xorshift.
    pub fn new(seed: u64) -> Self {
        Self {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// The next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform-ish draw in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }
}

/// Per-fault injection weights, each out of 1000 per decision. The sum
/// is the overall per-frame fault probability (in ‰); the remainder is
/// "serve faithfully".
#[derive(Debug, Clone)]
pub struct FaultMix {
    /// Weight of dropping the connection as if the read failed.
    pub read_error: u16,
    /// Weight of writing a truncated response frame then dropping.
    pub write_abort: u16,
    /// Weight of artificial latency before the worker starts the op.
    pub delay: u16,
    /// Weight of forcibly evicting every cached key expansion.
    pub eviction_storm: u16,
    /// Weight of dropping every server-side session (forces re-setup).
    pub session_reset: u16,
    /// Weight of answering with a synthetic `Overloaded` instead of
    /// executing.
    pub overloaded: u16,
    /// Weight of panicking mid-request inside the worker.
    pub worker_panic: u16,
    /// Upper bound on an injected [`FaultDecision::Delay`].
    pub delay_cap: Duration,
    /// When true, session-setup and introspection opcodes (`Hello`,
    /// uploads, `CloseSession`, `Metrics`) are never faulted — useful
    /// for mixes that target the evaluation hot path only.
    pub spare_setup: bool,
}

impl FaultMix {
    /// Transport-focused mix: dropped connections, torn response frames,
    /// session loss, and admission-control rejections.
    pub fn io() -> Self {
        Self {
            read_error: 110,
            write_abort: 110,
            delay: 0,
            eviction_storm: 0,
            session_reset: 40,
            overloaded: 60,
            worker_panic: 0,
            delay_cap: Duration::ZERO,
            spare_setup: false,
        }
    }

    /// Scheduling-focused mix: dequeue latency and overload pushback on
    /// evaluation opcodes only.
    pub fn latency() -> Self {
        Self {
            read_error: 0,
            write_abort: 0,
            delay: 220,
            eviction_storm: 0,
            session_reset: 0,
            overloaded: 150,
            worker_panic: 0,
            delay_cap: Duration::from_millis(25),
            spare_setup: true,
        }
    }

    /// Everything at once: the full taxonomy at moderate weights,
    /// including mid-request worker panics and cache eviction storms.
    pub fn havoc() -> Self {
        Self {
            read_error: 60,
            write_abort: 60,
            delay: 70,
            eviction_storm: 90,
            session_reset: 40,
            overloaded: 60,
            worker_panic: 70,
            delay_cap: Duration::from_millis(15),
            spare_setup: false,
        }
    }

    fn total_weight(&self) -> u64 {
        u64::from(self.read_error)
            + u64::from(self.write_abort)
            + u64::from(self.delay)
            + u64::from(self.eviction_storm)
            + u64::from(self.session_reset)
            + u64::from(self.overloaded)
            + u64::from(self.worker_panic)
    }
}

/// One concrete fault to inject, with its parameters already drawn from
/// the plan's RNG so the injection site stays trivial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Drop the connection before processing, as if the socket read
    /// failed. No reply is ever written.
    ReadError,
    /// Compute the response normally, write only the first `keep` bytes
    /// of its frame, then drop the connection — a torn frame.
    WriteAbort {
        /// How many bytes of the response frame to let through (the
        /// injection site clamps this below the full frame length).
        keep: usize,
    },
    /// Sleep this long after dequeue, before the deadline check — the
    /// injected latency counts against the request deadline exactly like
    /// real queue delay.
    Delay(Duration),
    /// Evict every expanded key from the [`crate::cache::KeyCache`].
    EvictionStorm,
    /// Close every server-side session and purge the cache, as if the
    /// server lost its session table.
    SessionReset,
    /// Answer `Overloaded` without enqueuing, as if the queue were full.
    Overloaded,
    /// Panic inside the worker mid-request; `catch_unwind` must convert
    /// it to a structured `Internal` error.
    WorkerPanic,
}

/// One log entry: which frame drew which fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// 1-based index of the `decide` call (≈ frame order on the server).
    pub frame: u64,
    /// The opcode the faulted frame carried.
    pub op: Opcode,
    /// The fault injected.
    pub fault: FaultDecision,
}

struct PlanState {
    rng: XorShift64,
    frames: u64,
    remaining: u32,
    log: Vec<InjectedFault>,
}

/// A seeded, budgeted fault schedule shared by every server thread.
///
/// The budget caps the total number of injected faults; once spent the
/// plan answers `None` forever, so every chaos run eventually quiesces
/// and a bounded-retry client is guaranteed to converge. Decisions are a
/// pure function of `(seed, mix, call sequence)`.
pub struct FaultPlan {
    seed: u64,
    mix: FaultMix,
    inner: Mutex<PlanState>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("mix", &self.mix)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// A plan injecting at most `budget` faults, drawn with `seed`.
    pub fn new(seed: u64, mix: FaultMix, budget: u32) -> Self {
        Self {
            seed,
            inner: Mutex::new(PlanState {
                rng: XorShift64::new(seed ^ 0xc4a0_5f41),
                frames: 0,
                remaining: budget,
                log: Vec::new(),
            }),
            mix,
        }
    }

    /// The seed the plan was built from (for failure artifacts).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides the fate of one frame carrying `op`. Returns `None` to
    /// serve faithfully. Must be called exactly once per parsed frame so
    /// the decision stream is reproducible.
    pub fn decide(&self, op: Opcode) -> Option<FaultDecision> {
        let mut st = self.inner.lock().expect("fault plan poisoned");
        st.frames += 1;
        if st.remaining == 0 {
            return None;
        }
        if self.mix.spare_setup && is_setup(op) {
            return None;
        }
        let r = st.rng.below(1000);
        let mut threshold = 0u64;
        let mut pick = None;
        for (weight, kind) in [
            (self.mix.read_error, Kind::ReadError),
            (self.mix.write_abort, Kind::WriteAbort),
            (self.mix.delay, Kind::Delay),
            (self.mix.eviction_storm, Kind::EvictionStorm),
            (self.mix.session_reset, Kind::SessionReset),
            (self.mix.overloaded, Kind::Overloaded),
            (self.mix.worker_panic, Kind::WorkerPanic),
        ] {
            threshold += u64::from(weight);
            if r < threshold {
                pick = Some(kind);
                break;
            }
        }
        debug_assert!(self.mix.total_weight() <= 1000, "weights exceed 1000‰");
        let kind = pick?;
        let fault = match kind {
            Kind::ReadError => FaultDecision::ReadError,
            // The injection site clamps to the actual frame length; the
            // draw just makes the torn prefix length seed-dependent.
            Kind::WriteAbort => FaultDecision::WriteAbort {
                keep: 1 + st.rng.below(64) as usize,
            },
            Kind::Delay => {
                let max_us = self.mix.delay_cap.as_micros().max(1) as u64;
                FaultDecision::Delay(Duration::from_micros(1 + st.rng.below(max_us)))
            }
            Kind::EvictionStorm => FaultDecision::EvictionStorm,
            Kind::SessionReset => FaultDecision::SessionReset,
            Kind::Overloaded => FaultDecision::Overloaded,
            Kind::WorkerPanic => FaultDecision::WorkerPanic,
        };
        st.remaining -= 1;
        let frame = st.frames;
        st.log.push(InjectedFault { frame, op, fault });
        Some(fault)
    }

    /// Everything injected so far, in decision order.
    pub fn injected(&self) -> Vec<InjectedFault> {
        self.inner.lock().expect("fault plan poisoned").log.clone()
    }

    /// Number of faults injected so far.
    pub fn injected_count(&self) -> u64 {
        self.inner.lock().expect("fault plan poisoned").log.len() as u64
    }

    /// Injection budget still unspent.
    pub fn remaining_budget(&self) -> u32 {
        self.inner.lock().expect("fault plan poisoned").remaining
    }
}

#[derive(Clone, Copy)]
enum Kind {
    ReadError,
    WriteAbort,
    Delay,
    EvictionStorm,
    SessionReset,
    Overloaded,
    WorkerPanic,
}

fn is_setup(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Hello
            | Opcode::UploadRelin
            | Opcode::UploadGalois
            | Opcode::CloseSession
            | Opcode::UploadProgram
            | Opcode::Metrics
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic_and_never_sticks_at_zero() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0, "zero seed must be remapped");
        let mut c = XorShift64::new(7);
        for _ in 0..1000 {
            assert!(c.below(10) < 10);
        }
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let ops = [
            Opcode::Hello,
            Opcode::Add,
            Opcode::Mult,
            Opcode::Rotate,
            Opcode::Rescale,
            Opcode::Metrics,
        ];
        let a = FaultPlan::new(77, FaultMix::havoc(), 1000);
        let b = FaultPlan::new(77, FaultMix::havoc(), 1000);
        for i in 0..2000 {
            let op = ops[i % ops.len()];
            assert_eq!(a.decide(op), b.decide(op), "diverged at call {i}");
        }
        assert_eq!(a.injected(), b.injected());
    }

    #[test]
    fn budget_caps_total_injections_then_quiesces() {
        let plan = FaultPlan::new(3, FaultMix::havoc(), 5);
        for _ in 0..10_000 {
            let _ = plan.decide(Opcode::Mult);
        }
        assert_eq!(plan.injected_count(), 5);
        assert_eq!(plan.remaining_budget(), 0);
        assert_eq!(plan.decide(Opcode::Mult), None, "spent plan must be inert");
    }

    #[test]
    fn spare_setup_never_faults_session_management() {
        let plan = FaultPlan::new(9, FaultMix::latency(), u32::MAX);
        for _ in 0..5000 {
            assert_eq!(plan.decide(Opcode::Hello), None);
            assert_eq!(plan.decide(Opcode::UploadGalois), None);
            assert_eq!(plan.decide(Opcode::Metrics), None);
        }
        // The evaluation path still gets faulted.
        let mut hit = false;
        for _ in 0..5000 {
            if plan.decide(Opcode::Mult).is_some() {
                hit = true;
                break;
            }
        }
        assert!(hit, "latency mix must fault evaluation opcodes");
    }

    #[test]
    fn havoc_mix_reaches_every_fault_kind() {
        let plan = FaultPlan::new(1234, FaultMix::havoc(), u32::MAX);
        for _ in 0..20_000 {
            let _ = plan.decide(Opcode::Mult);
        }
        let log = plan.injected();
        let saw = |f: fn(&FaultDecision) -> bool| log.iter().any(|e| f(&e.fault));
        assert!(saw(|f| matches!(f, FaultDecision::ReadError)));
        assert!(saw(|f| matches!(f, FaultDecision::WriteAbort { .. })));
        assert!(saw(|f| matches!(f, FaultDecision::Delay(_))));
        assert!(saw(|f| matches!(f, FaultDecision::EvictionStorm)));
        assert!(saw(|f| matches!(f, FaultDecision::SessionReset)));
        assert!(saw(|f| matches!(f, FaultDecision::Overloaded)));
        assert!(saw(|f| matches!(f, FaultDecision::WorkerPanic)));
        // Injected delays respect the mix's ceiling.
        for e in &log {
            if let FaultDecision::Delay(d) = e.fault {
                assert!(d <= FaultMix::havoc().delay_cap);
                assert!(d > Duration::ZERO);
            }
        }
    }
}
