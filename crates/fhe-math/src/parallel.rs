//! Limb-level parallelism over flat limb-major buffers.
//!
//! RNS limbs are mutually independent in every limb-wise kernel (NTT,
//! pointwise arithmetic, automorphisms — Table 3 of the paper), so a flat
//! `[u64; ℓ·N]` buffer splits into disjoint `&mut [u64]` limb chunks that
//! scoped threads can process without synchronization. The three helpers
//! here only say how their buffers are cut; one private routine
//! (`Cores::run_shares`) decides how many shares there are, where they
//! begin, and whether any of them leaves the calling thread. A threaded
//! call partitions the work exactly as the serial loop walks it, so the
//! two are **bit-identical** by construction (verified by the
//! `parallel_identity` tests).
//!
//! # When a call uses threads
//!
//! The decision is made per call from three things the code observes:
//!
//! 1. **The cores granted to the process**, read once
//!    (`available_parallelism` costs 12–14 µs a call on Linux —
//!    `sched_getaffinity` plus cgroup files — and the old splitters asked
//!    18 times per key switch).
//! 2. **The size of a helper's share.** A helper thread is added only if
//!    its own share reaches [`MIN_PAR_ELEMS`] elements.
//! 3. **What other callers hold.** One process-wide count of spare cores:
//!    a call takes one core for the thread it runs on and borrows at most
//!    what is left for helpers, returning both when it ends. A lone caller
//!    on two cores gets the second one; two workers inside kernels at the
//!    same time each find nothing to borrow and run their own loops, so
//!    kernel threads stop multiplying callers by cores.
//!
//! [`set_forced`] overrides all three for the identity suites and the
//! serial-vs-parallel benches.

use std::sync::atomic::{AtomicIsize, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Fewest elements a helper thread's share must hold before the thread is
/// spawned.
///
/// Measured on 2 vCPUs with the transforms on AVX-512 IFMA lanes, the
/// hybrid key switch of `ntt_kernels` (`keyswitch_*` rows: L = 6, dnum 3,
/// 50-bit first prime; medians of six runs, serial loop → this rule). One
/// caller: 3.16 → 2.00 ms at N = 2^15 and 6.66 → 3.93 ms at 2^16, faster
/// in every run. At 2^13, where only the 4-limb-and-wider calls split,
/// the rule read 510 → 586 µs, slower in five runs and level in one; two
/// runs before those read 618 → 889 and 559 → 599 µs, so the size of the
/// loss is unresolved. Two callers at once read 619 → 745 µs at 2^13 and
/// 3.49 → 4.17 ms at 2^15. This value was chosen before the IFMA
/// transforms, against half, twice and four times it (one caller, the
/// slower portable transforms); that comparison has not been repeated.
pub const MIN_PAR_ELEMS: usize = 1 << 14;

const AUTO: u8 = 0;
const FORCED_PARALLEL: u8 = 1;
const FORCED_SERIAL: u8 = 2;

/// The cores kernel threads may occupy and how many are free right now.
struct Cores {
    total: usize,
    /// `total` minus one per call in progress and one per helper lent out.
    /// Negative while more callers than cores are inside kernels. Relaxed
    /// everywhere: the count publishes no data, the scope join does.
    spare: AtomicIsize,
    forced: AtomicU8,
}

/// Cores a call holds until it ends (also when its closure panics).
struct Lease<'a> {
    cores: &'a Cores,
    held: usize,
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.cores
            .spare
            .fetch_add(self.held as isize, Ordering::Relaxed);
    }
}

fn cores() -> &'static Cores {
    #[cfg(test)]
    if let Some(cores) = tests::OVERRIDE.get() {
        return cores;
    }
    static HOST: OnceLock<Cores> = OnceLock::new();
    HOST.get_or_init(|| Cores::new(std::thread::available_parallelism().map_or(1, |p| p.get())))
}

/// Overrides the parallel/serial decision; `None` restores the rule in the
/// module docs. Exposed for the bit-identity tests and the
/// serial-vs-parallel benches, which need both code paths inside one
/// binary. Forced parallel ignores the spare-core count and splits at
/// least four ways — even on a single-core host — so the identity tests
/// exercise the threaded partition rather than the serial loop.
pub fn set_forced(forced: Option<bool>) {
    let v = match forced {
        None => AUTO,
        Some(true) => FORCED_PARALLEL,
        Some(false) => FORCED_SERIAL,
    };
    cores().forced.store(v, Ordering::Relaxed);
}

/// Always `true`: the threaded path is part of every build. Kept because
/// the benchmark header prints it.
pub const fn compiled() -> bool {
    true
}

impl Cores {
    fn new(total: usize) -> Self {
        Self {
            total,
            spare: AtomicIsize::new(total as isize),
            forced: AtomicU8::new(AUTO),
        }
    }

    /// How many shares a call of `jobs` units of `elems_per_job` elements
    /// may be cut into, and the cores it holds while it runs.
    fn claim(&self, jobs: usize, elems_per_job: usize) -> (usize, Lease<'_>) {
        let (shares, held) = match self.forced.load(Ordering::Relaxed) {
            FORCED_SERIAL => (1, 0),
            FORCED_PARALLEL => (self.total.max(4), 0),
            _ => {
                let min_jobs = MIN_PAR_ELEMS.div_ceil(elems_per_job.max(1));
                let want = (jobs / min_jobs).saturating_sub(1);
                // One core for the calling thread whatever the count says,
                // helpers only out of what is then left.
                let grant = |spare: isize| want.min((spare - 1).max(0) as usize);
                let before = self
                    .spare
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |spare| {
                        Some(spare - 1 - grant(spare) as isize)
                    })
                    .expect("the update never declines");
                (1 + grant(before), 1 + grant(before))
            }
        };
        (shares, Lease { cores: self, held })
    }

    /// Cuts `jobs` units into contiguous shares — the first `jobs % w`
    /// one unit longer — and runs `run(first_unit, share)` on each: the
    /// first on the calling thread, the others on scoped threads.
    /// `cut(parts, k)` splits the first `k` units off `parts`.
    fn run_shares<P: Send>(
        &self,
        jobs: usize,
        elems_per_job: usize,
        parts: P,
        cut: impl Fn(P, usize) -> (P, P),
        run: impl Fn(usize, P) + Sync,
    ) {
        let (shares, _lease) = self.claim(jobs, elems_per_job);
        let shares = shares.min(jobs);
        if shares <= 1 {
            return run(0, parts);
        }
        let (base, extra) = (jobs / shares, jobs % shares);
        std::thread::scope(|scope| {
            let run = &run;
            let mut start = base + usize::from(extra > 0);
            let (mine, mut rest) = cut(parts, start);
            for w in 1..shares {
                let take = base + usize::from(w < extra);
                let (head, tail) = cut(rest, take);
                rest = tail;
                scope.spawn(move || run(start, head));
                start += take;
            }
            run(0, mine);
        });
    }
}

/// Runs `f(limb_index, limb)` over every `n`-element chunk of `data`.
///
/// `f` must be safe to run concurrently for distinct limbs (it always is
/// for the per-limb kernels: each closure touches only its own chunk).
pub fn for_each_limb_mut<F>(data: &mut [u64], n: usize, f: F)
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    debug_assert_eq!(data.len() % n, 0);
    cores().run_shares(
        data.len() / n,
        n,
        data,
        |d, take| d.split_at_mut(take * n),
        |start, d| {
            for (j, limb) in d.chunks_exact_mut(n).enumerate() {
                f(start + j, limb);
            }
        },
    );
}

/// Runs `f(limb_index, dst_a_limb, dst_b_limb)` over paired limbs of two
/// flat buffers mutated together (e.g. the `(u, v)` accumulators of a key
/// switch inner product).
pub fn for_each_limb_mut2<F>(a: &mut [u64], b: &mut [u64], n: usize, f: F)
where
    F: Fn(usize, &mut [u64], &mut [u64]) + Sync,
{
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len() % n, 0);
    cores().run_shares(
        a.len() / n,
        // Each job runs two limb kernels' worth of work.
        2 * n,
        (a, b),
        |(a, b), take| {
            let (a_head, a_tail) = a.split_at_mut(take * n);
            let (b_head, b_tail) = b.split_at_mut(take * n);
            ((a_head, b_head), (a_tail, b_tail))
        },
        |start, (a, b)| {
            for (j, (da, db)) in a.chunks_exact_mut(n).zip(b.chunks_exact_mut(n)).enumerate() {
                f(start + j, da, db);
            }
        },
    );
}

/// Splits the slot dimension `0..n` into contiguous blocks and runs
/// `f(slot_range, dst_columns)` for each, where `dst_columns[j]` is the
/// block's window into `cols[j]`, target limb `j` (`n` slots long; the
/// limbs need not be adjacent in memory).
///
/// This is the slot-wise counterpart of [`for_each_limb_mut`]: basis
/// extension processes one coefficient across *all* limbs at a time
/// (Table 3's slot-wise pattern), so the parallel split must be along
/// slots, not limbs. Per-slot results are independent, so the split does
/// not change any value.
pub fn for_each_slot_block<F>(cols: &mut [&mut [u64]], n: usize, f: F)
where
    F: Fn(std::ops::Range<usize>, &mut [&mut [u64]]) + Sync,
{
    debug_assert!(cols.iter().all(|c| c.len() == n));
    let windows: Vec<&mut [u64]> = cols.iter_mut().map(|c| &mut **c).collect();
    cores().run_shares(
        n,
        // Cost scales with slots × (source + target) limbs; the target
        // count stands in for both.
        windows.len(),
        windows,
        |windows, take| windows.into_iter().map(|c| c.split_at_mut(take)).unzip(),
        |start, mut windows| {
            let len = windows.first().map_or(0, |c| c.len());
            f(start..start + len, &mut windows)
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    thread_local! {
        /// The `Cores` this thread's helper calls use instead of the
        /// host's, so the rule is tested on a budget the test chose.
        pub(super) static OVERRIDE: Cell<Option<&'static Cores>> = const { Cell::new(None) };
    }

    /// Points this thread's helper calls at `cores` until dropped.
    struct Using;

    fn using(cores: &'static Cores) -> Using {
        OVERRIDE.set(Some(cores));
        Using
    }

    impl Drop for Using {
        fn drop(&mut self) {
            OVERRIDE.set(None);
        }
    }

    fn budget(total: usize) -> &'static Cores {
        Box::leak(Box::new(Cores::new(total)))
    }

    const HELPERS: [&str; 3] = ["limb_mut", "limb_mut2", "slot_block"];

    /// Calls one public helper over `units` units of `elems` elements
    /// each (limbs; for the slot helper, slots of `elems` target limbs),
    /// reporting every closure call as `visit(units_covered)`.
    fn call(helper: &str, units: usize, elems: usize, visit: &(dyn Fn(Range<usize>) + Sync)) {
        let mut a = vec![0u64; units * elems];
        match helper {
            "limb_mut" => for_each_limb_mut(&mut a, elems, |i, _| visit(i..i + 1)),
            // Two buffers per unit: half the elements in each.
            "limb_mut2" => {
                a.truncate(units * elems / 2);
                let mut b = a.clone();
                for_each_limb_mut2(&mut a, &mut b, elems / 2, |i, _, _| visit(i..i + 1));
            }
            "slot_block" => {
                let mut cols: Vec<&mut [u64]> = a.chunks_exact_mut(units).collect();
                for_each_slot_block(&mut cols, units, |range, _| visit(range));
            }
            other => unreachable!("{other}"),
        }
    }

    /// The shares a helper call was cut into, as `(thread, units)` in unit
    /// order: consecutive visits by one thread are one share.
    fn shares(helper: &str, units: usize, elems: usize) -> Vec<(ThreadId, Range<usize>)> {
        let visits = Mutex::new(Vec::new());
        call(helper, units, elems, &|r| {
            visits
                .lock()
                .unwrap()
                .push((std::thread::current().id(), r));
        });
        let mut visits = visits.into_inner().unwrap();
        visits.sort_by_key(|(_, r)| r.start);
        let mut shares: Vec<(ThreadId, Range<usize>)> = Vec::new();
        for (tid, r) in visits {
            match shares.last_mut() {
                Some((last, range)) if *last == tid => {
                    assert_eq!(range.end, r.start, "a share is contiguous");
                    range.end = r.end;
                }
                _ => shares.push((tid, r)),
            }
        }
        shares
    }

    #[test]
    fn share_boundaries_follow_the_base_extra_rule_in_every_helper() {
        let me = std::thread::current().id();
        for helper in HELPERS {
            for l in 1..=9usize {
                for workers in 1..=5usize {
                    let cores = budget(workers);
                    let _using = using(cores);
                    // The slot helper's units are slots: give it `l`
                    // shares' worth of them, two target limbs deep.
                    let (units, elems) = match helper {
                        "slot_block" => (l * MIN_PAR_ELEMS / 2, 2),
                        _ => (l, MIN_PAR_ELEMS),
                    };
                    let got = shares(helper, units, elems);
                    let w = workers.min(l);
                    let (base, extra) = (units / w, units % w);
                    let mut start = 0;
                    let want: Vec<Range<usize>> = (0..w)
                        .map(|k| {
                            let take = base + usize::from(k < extra);
                            start += take;
                            start - take..start
                        })
                        .collect();
                    let ranges: Vec<Range<usize>> = got.iter().map(|(_, r)| r.clone()).collect();
                    assert_eq!(ranges, want, "{helper} l={l} workers={workers}");
                    assert_eq!(got[0].0, me, "the caller runs the first share");
                    let mut tids: Vec<ThreadId> = got.iter().map(|(t, _)| *t).collect();
                    tids.dedup();
                    assert_eq!(tids.len(), w, "one thread per share");
                    assert_eq!(cores.spare.load(Ordering::Relaxed), workers as isize);
                }
            }
        }
    }

    #[test]
    fn a_helper_is_spawned_only_for_a_share_of_min_par_elems() {
        let _using = using(budget(4));
        for helper in HELPERS {
            // Three half-size units: two shares would leave the helper
            // half a unit short of the minimum.
            let (units, elems) = match helper {
                "slot_block" => (3 * MIN_PAR_ELEMS / 4, 2),
                _ => (3, MIN_PAR_ELEMS / 2),
            };
            assert_eq!(shares(helper, units, elems).len(), 1, "{helper}");
            let units = units / 3 * 4;
            assert_eq!(shares(helper, units, elems).len(), 2, "{helper}");
        }
    }

    #[test]
    fn with_every_core_lent_out_a_call_stays_on_its_thread_and_returns_what_it_took() {
        let me = std::thread::current().id();
        let cores = budget(4);
        let _using = using(cores);
        let spare = || cores.spare.load(Ordering::Relaxed);
        let (_, others) = cores.claim(8, MIN_PAR_ELEMS);
        assert_eq!(spare(), 0);
        for helper in HELPERS {
            let got = shares(helper, 8, MIN_PAR_ELEMS);
            assert_eq!(got, vec![(me, 0..8)], "{helper}");
            assert_eq!(spare(), 0, "{helper}");
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                call(helper, 8, MIN_PAR_ELEMS, &|_| panic!("kernel bug"));
            }));
            assert!(panicked.is_err());
            assert_eq!(spare(), 0, "{helper} kept a core across a panic");
        }
        drop(others);
        assert_eq!(spare(), 4);
        // A threaded call that panics (on the caller or on a helper)
        // returns its helpers too.
        for helper in HELPERS {
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                call(helper, 8, MIN_PAR_ELEMS, &|_| panic!("kernel bug"));
            }));
            assert!(panicked.is_err());
            assert_eq!(spare(), 4, "{helper}");
        }
    }

    #[test]
    fn concurrent_callers_share_one_budget() {
        const CALLERS: usize = 4;
        const CORES: usize = 3;
        static ALIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        static HELPERS_ALIVE: AtomicUsize = AtomicUsize::new(0);
        static HELPERS_PEAK: AtomicUsize = AtomicUsize::new(0);
        let cores = budget(CORES);
        let start: &'static Barrier = Box::leak(Box::new(Barrier::new(CALLERS)));
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                std::thread::spawn(move || {
                    let _using = using(cores);
                    let me = std::thread::current().id();
                    start.wait();
                    for round in 0..16 {
                        let helper = HELPERS[round % HELPERS.len()];
                        call(helper, 8, MIN_PAR_ELEMS, &|_| {
                            let helper_thread = std::thread::current().id() != me;
                            PEAK.fetch_max(
                                ALIVE.fetch_add(1, Ordering::SeqCst) + 1,
                                Ordering::SeqCst,
                            );
                            if helper_thread {
                                let now = HELPERS_ALIVE.fetch_add(1, Ordering::SeqCst) + 1;
                                HELPERS_PEAK.fetch_max(now, Ordering::SeqCst);
                            }
                            std::thread::yield_now();
                            if helper_thread {
                                HELPERS_ALIVE.fetch_sub(1, Ordering::SeqCst);
                            }
                            ALIVE.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("caller panicked");
        }
        // The module spawns fewer threads than there are cores whatever
        // the callers do; callers are threads it does not own, so kernel
        // threads in total stay under callers + cores, not callers × cores.
        assert!(HELPERS_PEAK.load(Ordering::SeqCst) < CORES);
        assert!(PEAK.load(Ordering::SeqCst) < CALLERS + CORES);
        assert_eq!(cores.spare.load(Ordering::Relaxed), CORES as isize);
    }

    #[test]
    fn limb_iteration_covers_every_chunk() {
        let n = 1 << 12;
        let l = 6;
        let mut data = vec![0u64; l * n];
        for_each_limb_mut(&mut data, n, |i, limb| {
            for (k, x) in limb.iter_mut().enumerate() {
                *x = (i * n + k) as u64;
            }
        });
        assert!(data.iter().enumerate().all(|(k, &x)| x == k as u64));
    }

    #[test]
    fn forced_parallel_matches_serial() {
        let n = 64;
        let l = 5;
        let job = |data: &mut Vec<u64>| {
            for_each_limb_mut(data, n, |i, limb| {
                for (k, x) in limb.iter_mut().enumerate() {
                    *x = x.wrapping_mul(31).wrapping_add((i * 7 + k) as u64);
                }
            });
        };
        let mut serial: Vec<u64> = (0..(l * n) as u64).collect();
        let mut parallel = serial.clone();
        set_forced(Some(false));
        job(&mut serial);
        set_forced(Some(true));
        job(&mut parallel);
        set_forced(None);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn slot_blocks_partition_the_slot_range() {
        let n = 1 << 12;
        let t = 3;
        let mut dst = vec![0u64; t * n];
        let mut limbs: Vec<&mut [u64]> = dst.chunks_exact_mut(n).collect();
        for_each_slot_block(&mut limbs, n, |range, cols| {
            assert_eq!(cols.len(), t);
            for (j, col) in cols.iter_mut().enumerate() {
                for (off, x) in col.iter_mut().enumerate() {
                    *x = (j * n + range.start + off) as u64;
                }
            }
        });
        assert!(dst.iter().enumerate().all(|(k, &x)| x == k as u64));
    }
}
