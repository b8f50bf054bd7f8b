//! Limb-level parallelism over flat limb-major buffers.
//!
//! RNS limbs are mutually independent in every limb-wise kernel (NTT,
//! pointwise arithmetic, automorphisms — Table 3 of the paper), so a flat
//! `[u64; ℓ·N]` buffer splits into disjoint `&mut [u64]` limb chunks that
//! scoped threads can process without synchronization. Each helper here has
//! a serial fallback compiled when the `parallel` feature is off, and the
//! parallel path partitions work identically to the serial loop — the two
//! builds are **bit-identical** by construction (verified by the
//! `parallel_identity` tests).
//!
//! Work below [`MIN_PAR_ELEMS`] total elements runs serially even with the
//! feature on: thread spin-up dwarfs the kernel at test-sized rings.

/// Minimum total element count before threads are spawned.
pub const MIN_PAR_ELEMS: usize = 1 << 14;

#[cfg(feature = "parallel")]
mod force {
    use std::sync::atomic::{AtomicU8, Ordering};

    /// 0 = auto (threshold-based), 1 = always parallel, 2 = always serial.
    static FORCE: AtomicU8 = AtomicU8::new(0);

    pub(super) fn mode() -> u8 {
        FORCE.load(Ordering::Relaxed)
    }

    /// Overrides the parallel/serial decision; `None` restores the
    /// threshold heuristic. Exposed for the bit-identity tests and the
    /// serial-vs-parallel benches, which need both code paths inside one
    /// binary.
    pub fn set_forced(forced: Option<bool>) {
        let v = match forced {
            None => 0,
            Some(true) => 1,
            Some(false) => 2,
        };
        FORCE.store(v, Ordering::Relaxed);
    }
}

#[cfg(feature = "parallel")]
pub use force::set_forced;

/// Whether the `parallel` feature is compiled in.
pub const fn compiled() -> bool {
    cfg!(feature = "parallel")
}

#[cfg(feature = "parallel")]
fn worker_count(jobs: usize, total_elems: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    match force::mode() {
        // Forced parallel must actually split the work — even on a
        // single-core host — so the bit-identity tests exercise the
        // threaded partition rather than silently falling back to the
        // serial loop.
        1 => return hw.min(jobs).max(4),
        2 => return 1,
        _ => {
            if total_elems < MIN_PAR_ELEMS {
                return 1;
            }
        }
    }
    hw.min(jobs).max(1)
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
    #[cfg(feature = "parallel")]
    {
        let l = data.len() / n;
        let workers = worker_count(l, data.len());
        if workers > 1 {
            std::thread::scope(|scope| {
                let base = l / workers;
                let extra = l % workers;
                let mut rest = data;
                let mut start = 0usize;
                for w in 0..workers {
                    let take = base + usize::from(w < extra);
                    let (head, tail) = rest.split_at_mut(take * n);
                    rest = tail;
                    let f = &f;
                    scope.spawn(move || {
                        for (j, limb) in head.chunks_exact_mut(n).enumerate() {
                            f(start + j, limb);
                        }
                    });
                    start += take;
                }
            });
            return;
        }
    }
    for (i, limb) in data.chunks_exact_mut(n).enumerate() {
        f(i, limb);
    }
}

/// Runs `f(limb_index, dst_limb, src_limb)` over paired limbs of two flat
/// buffers of equal shape (the elementwise add/sub/mul kernels).
pub fn for_each_limb_pair_mut<F>(dst: &mut [u64], src: &[u64], n: usize, f: F)
where
    F: Fn(usize, &mut [u64], &[u64]) + Sync,
{
    debug_assert_eq!(dst.len(), src.len());
    debug_assert_eq!(dst.len() % n, 0);
    #[cfg(feature = "parallel")]
    {
        let l = dst.len() / n;
        let workers = worker_count(l, dst.len());
        if workers > 1 {
            std::thread::scope(|scope| {
                let base = l / workers;
                let extra = l % workers;
                let mut d_rest = dst;
                let mut s_rest = src;
                let mut start = 0usize;
                for w in 0..workers {
                    let take = base + usize::from(w < extra);
                    let (d_head, d_tail) = d_rest.split_at_mut(take * n);
                    let (s_head, s_tail) = s_rest.split_at(take * n);
                    d_rest = d_tail;
                    s_rest = s_tail;
                    let f = &f;
                    scope.spawn(move || {
                        for (j, (d, s)) in d_head
                            .chunks_exact_mut(n)
                            .zip(s_head.chunks_exact(n))
                            .enumerate()
                        {
                            f(start + j, d, s);
                        }
                    });
                    start += take;
                }
            });
            return;
        }
    }
    for (i, (d, s)) in dst.chunks_exact_mut(n).zip(src.chunks_exact(n)).enumerate() {
        f(i, d, s);
    }
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
    #[cfg(feature = "parallel")]
    {
        let l = a.len() / n;
        // Each job runs two limb kernels' worth of work.
        let workers = worker_count(l, a.len().saturating_mul(2));
        if workers > 1 {
            std::thread::scope(|scope| {
                let base = l / workers;
                let extra = l % workers;
                let mut a_rest = a;
                let mut b_rest = b;
                let mut start = 0usize;
                for w in 0..workers {
                    let take = base + usize::from(w < extra);
                    let (a_head, a_tail) = a_rest.split_at_mut(take * n);
                    let (b_head, b_tail) = b_rest.split_at_mut(take * n);
                    a_rest = a_tail;
                    b_rest = b_tail;
                    let f = &f;
                    scope.spawn(move || {
                        for (j, (da, db)) in a_head
                            .chunks_exact_mut(n)
                            .zip(b_head.chunks_exact_mut(n))
                            .enumerate()
                        {
                            f(start + j, da, db);
                        }
                    });
                    start += take;
                }
            });
            return;
        }
    }
    for (i, (da, db)) in a.chunks_exact_mut(n).zip(b.chunks_exact_mut(n)).enumerate() {
        f(i, da, db);
    }
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
    #[cfg(feature = "parallel")]
    {
        let t = cols.len();
        // Cost scales with slots × (source + target) limbs; use the total
        // target length as a proxy.
        let workers = worker_count(n.div_ceil(1024), t * n);
        if workers > 1 {
            let block = n.div_ceil(workers);
            let blocks = n.div_ceil(block);
            // Carve each target limb into per-block column windows.
            let mut per_block: Vec<Vec<&mut [u64]>> =
                (0..blocks).map(|_| Vec::with_capacity(t)).collect();
            for limb in cols.iter_mut() {
                let mut rest = &mut **limb;
                for windows in per_block.iter_mut() {
                    let take = block.min(rest.len());
                    let (head, tail) = rest.split_at_mut(take);
                    rest = tail;
                    windows.push(head);
                }
            }
            std::thread::scope(|scope| {
                for (b, mut windows) in per_block.into_iter().enumerate() {
                    let f = &f;
                    let lo = b * block;
                    let hi = ((b + 1) * block).min(n);
                    scope.spawn(move || f(lo..hi, &mut windows));
                }
            });
            return;
        }
    }
    f(0..n, cols);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[cfg(feature = "parallel")]
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

    #[test]
    fn paired_iteration_lines_up() {
        let n = 32;
        let src: Vec<u64> = (0..(4 * n) as u64).collect();
        let mut dst = vec![0u64; 4 * n];
        for_each_limb_pair_mut(&mut dst, &src, n, |i, d, s| {
            for (x, &y) in d.iter_mut().zip(s) {
                *x = y + i as u64;
            }
        });
        for i in 0..4 {
            for k in 0..n {
                assert_eq!(dst[i * n + k], (i * n + k) as u64 + i as u64);
            }
        }
    }
}
