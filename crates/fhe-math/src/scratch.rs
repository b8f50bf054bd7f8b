//! Reusable scratch buffers for allocation-free hot paths.
//!
//! The MAD paper's central observation is that FHE kernels are bound by
//! data movement, not arithmetic; churning the allocator on every `ModUp`/
//! `ModDown`/key-switch both costs time and wrecks locality. A
//! [`ScratchPool`] is a small free-list of `Vec<u64>` buffers: kernels
//! `take` a buffer sized for their working set and `recycle` it when done,
//! so after a warm-up pass the steady state performs **zero heap
//! allocations per operation** (asserted by `ckks`'s scratch-stats test).
//!
//! A lease has **unspecified contents**: a recycled buffer comes back
//! holding whatever its last user left in it (stale but initialized words;
//! only a grown tail or a fresh allocation is zero). Every kernel that
//! leases a buffer overwrites all of it, so zero-filling first would write
//! each byte twice; the two callers that do read zeros —
//! [`crate::poly::RnsPoly::zero_pooled`] and the `B'` tail of
//! [`crate::poly::pmod_up_with`] — fill them in themselves.
//!
//! The pool is internally synchronized (a `Mutex` around the free list) so
//! it can be shared behind `Arc<CkksContext>`; the lock is held only for
//! the push/pop, never across kernel work.
//!
//! Callers may recycle buffers they did not take (heap clones, operands
//! decoded off the wire). Such a buffer is admitted only **in place of a
//! lease that has not come back**: the pool holds what its kernels have
//! needed at once, and returning more than was taken swaps a larger
//! buffer in for a smaller one but never lengthens the list — a server
//! recycling every request's operands would otherwise fill it to
//! `MAX_FREE` with buffers no lease is waiting for. Leases that never
//! return (outputs the caller keeps) leave room that later foreign
//! buffers fill, which `MAX_FREE` bounds, along with the linear scan under
//! the lock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most buffers the free list retains; a recycle beyond it drops the
/// smallest buffer. Sized for two or three concurrent key switches (each
/// holds about a dozen buffers at its peak). A server that returns every
/// request's buffers sits at this bound for good — 13 MB at N = 2^13,
/// L = 6 — and twice it bought nothing measured: `miss_share` read 0.0015
/// on the keyed serving workload and 0.1247 on the library programs at
/// both 32 and 64.
const MAX_FREE: usize = 32;

/// Counters describing pool behavior since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Total number of buffers handed out.
    pub leases: u64,
    /// Leases that had to allocate because no pooled buffer was large
    /// enough. A warmed-up hot path keeps this constant.
    pub misses: u64,
    /// Buffers currently sitting in the free list.
    pub free: usize,
    /// Bytes the free list holds: its buffers' capacity, which can be
    /// several times the length they were last leased at.
    pub free_bytes: u64,
}

#[derive(Debug, Default)]
struct FreeList {
    bufs: Vec<Vec<u64>>,
    /// Leases handed out and not yet matched by a recycle.
    out: usize,
}

/// A free-list of `u64` buffers shared by the polynomial kernels.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<FreeList>,
    leases: AtomicU64,
    misses: AtomicU64,
}

impl ScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer of exactly `len` words with **unspecified contents**
    /// (see the module docs), reusing the smallest pooled allocation that
    /// is large enough — a small lease must not walk off with a
    /// raised-basis buffer the next large lease would then have to
    /// allocate again.
    pub fn take_vec(&self, len: usize) -> Vec<u64> {
        self.leases.fetch_add(1, Ordering::Relaxed);
        let reused = {
            let mut free = self.free.lock().expect("scratch pool poisoned");
            free.out += 1;
            let best = free
                .bufs
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(idx, _)| idx);
            best.map(|idx| free.bufs.swap_remove(idx))
        };
        match reused {
            Some(mut buf) => {
                // Truncates, or writes only the missing tail: whatever
                // prefix the buffer holds stays as it is.
                buf.resize(len, 0);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                vec![0u64; len]
            }
        }
    }

    /// Returns a buffer to the pool for reuse. The contents are discarded.
    /// The list grows only while a lease is still out and it holds fewer
    /// than `MAX_FREE` buffers; otherwise it keeps its largest buffers (a
    /// larger buffer serves any smaller request) and drops the surplus one.
    pub fn recycle_vec(&self, buf: Vec<u64>) {
        if buf.capacity() == 0 {
            return;
        }
        let surplus = {
            let mut free = self.free.lock().expect("scratch pool poisoned");
            let owed = free.out > 0;
            free.out = free.out.saturating_sub(1);
            if owed && free.bufs.len() < MAX_FREE {
                free.bufs.push(buf);
                return;
            }
            match free.bufs.iter_mut().min_by_key(|b| b.capacity()) {
                Some(smallest) if smallest.capacity() < buf.capacity() => {
                    std::mem::replace(smallest, buf)
                }
                _ => buf,
            }
        };
        // Freed outside the lock.
        drop(surplus);
    }

    /// [`ScratchPool::take_vec`] as a guard that hands the buffer back to
    /// the pool on drop.
    pub fn take(&self, len: usize) -> ScratchGuard<'_> {
        ScratchGuard {
            pool: self,
            buf: self.take_vec(len),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ScratchStats {
        let free = self.free.lock().expect("scratch pool poisoned");
        ScratchStats {
            leases: self.leases.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            free: free.bufs.len(),
            free_bytes: free.bufs.iter().map(|b| 8 * b.capacity() as u64).sum(),
        }
    }
}

/// RAII lease of a pool buffer; derefs to `[u64]`.
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    pool: &'a ScratchPool,
    buf: Vec<u64>,
}

impl std::ops::Deref for ScratchGuard<'_> {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        &self.buf
    }
}

impl std::ops::DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut [u64] {
        &mut self.buf
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        self.pool.recycle_vec(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_avoids_reallocation() {
        let pool = ScratchPool::new();
        let a = pool.take_vec(1024);
        let ptr = a.as_ptr();
        pool.recycle_vec(a);
        let b = pool.take_vec(512);
        assert_eq!(b.as_ptr(), ptr, "smaller request should reuse the buffer");
        pool.recycle_vec(b);
        let stats = pool.stats();
        assert_eq!(stats.leases, 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.free, 1);
        // The free list holds the allocation's capacity, not the last
        // lease's length.
        assert_eq!(stats.free_bytes, 8 * 1024);
    }

    #[test]
    fn recycled_buffers_are_not_zeroed_and_have_the_requested_length() {
        let pool = ScratchPool::new();
        let mut a = pool.take_vec(16);
        a.fill(u64::MAX);
        pool.recycle_vec(a);
        // Equal, shorter and (within capacity) longer leases of the same
        // allocation: the stale prefix survives, only a grown tail is new.
        for len in [16usize, 5] {
            let b = pool.take_vec(len);
            assert_eq!(b.len(), len);
            assert!(b.iter().all(|&x| x == u64::MAX), "len {len} was rewritten");
            pool.recycle_vec(b);
        }
        let mut c = pool.take_vec(5);
        c.reserve_exact(27);
        pool.recycle_vec(c);
        let d = pool.take_vec(32);
        assert_eq!(d.len(), 32);
        assert!(d[..5].iter().all(|&x| x == u64::MAX));
        assert!(d[5..].iter().all(|&x| x == 0));
        assert_eq!(
            pool.stats().misses,
            1,
            "all four leases reused one allocation"
        );
    }

    #[test]
    fn the_smallest_sufficient_buffer_is_taken() {
        let pool = ScratchPool::new();
        let big = pool.take_vec(4096);
        let small = pool.take_vec(64);
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        // Big first, so a first-fit scan would hand it to the small lease.
        pool.recycle_vec(big);
        pool.recycle_vec(small);
        let s = pool.take_vec(48);
        assert_eq!(s.as_ptr(), small_ptr);
        let b = pool.take_vec(4000);
        assert_eq!(b.as_ptr(), big_ptr);
        assert_eq!(pool.stats().misses, 2, "neither re-lease allocated");
    }

    #[test]
    fn guard_returns_buffer_on_drop() {
        let pool = ScratchPool::new();
        {
            let mut g = pool.take(64);
            g[0] = 7;
            assert_eq!(g.len(), 64);
        }
        assert_eq!(pool.stats().free, 1);
        let g2 = pool.take(64);
        assert_eq!(pool.stats().misses, 1, "second take reuses the buffer");
        drop(g2);
    }

    #[test]
    fn free_list_is_bounded_and_keeps_the_largest() {
        let pool = ScratchPool::new();
        // Leases that never come back leave room for foreign buffers.
        for _ in 0..2 * MAX_FREE {
            drop(pool.take_vec(1));
        }
        for len in 1..=2 * MAX_FREE {
            pool.recycle_vec(vec![0u64; len]);
        }
        assert_eq!(pool.stats().free, MAX_FREE);
        // The survivors are the larger half, so the largest request hits.
        let misses = pool.stats().misses;
        let big = pool.take_vec(2 * MAX_FREE);
        assert_eq!(pool.stats().misses, misses);
        pool.recycle_vec(big);
    }

    #[test]
    fn returning_more_than_was_taken_does_not_grow_the_list() {
        let pool = ScratchPool::new();
        let (a, b) = (pool.take_vec(64), pool.take_vec(64));
        // A buffer the pool never leased stands in for one that is out.
        pool.recycle_vec(vec![0u64; 32]);
        pool.recycle_vec(a);
        assert_eq!(pool.stats().free, 2);
        // Both leases are now accounted for: the third return can only
        // displace the smallest buffer, not add to the list.
        pool.recycle_vec(b);
        assert_eq!(pool.stats().free, 2);
        let _again = (pool.take_vec(64), pool.take_vec(64));
        assert_eq!(
            pool.stats().misses,
            2,
            "the 32-word stand-in was the one dropped"
        );
    }

    #[test]
    fn oversized_requests_allocate_fresh() {
        let pool = ScratchPool::new();
        let a = pool.take_vec(8);
        pool.recycle_vec(a);
        let b = pool.take_vec(4096);
        assert_eq!(pool.stats().misses, 2);
        pool.recycle_vec(b);
    }
}
