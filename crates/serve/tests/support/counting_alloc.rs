//! A counting global allocator, for the test binaries that assert on what
//! a path commits to memory: how many ciphertext-sized buffers one served
//! request allocates, how large a buffer a length prefix can make a
//! connection reserve, how many bytes a program run holds at its peak.
//! Included with `#[path]` by each such binary (a test binary has exactly
//! one global allocator, so they cannot share one).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations of at least this many bytes count as large. Every buffer
/// that holds a polynomial, a ciphertext or a frame of the rings these
/// tests serve is; bookkeeping (channels, strings, trace records) is not.
pub const LARGE: usize = 64 << 10;

static LARGE_ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static HIGH_WATER: AtomicUsize = AtomicUsize::new(0);

/// Notes a request for a block of `size` bytes, `grown` of them new (all
/// of a fresh allocation, the added tail of a growing reallocation).
fn note(size: usize, grown: usize) {
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Relaxed);
    }
    LARGEST.fetch_max(size, Relaxed);
    let live = LIVE.fetch_add(grown, Relaxed) + grown;
    HIGH_WATER.fetch_max(live, Relaxed);
}

/// The system allocator, with every request's size noted first.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the counters are plain
// atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: the caller's `layout` obligations pass through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` and `layout` are the caller's, from this allocator,
        // which only ever handed out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Growing a buffer commits memory like a fresh allocation does.
        if new_size > layout.size() {
            note(new_size, new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Starts a measurement window: the counters back to zero and the
/// high-water mark down to what is live now.
pub fn reset() {
    LARGE_ALLOCATIONS.store(0, Relaxed);
    LARGEST.store(0, Relaxed);
    HIGH_WATER.store(LIVE.load(Relaxed), Relaxed);
}

/// Allocations (and growing reallocations) of at least [`LARGE`] bytes
/// since the last [`reset`], on any thread.
#[allow(dead_code)]
pub fn large_allocations() -> usize {
    LARGE_ALLOCATIONS.load(Relaxed)
}

/// The largest single request since the last [`reset`], on any thread.
#[allow(dead_code)]
pub fn largest() -> usize {
    LARGEST.load(Relaxed)
}

/// Bytes allocated and not yet freed, on every thread.
#[allow(dead_code)]
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// The most bytes live at once since the last [`reset`].
#[allow(dead_code)]
pub fn high_water() -> usize {
    HIGH_WATER.load(Relaxed)
}
