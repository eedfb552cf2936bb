//! A counting global allocator: every allocation the process makes goes
//! through [`Counting`], which forwards to the system allocator and keeps
//! running totals.
//!
//! The benchmark drives every workload from one thread, so the counts a
//! [`Scope`] reads are a deterministic function of the inputs and can be
//! compared exactly between runs and commits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`) since start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those calls (`realloc` counts its new size).
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Largest value `LIVE` has reached.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator plus counters. The counters are statistics that
/// publish no other data, so `Relaxed` is enough.
pub struct Counting;

fn grow(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping touches
// only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        p
    }
}

/// Bytes live now.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the bytes live now, and returns them.
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Largest number of bytes live at once since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Allocation calls and bytes requested since [`Scope::start`].
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    allocs: u64,
    bytes: u64,
}

impl Scope {
    /// Starts counting from the current totals.
    pub fn start() -> Self {
        Self { allocs: ALLOCS.load(Ordering::Relaxed), bytes: BYTES.load(Ordering::Relaxed) }
    }

    /// `(allocation calls, bytes requested)` since `start`.
    pub fn read(&self) -> (u64, u64) {
        (ALLOCS.load(Ordering::Relaxed) - self.allocs, BYTES.load(Ordering::Relaxed) - self.bytes)
    }
}
