//! A counting global allocator.
//!
//! Every allocation (including `alloc_zeroed` and `realloc`) bumps a
//! process-wide counter and a per-thread counter. The process-wide count
//! covers multi-threaded units (the sweep's worker pool); the per-thread
//! count attributes allocations to the calls that made them (the network
//! probe) and keeps tests independent of the harness's other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus allocation counters.
#[derive(Debug)]
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A statistic that publishes no other data, so `Relaxed` suffices.
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` never fails for a const-initialised `Cell` (it has no
    // destructor), but the allocator must not panic on any path.
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are ours; counting touches only an
// atomic and a const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by every thread of the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_a_known_number_of_allocations() {
        let before = thread_allocations();
        let v: Vec<u64> = black_box(Vec::with_capacity(16));
        let b = black_box(Box::new(7u32));
        assert_eq!(thread_allocations() - before, 2, "one Vec buffer, one Box");
        drop((v, b));

        let before = thread_allocations();
        let mut grow: Vec<u8> = Vec::with_capacity(1);
        grow.extend_from_slice(black_box(&[0u8; 64]));
        assert_eq!(
            thread_allocations() - before,
            2,
            "allocation plus one realloc"
        );
        assert!(allocations() >= thread_allocations());
    }

    #[test]
    fn zero_sized_and_empty_values_do_not_allocate() {
        let before = thread_allocations();
        let v: Vec<u64> = black_box(Vec::new());
        let s = black_box(String::new());
        assert_eq!(thread_allocations() - before, 0);
        drop((v, s));
    }
}
