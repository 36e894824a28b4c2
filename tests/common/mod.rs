//! A counting global allocator for the allocation-budget tests.
//!
//! A `#[global_allocator]` is per binary, so each budget is a test
//! binary of its own that installs [`Counting`] and keeps to one test
//! (the window then holds no other thread's allocations).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to [`System`], counting calls while [`count`] runs.
pub struct Counting;

// Statistics only: neither publishes other data, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ON.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded, see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: forwarded, see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: forwarded, see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded, see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) made while
/// `window` runs.
pub fn count(window: impl FnOnce()) -> u64 {
    let before = COUNT.load(Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    window();
    ON.store(false, Ordering::Relaxed);
    COUNT.load(Ordering::Relaxed) - before
}
