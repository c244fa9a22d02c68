//! What the runner reads from the operating system: per-thread CPU time,
//! peak resident memory, and a counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// On-CPU nanoseconds of the calling thread, from
/// `/proc/thread-self/schedstat` (first field, ns resolution).
///
/// The kernel folds the running slice into that counter only when the
/// scheduler runs, so the thread yields first: the read is then exact
/// instead of up to one tick behind.
pub fn thread_cpu_ns() -> u64 {
    std::thread::yield_now();
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable on Linux");
    text.split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU nanoseconds")
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .expect("/proc/self/status carries VmHWM in kB");
    kb / 1024.0
}

thread_local! {
    /// `(allocations, bytes)` requested by this thread so far.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator plus a per-thread tally of allocations and bytes, so
/// "the warm path allocates nothing" is a measured number. Two thread-local
/// additions per allocation; frees are not counted.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller already upholds; the tally touches only a
// `const`-initialised thread-local `Cell`, which never allocates, and
// `try_with` skips it during thread teardown instead of panicking.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

/// `(allocations, bytes)` the calling thread has requested since it started.
pub fn thread_allocs() -> (u64, u64) {
    ALLOCS.with(Cell::get)
}
