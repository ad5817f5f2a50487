//! Counting global allocator: heap allocations and bytes requested, per
//! thread, so the harness can report allocations per datagram without
//! touching the crates under test.
//!
//! Counters are thread-local: every workload is single-threaded, so the
//! main thread's counts are the process's, and unit tests running on
//! parallel threads cannot disturb each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Wraps the system allocator; installed as `#[global_allocator]` in `main.rs`.
pub struct Counting;

#[inline]
fn note(bytes: usize) {
    // `try_with`: the allocator may be called while a thread's locals are
    // being torn down; those calls go uncounted rather than panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer, so `System`'s guarantees carry over unchanged; the counters are
// plain thread-local integers and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A growth is one allocation of the new size — not an alloc plus a
    /// free — so `Vec` doubling counts once per step.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, as `GlobalAlloc::realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, bytes requested)` made by this thread so far.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// `(allocations, bytes)` made by this thread since `since`.
pub fn delta(since: (u64, u64)) -> (u64, u64) {
    let now = snapshot();
    (now.0 - since.0, now.1 - since.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[test]
    fn counts_allocations_and_bytes() {
        let before = snapshot();
        let v: Vec<u8> = black_box(Vec::with_capacity(1000));
        let b = black_box(Box::new(7u64));
        let (n, bytes) = delta(before);
        assert_eq!(n, 2);
        assert_eq!(bytes, 1008);
        drop((v, b));
        assert_eq!(delta(before).0, 2, "frees are not allocations");
    }

    #[test]
    fn realloc_is_counted_once() {
        let mut v: Vec<u8> = black_box(Vec::with_capacity(16));
        let before = snapshot();
        v.reserve_exact(4096);
        black_box(&v);
        let (n, bytes) = delta(before);
        assert_eq!(n, 1, "one growth step is one allocation");
        assert_eq!(bytes, v.capacity() as u64);
    }
}
