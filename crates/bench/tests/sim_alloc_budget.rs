//! Allocation budget of the simulated packet path, held in tier-1.
//!
//! An integration test is its own binary, so it can install a counting
//! `#[global_allocator]` without touching the crates under test. Counters are
//! thread-local and the simulator is single-threaded, so a test reads exactly
//! its own allocations.
//!
//! The workload is the `manyflow` mixed-profile dumbbell (`qtpperf`'s
//! `sim_manyflow` at a smaller flow count), run at two backlogs. A flow costs
//! a fixed number of allocations to set up (its sessions, tracer, queues);
//! a datagram costs only what the steady-state path allocates. Headers are
//! lent (the simulator copies them into its packet arena and the adapters
//! give each buffer back to its endpoint), the scheduler keeps every bucket
//! in one node slab, and SACK bookkeeping works in place — so the marginal
//! cost of a datagram is a small fraction of one allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qtp_bench::manyflow::{run_sim, run_sim_traced, ManyFlowConfig};
use qtp_metrics::trace::TraceRegistry;

thread_local! {
    /// Allocations (growths included) requested on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counter is a plain thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down; those calls go uncounted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `layout` is the caller's, passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above,
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A growth is one allocation of the new size, as `qtpperf` counts it.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, datagrams)` of one untraced run at `packets` per flow.
/// Datagrams are every simulated packet an endpoint sent, counted from the
/// endpoints' tracer counters in a separate traced run, as `qtpperf`'s
/// `sim_manyflow` counts them.
fn run(flows: usize, packets: u64) -> (u64, u64) {
    let mut cfg = ManyFlowConfig::new(flows);
    cfg.packets_per_flow = packets;
    let registry = TraceRegistry::new();
    run_sim_traced(&cfg, registry.clone());
    let dgrams = registry
        .connections()
        .iter()
        .map(|(_, _, c)| c.pkts_tx)
        .sum();
    let before = ALLOCS.get();
    let report = run_sim(&cfg);
    let allocs = ALLOCS.get() - before;
    assert_eq!(report.completed, flows, "every flow finishes");
    (allocs, dgrams)
}

/// Doubling every flow's backlog adds datagrams but no flows, so the
/// difference between the two runs prices one more datagram on its own.
#[test]
fn simulated_datagrams_stay_within_their_allocation_budget() {
    let (allocs30, dgrams30) = run(256, 30);
    let (allocs60, dgrams60) = run(256, 60);
    assert!(
        dgrams60 > dgrams30 + 5_000,
        "{dgrams30} vs {dgrams60} datagrams"
    );
    let marginal = (allocs60 - allocs30) as f64 / (dgrams60 - dgrams30) as f64;
    let whole = allocs30 as f64 / dgrams30 as f64;
    assert!(
        marginal <= 0.4,
        "{marginal:.3} allocations per extra datagram"
    );
    assert!(
        whole <= 1.5,
        "{whole:.3} allocations per datagram at 30 packets"
    );
}
