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
//! in one node slab, SACK bookkeeping works in place, the sender keeps one
//! record per unacknowledged sequence in a ring, and arena slots are sized
//! once — so the marginal cost of a datagram is a small fraction of one
//! allocation.
//!
//! When the budget fails, the 30-packet case runs again with the allocator
//! capturing a backtrace of every [`SAMPLE_EVERY`]th allocation, and the
//! failure message names the busiest call sites under `crates/`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::backtrace::Backtrace;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use qtp_bench::manyflow::{run_sim, run_sim_traced, ManyFlowConfig};
use qtp_metrics::trace::TraceRegistry;

/// One allocation in this many is sampled while diagnosing a failure.
const SAMPLE_EVERY: u64 = 16;

thread_local! {
    /// Allocations (growths included) requested on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Whether allocations are being sampled (only on the failure path).
    static SAMPLE: Cell<bool> = const { Cell::new(false) };
    /// Set while a sample is taken, so the sampler's own allocations are
    /// neither counted nor sampled.
    static IN_SAMPLER: Cell<bool> = const { Cell::new(false) };
    /// Backtraces of the sampled allocations, unresolved.
    static SAMPLES: RefCell<Vec<Backtrace>> = const { RefCell::new(Vec::new()) };
}

/// Count one allocation and, when sampling, capture every
/// `SAMPLE_EVERY`th one's backtrace.
fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down; those calls go uncounted.
    if IN_SAMPLER.try_with(Cell::get).unwrap_or(true) {
        return;
    }
    let Ok(n) = ALLOCS.try_with(|c| {
        c.set(c.get() + 1);
        c.get()
    }) else {
        return;
    };
    if n % SAMPLE_EVERY != 0 || !SAMPLE.try_with(Cell::get).unwrap_or(false) {
        return;
    }
    IN_SAMPLER.set(true);
    let trace = Backtrace::force_capture();
    SAMPLES.with_borrow_mut(|s| s.push(trace));
    IN_SAMPLER.set(false);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own layout and
// pointer; the counters are plain thread-locals, and the sampler's own
// allocations re-enter `count` only to return at its guard.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
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
        count();
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn config(flows: usize, packets: u64) -> ManyFlowConfig {
    let mut cfg = ManyFlowConfig::new(flows);
    cfg.packets_per_flow = packets;
    cfg
}

/// `(allocations, datagrams)` of one untraced run at `packets` per flow.
/// Datagrams are every simulated packet an endpoint sent, counted from the
/// endpoints' tracer counters in a separate traced run, as `qtpperf`'s
/// `sim_manyflow` counts them.
fn run(flows: usize, packets: u64) -> (u64, u64) {
    let cfg = config(flows, packets);
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

/// The ten call sites under `crates/` that made the most sampled
/// allocations in one untraced run, one line each: estimated allocations,
/// `file:line:column` and function. A site is the innermost frame of the
/// workspace outside this test, so a `Vec` growth is charged to whoever
/// pushed.
fn top_sites(flows: usize, packets: u64) -> String {
    SAMPLE.set(true);
    run_sim(&config(flows, packets));
    SAMPLE.set(false);
    let samples = SAMPLES.take();
    let mut sites: HashMap<String, u64> = HashMap::new();
    for trace in &samples {
        let text = trace.to_string();
        let mut function = "?";
        let site = text.lines().map(str::trim).find_map(|line| {
            let Some(at) = line.strip_prefix("at ") else {
                // `N: path::to::fn`, or an inlined frame's bare `path::to::fn`.
                function = line.split_once(": ").map_or(line, |(_, f)| f);
                return None;
            };
            // This crate's own files are named relative to its directory.
            let file = match (at.find("crates/"), at.strip_prefix("./")) {
                (Some(i), _) => at[i..].to_string(),
                (None, own) => format!("crates/bench/{}", own?),
            };
            (!file.starts_with("crates/bench/tests/")).then(|| format!("{file} {function}"))
        });
        let site = site.unwrap_or_else(|| "(outside crates/)".into());
        *sites.entry(site).or_default() += 1;
    }
    let mut sites: Vec<(String, u64)> = sites.into_iter().collect();
    sites.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let mut report = format!(
        "{} allocations sampled (one in {SAMPLE_EVERY}) at {flows} flows x {packets} packets; \
         top sites:\n",
        samples.len()
    );
    for (site, n) in sites.iter().take(10) {
        report += &format!("  ~{:>6}  {site}\n", n * SAMPLE_EVERY);
    }
    report
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
    if marginal > 0.1 || whole > 0.9 {
        panic!(
            "{marginal:.3} allocations per extra datagram (budget 0.1), {whole:.3} per \
             datagram at 30 packets (budget 0.9)\n{}",
            top_sites(256, 30)
        );
    }
}
