//! Allocation budget of the simulated packet path, held in tier-1.
//!
//! Allocations are counted by `tests/support/counting_alloc.rs`. The
//! simulator is single-threaded, so a test reads exactly its own
//! allocations.
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
//! When the budget fails, the 30-packet case runs again with every
//! [`SAMPLE_EVERY`]th allocation's backtrace captured, and the failure
//! message names the busiest call sites under `crates/`.

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{sample, top_sites, Counts};
use qtp_bench::manyflow::{run_sim, run_sim_traced, ManyFlowConfig};
use qtp_metrics::trace::TraceRegistry;

/// One allocation in this many is sampled while diagnosing a failure.
const SAMPLE_EVERY: u64 = 16;

fn config(flows: usize, packets: u64) -> ManyFlowConfig {
    let mut cfg = ManyFlowConfig::new(flows);
    cfg.packets_per_flow = packets;
    cfg
}

/// What one untraced run at `packets` per flow counted, and its datagrams.
/// Datagrams are every simulated packet an endpoint sent, counted from the
/// endpoints' tracer counters in a separate traced run, as `qtpperf`'s
/// `sim_manyflow` counts them.
fn run(flows: usize, packets: u64) -> (Counts, u64) {
    let cfg = config(flows, packets);
    let registry = TraceRegistry::new();
    run_sim_traced(&cfg, registry.clone());
    let dgrams = registry
        .connections()
        .iter()
        .map(|(_, _, c)| c.pkts_tx)
        .sum();
    let before = Counts::now();
    let report = run_sim(&cfg);
    let counts = Counts::now().since(before);
    assert_eq!(report.completed, flows, "every flow finishes");
    (counts, dgrams)
}

/// Doubling every flow's backlog adds datagrams but no flows, so the
/// difference between the two runs prices one more datagram on its own.
#[test]
fn simulated_datagrams_stay_within_their_allocation_budget() {
    let (counts30, dgrams30) = run(256, 30);
    let (counts60, dgrams60) = run(256, 60);
    assert!(
        dgrams60 > dgrams30 + 5_000,
        "{dgrams30} vs {dgrams60} datagrams"
    );
    let marginal = (counts60.allocs - counts30.allocs) as f64 / (dgrams60 - dgrams30) as f64;
    let whole = counts30.allocs as f64 / dgrams30 as f64;
    if marginal > 0.1 || whole > 0.9 {
        sample(SAMPLE_EVERY);
        run_sim(&config(256, 30));
        panic!(
            "{marginal:.3} allocations per extra datagram (budget 0.1), {whole:.3} per \
             datagram at 30 packets (budget 0.9): {counts30} over {dgrams30} datagrams\n{}",
            top_sites()
        );
    }
}
