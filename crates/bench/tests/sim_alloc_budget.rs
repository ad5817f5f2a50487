//! Allocation budget of the simulated packet path, held in tier-1.
//!
//! Allocations are counted by `tests/support/counting_alloc.rs`. The
//! simulator is single-threaded, so a test reads exactly its own
//! allocations.
//!
//! The workload is the `manyflow` mixed-profile dumbbell (`qtpperf`'s
//! `sim_manyflow` at a smaller flow count), run at two backlogs. A flow costs
//! a fixed number of allocations to set up (its sessions and tracers, its
//! scoreboard's ring, its first SACK ranges beyond the inline ones); a
//! datagram costs only what the steady-state path allocates. Headers are
//! lent (the simulator copies them into its packet arena's one header slab,
//! and every adapter on the thread shares one outbox whose buffers come
//! back), queues are threaded through the arena's slots, the scheduler
//! keeps every bucket in one node slab, SACK bookkeeping works in place,
//! and the sender keeps one record per unacknowledged sequence in a ring
//! sized once — so the marginal cost of a datagram is a small fraction of
//! one allocation, and a flow's own cost is held per flow too: its setup
//! allocations and its share of the run's peak live heap. A third run gives
//! every flow a backlog it cannot finish before the horizon, so a per-flow
//! structure sized by the backlog rather than by what is outstanding shows
//! in its peak.
//!
//! When a budget fails, the 30-packet case runs again with every
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

/// Flows in both runs.
const FLOWS: usize = 256;

/// Allocations per extra datagram (0.034 measured).
const MARGINAL: f64 = 0.1;
/// Allocations per datagram at 30 packets per flow, setup included (0.288
/// measured; 0.335 while every flow label was built twice over, 0.781
/// before queues, headers and outboxes stopped allocating per flow).
const WHOLE: f64 = 0.31;
/// Allocations that set one flow up (15.0 measured: the label is built
/// once at its final size and never cloned; 17.2 before that, 41.8 before
/// the per-flow queues and outboxes went).
const SETUP_PER_FLOW: f64 = 15.5;
/// Bytes of the run's peak live heap per flow, the engine's own share
/// included (8 572 measured; 10 212 before).
const PEAK_PER_FLOW: f64 = 9_000.0;
/// The same with a 100 000-packet backlog cut at a 2 s horizon (9 563
/// measured; a ring sized by the backlog would hold 2.4 MB per flow).
const LONG_PEAK_PER_FLOW: f64 = 10_500.0;

/// Doubling every flow's backlog adds datagrams but no flows, so the
/// difference between the two runs prices one more datagram on its own,
/// and what the 30-packet run allocated beyond its datagrams' share is
/// what setting its flows up cost.
#[test]
fn simulated_datagrams_stay_within_their_allocation_budget() {
    let (counts30, dgrams30) = run(FLOWS, 30);
    let (counts60, dgrams60) = run(FLOWS, 60);
    assert!(
        dgrams60 > dgrams30 + 5_000,
        "{dgrams30} vs {dgrams60} datagrams"
    );
    let marginal = (counts60.allocs - counts30.allocs) as f64 / (dgrams60 - dgrams30) as f64;
    let whole = counts30.allocs as f64 / dgrams30 as f64;
    let setup_per_flow = (counts30.allocs as f64 - marginal * dgrams30 as f64) / FLOWS as f64;
    let peak_per_flow = counts30.peak as f64 / FLOWS as f64;
    if marginal > MARGINAL
        || whole > WHOLE
        || setup_per_flow > SETUP_PER_FLOW
        || peak_per_flow > PEAK_PER_FLOW
    {
        sample(SAMPLE_EVERY);
        run_sim(&config(FLOWS, 30));
        panic!(
            "{marginal:.3} allocations per extra datagram (budget {MARGINAL}), {whole:.3} per \
             datagram at 30 packets (budget {WHOLE}), {setup_per_flow:.2} to set a flow up \
             (budget {SETUP_PER_FLOW}), {peak_per_flow:.0} B of peak live heap per flow \
             (budget {PEAK_PER_FLOW}): {counts30} over {dgrams30} datagrams\n{}",
            top_sites()
        );
    }
}

/// A backlog no flow can finish before the horizon costs a flow about what
/// a 30-packet one does: nothing is sized by the backlog itself.
#[test]
fn a_long_backlog_costs_no_more_live_heap_per_flow() {
    let mut cfg = config(FLOWS, 100_000);
    cfg.horizon = std::time::Duration::from_secs(2);
    let before = Counts::now();
    let report = run_sim(&cfg);
    let counts = Counts::now().since(before);
    assert_eq!(report.completed, 0, "no flow sends 100 000 packets in 2 s");
    let peak_per_flow = counts.peak as f64 / FLOWS as f64;
    assert!(
        peak_per_flow <= LONG_PEAK_PER_FLOW,
        "{peak_per_flow:.0} B of peak live heap per flow (budget {LONG_PEAK_PER_FLOW}): {counts}"
    );
}
