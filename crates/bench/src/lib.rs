//! # qtp-bench — experiment harness, claims ledger and micro-benchmarks
//!
//! The paper is a short "towards" paper without numbered figures; its
//! evaluation is a set of twelve textual claims. Each claim is reproduced
//! by one experiment here (E1–E12 across [`experiments_a`],
//! [`experiments_b`], [`experiments_c`]; the module docs name the claim
//! each experiment covers) and extended at scale by the many-flow
//! fairness sweep ([`manyflow`], table F1). Run them with:
//!
//! ```text
//! cargo run -p qtp-bench --release --bin expt -- all
//! cargo run -p qtp-bench --release --bin expt -- e2 e5
//! ```
//!
//! The [`ledger`] module turns the full run into the committed claims
//! ledger — `EXPERIMENTS.md` + `experiments.json`, written by `expt
//! --report` — in which every headline number is a typed
//! [`table::Metric`] with a drift [`table::Tolerance`] and every claim is
//! an ordering assertion re-evaluated on each run. `cargo test` (the
//! `behaviour_identity` suite) regenerates both files byte for byte;
//! `expt --check` reports drift against them under the tolerances.
//!
//! Criterion micro-benchmarks (`cargo bench`) price the simulator (a
//! dumbbell's event loop, RIO and drop-tail queues, the token-bucket
//! marker, the Gilbert–Elliott draw), the trace plane (emit with no sink,
//! a null sink and the flight recorder; a counters snapshot) and each
//! congestion controller's feedback step; CI gates their medians against
//! `BENCH_criterion.json`. Per-packet costs over real sockets are
//! measured by qtpperf (`benchmark/`).

#![deny(missing_docs)]

pub mod common;
pub mod controllers;
pub mod experiments_a;
pub mod experiments_b;
pub mod experiments_c;
pub mod hostile;
pub mod json;
pub mod ledger;
pub mod manyflow;
pub mod scenarios;
pub mod table;

use table::Table;

/// All experiment ids in order: the twelve paper claims, the application
/// scenario families over the stream data plane, the hostile-path
/// scenario matrix, then the congestion-controller races.
pub const ALL_IDS: [&str; 23] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "a1", "a2", "a3",
    "h1", "h2", "h3", "h4", "h5", "c1", "c2", "c3",
];

/// Run one experiment by id.
pub fn run_experiment(id: &str) -> Option<Table> {
    match id {
        "e1" => Some(experiments_a::e1()),
        "e2" => Some(experiments_a::e2()),
        "e3" => Some(experiments_a::e3()),
        "e4" => Some(experiments_a::e4()),
        "e5" => Some(experiments_a::e5()),
        "e6" => Some(experiments_b::e6()),
        "e7" => Some(experiments_b::e7()),
        "e8" => Some(experiments_b::e8()),
        "e9" => Some(experiments_b::e9()),
        "e10" => Some(experiments_b::e10()),
        "e11" => Some(experiments_c::e11()),
        "e12" => Some(experiments_c::e12()),
        "a1" => Some(scenarios::a1()),
        "a2" => Some(scenarios::a2()),
        "a3" => Some(scenarios::a3()),
        "h1" => Some(hostile::h1()),
        "h2" => Some(hostile::h2()),
        "h3" => Some(hostile::h3()),
        "h4" => Some(hostile::h4()),
        "h5" => Some(hostile::h5()),
        "c1" => Some(controllers::c1()),
        "c2" => Some(controllers::c2()),
        "c3" => Some(controllers::c3()),
        _ => None,
    }
}
