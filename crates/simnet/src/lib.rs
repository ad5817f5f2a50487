//! # qtp-simnet — deterministic packet-network simulator
//!
//! The experimental substrate for the QTP transport reproduction: a
//! discrete-event, packet-level network simulator in the spirit of ns-2,
//! but deterministic by construction (same seed ⇒ bit-identical run) and
//! sans-io (protocol agents are plain state machines driven by the event
//! loop; they never touch clocks or sockets).
//!
//! ## What it models
//!
//! * **Links** with serialization rate, propagation delay, an egress queue
//!   and an in-flight loss process.
//! * **Queues**: drop-tail and RIO (RED In/Out) — the DiffServ
//!   Assured-Forwarding core queue.
//! * **Marker**: the two-color token-bucket edge traffic conditioner that
//!   feeds RIO its in/out profile.
//! * **Loss models**: Bernoulli and Gilbert–Elliott (bursty wireless).
//! * **Path models**: bounded reordering and duplication on a link.
//! * **Agents**: anything implementing [`sim::Agent`] — the QTP/TFRC/TCP
//!   endpoints live in sibling crates; a CBR source and a counting sink
//!   ship here.
//! * **Measurement**: per-flow counters and throughput series, per-link
//!   drop breakdowns by cause and DiffServ color, fairness and smoothness
//!   summary statistics. The simulator has no packet-level trace hooks:
//!   event streams come from the endpoints, through `qtp-metrics`.
//!
//! ## Quick example
//!
//! ```
//! use std::time::Duration;
//! use qtp_simnet::prelude::*;
//!
//! let mut b = NetworkBuilder::new();
//! let tx = b.host();
//! let rx = b.host();
//! b.duplex_link(tx, rx, LinkConfig::new(Rate::from_mbps(10), Duration::from_millis(5)));
//! let mut sim = b.build(42);
//! let flow = sim.register_flow();
//! sim.attach_agent(tx, Box::new(CbrSource::new(flow, rx, 1250, Rate::from_mbps(2))));
//! sim.attach_agent(rx, Box::new(Sink));
//! sim.run_until(SimTime::from_secs(10));
//! let got = sim.stats().flow(flow).throughput_bps(Duration::from_secs(10));
//! assert!((got - 2e6).abs() < 2e4);
//! ```

pub mod agents;
pub mod arena;
pub mod calendar;
#[cfg(test)]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
pub mod link;
pub mod loss;
pub mod marker;
pub mod packet;
pub mod path;
pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod topology;

/// One-stop imports for simulation drivers.
pub mod prelude {
    pub use crate::agents::{CbrSource, Sink};
    pub use crate::arena::{PacketArena, PacketId};
    pub use crate::calendar::CalendarQueue;
    pub use crate::link::LinkConfig;
    pub use crate::loss::LossModel;
    pub use crate::marker::TokenBucketMarker;
    pub use crate::packet::{Color, FlowId, LinkId, NodeId, Packet};
    pub use crate::path::{PathModel, ReorderSpec};
    pub use crate::queue::{DropReason, QueueConfig, RedParams, RioParams};
    pub use crate::rng::DetRng;
    pub use crate::sim::{Agent, Ctx, NetworkBuilder, Simulator};
    pub use crate::stats::{cov, jain_index, mean, std_dev, Stats};
    pub use crate::time::{Rate, SimTime};
    pub use crate::topology::{
        Dumbbell, DumbbellConfig, Handover, HandoverConfig, LongFatPipe, LongFatPipeConfig,
    };
}
