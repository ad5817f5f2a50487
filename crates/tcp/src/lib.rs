//! # qtp-tcp — TCP NewReno / SACK baseline
//!
//! The comparator every claim in the paper's §4 is measured against: a
//! packet-granularity TCP (as in the ns-2 models used by the cited AF
//! studies) implemented as [`qtp_simnet`] agents.
//!
//! * [`sender::TcpSender`] — slow start, congestion avoidance, fast
//!   retransmit, NewReno fast recovery (RFC 6582) or SACK pipe recovery
//!   (RFC 6675), RFC 6298 timeouts.
//! * [`receiver::TcpReceiver`] — reassembly + immediate acks with optional
//!   SACK blocks (RFC 2018), goodput accounting.
//! * [`wire`] — explicit byte-level segment headers.
//! * [`rto`] — the RFC 6298 estimator.
//!
//! The connection handshake is not modeled (transfers start in slow start
//! with `initial_cwnd`), matching the simulation setups of Seddigh et al.
//! and the gTFRC studies this repository reproduces.

pub mod receiver;
pub mod rto;
pub mod sender;
pub mod wire;

pub use receiver::TcpReceiver;
pub use rto::{RtoEstimator, MAX_RTO, MIN_RTO};
pub use sender::{TcpConfig, TcpFlavor, TcpSender};
pub use wire::{TcpHeader, TcpKind, WireError};

use qtp_simnet::prelude::*;

/// Attach one greedy TCP connection to a simulated topology: registers
/// its data flow and its ack flow, then mounts a
/// [`TcpSender`] at `sender_node` and a [`TcpReceiver`] (SACK blocks iff
/// `flavor` is [`TcpFlavor::Sack`], 1000-byte segments) at
/// `receiver_node`. Returns the data flow.
pub fn attach_tcp(
    sim: &mut Simulator,
    sender_node: NodeId,
    receiver_node: NodeId,
    flavor: TcpFlavor,
) -> FlowId {
    let data = sim.register_flow();
    let ack = sim.register_flow();
    let sender = TcpSender::new(data, receiver_node, TcpConfig::new(flavor));
    sim.attach_agent(sender_node, Box::new(sender));
    let sack = flavor == TcpFlavor::Sack;
    let receiver = TcpReceiver::new(data, ack, sender_node, sack, 1000);
    sim.attach_agent(receiver_node, Box::new(receiver));
    data
}
