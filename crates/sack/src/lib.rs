//! # qtp-sack — selective acknowledgment substrate (RFC 2018 semantics)
//!
//! The second mechanism the paper composes: SACK provides the reliability
//! half of the versatile transport, and — re-purposed as lightweight
//! feedback — the information a QTPlight **sender** needs to estimate the
//! loss event rate itself (paper §3).
//!
//! * [`ranges::RangeSet`] — sorted/disjoint/coalesced sequence ranges, the
//!   data structure under everything here;
//! * [`reassembly::ReceiverBuffer`] — receiver state: cumulative ack,
//!   out-of-order buffer, RFC 2018 block generation (most recent first,
//!   bounded count), FWD handling for partial reliability;
//! * [`scoreboard::Scoreboard`] — sender state: SACK bookkeeping, DupThresh
//!   loss declaration with original send timestamps, and one record per
//!   unacknowledged sequence (send time, retransmission count, ADU time);
//! * [`reliability::ReliabilityPolicy`] — the negotiable service levels:
//!   `None`, `Full`, `Ttl`, `Budget` deciding
//!   retransmit-vs-abandon per lost sequence.
//!
//! Everything is sans-io and metered (see [`qtp_metrics`]): the receiver
//! buffer's meter *is* the QTPlight receiver's entire per-packet cost.

pub mod ranges;
pub mod reassembly;
pub mod reliability;
pub mod scoreboard;

pub use ranges::{RangeSet, SeqRange};
pub use reassembly::{Arrival, ReceiverBuffer, MAX_SACK_BLOCKS};
pub use reliability::{LossDecision, Reliability, ReliabilityPolicy};
pub use scoreboard::{Scoreboard, DUP_THRESH};
