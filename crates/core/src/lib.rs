//! # qtp-core — the versatile transport protocol
//!
//! Reproduction of the system proposed in *"Towards a Versatile Transport
//! Protocol"* (Jourjon, Lochin, Sénac — CoNEXT 2006): a reconfigurable
//! transport built by **composing and specialising** TFRC congestion
//! control (RFC 3448) and selective acknowledgments (RFC 2018), with three
//! negotiable service axes:
//!
//! 1. **reliability** — none / full / partial (TTL or retransmission
//!    budget), enforced at the sender with `FWD` fast-forward messages;
//! 2. **receiver processing** — standard receiver-side loss estimation, or
//!    the **QTPlight** sender-side variant for resource-limited receivers;
//! 3. **QoS awareness** — plain TFRC or **gTFRC** (`X = max(g, X_tfrc)`)
//!    for DiffServ Assured Forwarding networks.
//!
//! The two named instances are [`Profile`] presets over one endpoint,
//! [`Session`] — the only endpoint type this crate exports:
//!
//! | instance   | cc        | reliability | feedback     |
//! |------------|-----------|-------------|--------------|
//! | `QTPAF`    | gTFRC(g)  | Full        | ReceiverLoss |
//! | `QTPlight` | TFRC      | None/partial| SenderLoss   |
//!
//! See [`session`] for the application-facing API (fluent [`Profile`]s,
//! poll-style [`Session`]s, the backend seam), [`caps`] for negotiation,
//! [`wire`] for the byte-level formats, and [`estimator`] for the
//! sender-side loss estimation that makes QTPlight possible.

mod adapter;
mod bufext;
pub mod caps;
pub mod cc;
#[cfg(test)]
#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
pub mod driver;
pub mod estimator;
pub mod pipe;
mod receiver;
mod sender;
pub mod session;
pub mod stream;
pub mod wire;

pub use caps::{CapabilitySet, CapsError, CcKind, FeedbackMode, ServerPolicy};
pub use cc::controller_for;
pub use driver::{Command, Endpoint, Outbox, TimerGens, Transmit};
pub use estimator::SenderLossEstimator;
pub use sender::AppModel;
pub use session::{
    attach_pair, attach_pairs, Backend, ConnectionOutcome, ConnectionPlan, PairHandles, Profile,
    ProfileBuilder, ProfileError, Reliability, Session, SessionEvent, SessionEvents, SimBackend,
    SimTopology,
};
pub use stream::{RecvStream, SendStream, StreamConfig, StreamError};
pub use wire::{QtpPacket, WireError};
