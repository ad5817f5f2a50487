//! # qtp-cc — pluggable congestion control
//!
//! The paper's axis 3 (negotiable congestion control) behind one sans-io
//! seam: the [`CongestionControl`] trait. A controller consumes feedback
//! reports ([`FeedbackReport`]: acked/lost accounting, RTT echo fields,
//! reported receive rate), send notifications and a nofeedback timer; it
//! produces an allowed sending rate, an optional in-flight window limit
//! (window-based controllers pace near `cwnd / RTT` and let the window
//! bound the queue) plus a typed [`CcState`] snapshot for the
//! observability plane.
//!
//! Five controllers live behind the seam:
//!
//! * [`TfrcCc`] — RFC 3448 TFRC (adapter over [`qtp_tfrc::TfrcSender`]);
//! * [`GtfrcCc`] — gTFRC, the DiffServ/AF floor `X = max(g, X_tfrc)`;
//! * [`FixedCc`] — open-loop fixed rate (ablation tool);
//! * [`Cubic`] — RFC 8312 cubic window growth with the TCP-friendly
//!   region, paced at `cwnd / RTT`;
//! * [`BbrLite`] — a deterministic model-based controller: windowed-max
//!   bandwidth and windowed-min RTT filters driving a
//!   startup → drain → probe-bandwidth cycle (no pacing-gain
//!   randomization, so fixed-seed runs stay byte-identical).
//!
//! The shared RTT/seed/timer arithmetic lives in [`qtp_tfrc::update`] —
//! one copy for the equation-based sender and every controller here.

#![deny(missing_docs)]

pub mod adapters;
pub mod bbr;
pub mod cubic;
pub mod filter;
pub mod gtfrc;

pub use adapters::{FixedCc, TfrcCc};
pub use bbr::{BbrLite, BbrPhase};
pub use cubic::Cubic;
pub use filter::{WindowedMax, WindowedMin};
pub use gtfrc::GtfrcCc;

use qtp_simnet::time::SimTime;
use std::time::Duration;

/// One processed feedback report, as seen by a controller.
///
/// The transport computes the loss summary (`p`, `newly_lost_pkts`) and
/// ack accounting once and hands every controller the same view; each
/// controller reads the fields its model needs (TFRC the equation inputs,
/// CUBIC the ack/loss counts, BBR-lite the delivery rate and RTT echo).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackReport {
    /// Local arrival time of the report.
    pub now: SimTime,
    /// Echoed send timestamp (RTT reconstruction).
    pub ts_echo: SimTime,
    /// Receiver-side hold time to subtract from the echo age.
    pub t_delay: Duration,
    /// Receive rate the peer reports, bytes/second.
    pub x_recv: f64,
    /// Loss event rate in force (receiver- or sender-computed — the
    /// composition seam; `0.0` while loss-free).
    pub p: f64,
    /// Bytes newly acknowledged by this report (cumulative-ack advance).
    pub newly_acked_bytes: u64,
    /// Packets newly declared lost by this report.
    pub newly_lost_pkts: u32,
}

/// Typed controller state snapshot for tracing (`qtptrace` timelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcState {
    /// Equation/rate-based controller (TFRC, gTFRC): just the rate.
    RateBased {
        /// Allowed rate, bits/second.
        x_bps: u64,
    },
    /// Open-loop fixed rate.
    FixedRate {
        /// Configured rate, bits/second.
        x_bps: u64,
    },
    /// CUBIC window state.
    Cubic {
        /// Congestion window, bytes.
        cwnd_bytes: u64,
        /// Window size at the last multiplicative decrease, bytes.
        w_max_bytes: u64,
        /// Whether the TCP-friendly region is currently governing.
        tcp_friendly: bool,
    },
    /// BBR-lite model state.
    BbrLite {
        /// Current phase of the startup/drain/probe cycle.
        phase: BbrPhase,
        /// Windowed-max bottleneck bandwidth estimate, bits/second.
        btlbw_bps: u64,
        /// Windowed-min RTT estimate, microseconds.
        min_rtt_us: u64,
    },
}

/// A sans-io congestion controller negotiated onto one connection.
///
/// The contract mirrors the transport sender's needs exactly: the
/// endpoint seeds the RTT from the handshake, forwards each feedback
/// report, fires the nofeedback timer at [`nofeedback_deadline`], and
/// paces new data at [`send_interval`]. Everything is deterministic —
/// no clock reads, no randomness — so fixed-seed simulations reproduce
/// byte-identically with any controller.
///
/// [`nofeedback_deadline`]: CongestionControl::nofeedback_deadline
/// [`send_interval`]: CongestionControl::send_interval
pub trait CongestionControl: std::fmt::Debug {
    /// Seed the RTT from the connection handshake (RFC 3448 §4.2: the
    /// initial rate becomes one RFC 3390 initial window per RTT).
    fn seed_rtt(&mut self, now: SimTime, rtt: Duration);

    /// Process one feedback report.
    fn on_feedback(&mut self, fb: &FeedbackReport);

    /// Notification that `bytes` of new data were handed to the network.
    /// Controllers that model inflight data may use it; the default is a
    /// no-op.
    fn on_send(&mut self, _now: SimTime, _bytes: u32) {}

    /// The nofeedback timer expired: back off.
    fn on_nofeedback_timer(&mut self, now: SimTime);

    /// Absolute deadline of the nofeedback timer ([`SimTime::MAX`] for
    /// controllers that never arm it).
    fn nofeedback_deadline(&self) -> SimTime;

    /// Allowed sending rate, bytes/second. Window-based controllers
    /// report the cwnd-derived pacing rate `cwnd / RTT`.
    fn allowed_rate(&self) -> f64;

    /// Inter-packet gap at the allowed rate.
    fn send_interval(&self) -> Duration;

    /// Congestion-window limit on unacknowledged bytes in flight, if this
    /// controller is window-based. The transport stops sending (while
    /// keeping the pace timer running) whenever in-flight data meets the
    /// limit, which is what actually bounds the queue a window controller
    /// builds — the pacing rate alone cannot, because queueing inflates
    /// the RTT it is derived from. Rate-based controllers return `None`
    /// (the default) and are governed purely by [`send_interval`].
    ///
    /// [`send_interval`]: CongestionControl::send_interval
    fn cwnd_limit(&self) -> Option<u64> {
        None
    }

    /// Smoothed RTT, if known.
    fn rtt(&self) -> Option<Duration>;

    /// Sender-side CC processing operations so far (cost accounting for
    /// the E5-style processing-load ledger; 0 where not metered).
    fn ops(&self) -> u64;

    /// Typed state snapshot for the observability plane.
    fn state(&self) -> CcState;

    /// Short stable controller name (`"tfrc"`, `"cubic"`, …).
    fn name(&self) -> &'static str;
}
