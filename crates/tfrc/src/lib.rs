//! # qtp-tfrc — TCP-Friendly Rate Control (RFC 3448)
//!
//! Sans-io implementation of the equation-based congestion control the
//! paper composes into its versatile transport:
//! [`sender::TfrcSender`] paces at the equation rate
//! ([`equation::throughput`]); [`receiver::TfrcReceiver`] detects losses
//! ([`detector::LossDetector`]), groups them into loss events, maintains
//! the loss-interval history ([`loss_history::LossIntervalHistory`]) and
//! reports `(X_recv, p)` once per RTT. gTFRC, the DiffServ/AF
//! specialisation `X = max(g, X_tfrc)` used by QTPAF, is `qtp_cc::GtfrcCc`:
//! a `TfrcSender` plus the floor `g`.
//!
//! ## The composition seam
//!
//! [`sender::TfrcSender::on_feedback`] takes the loss event rate `p` as a
//! parameter instead of hard-wiring it to the receiver's report. That is the
//! exact point where the paper's two instances diverge:
//!
//! * *standard TFRC / QTPAF*: `p` = receiver-computed value from the
//!   feedback packet;
//! * *QTPlight*: the receiver sends only SACK-style feedback, and the
//!   **sender** runs [`detector::LossDetector`]-equivalent logic over the
//!   SACK stream plus its own [`loss_history::LossIntervalHistory`] to
//!   compute `p` (see `qtp-core`'s `SenderLossEstimator`).
//!
//! Every per-packet code path ticks a [`qtp_metrics::CostMeter`], giving the
//! deterministic processing-load measurements behind the paper's "light
//! receiver" claim.

pub mod detector;
pub mod equation;
pub mod loss_history;
pub mod receiver;
pub mod sender;
pub mod update;

pub use detector::{LossDetector, LostPacket, NDUPACK};
pub use equation::{inverse, throughput};
pub use loss_history::{LossIntervalHistory, N_INTERVALS, WEIGHTS};
pub use receiver::{Feedback, RxAction, TfrcReceiver};
pub use sender::{SenderConfig, TfrcSender, RTT_EWMA_Q, T_MBI};
