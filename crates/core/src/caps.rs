//! Capability sets and negotiation.
//!
//! The paper's central idea: a transport whose service is **negotiated per
//! connection** from three orthogonal axes (paper §1):
//!
//! 1. *reliability* — none / full / partial (TTL or retransmission budget);
//! 2. *receiver processing* — standard RFC 3448 receiver-side loss
//!    estimation, or the QTPlight sender-side variant that leaves the
//!    receiver with nothing but SACK generation;
//! 3. *QoS awareness* — plain TFRC, or gTFRC with a bandwidth target
//!    negotiated with the underlying AF network service.
//!
//! A client offers a [`CapabilitySet`]; the server intersects it with its
//! own support ([`ServerPolicy`]) and returns the chosen set in the
//! `SYNACK`. Both named instances are just presets:
//!
//! * **QTPAF**   = `Gtfrc(g)` + `Full` + `ReceiverLoss`
//! * **QTPlight** = `Tfrc` + (usually `None` or partial) + `SenderLoss`

use qtp_sack::Reliability;
use qtp_simnet::time::Rate;
use std::time::Duration;

/// A capability field that failed to decode, carrying the offending wire
/// code so negotiation failures are diagnosable (and surfaceable to
/// applications as a `Rejected` session event) instead of a silent `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapsError {
    /// Unknown reliability-mode wire code.
    BadReliability(u8),
    /// Unknown feedback-mode wire code.
    BadFeedback(u8),
    /// Unknown congestion-control wire code.
    BadCc(u8),
}

impl std::fmt::Display for CapsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapsError::BadReliability(c) => write!(f, "unknown reliability wire code {c}"),
            CapsError::BadFeedback(c) => write!(f, "unknown feedback wire code {c}"),
            CapsError::BadCc(c) => write!(f, "unknown congestion-control wire code {c}"),
        }
    }
}

impl std::error::Error for CapsError {}

/// Where the TFRC loss-event rate is computed (axis 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedbackMode {
    /// RFC 3448: the receiver maintains the loss history and reports `p`.
    ReceiverLoss,
    /// QTPlight: the receiver sends SACK-style feedback only; the sender
    /// estimates `p` itself.
    SenderLoss,
}

impl FeedbackMode {
    /// Stable wire code.
    pub fn wire_code(self) -> u8 {
        match self {
            FeedbackMode::ReceiverLoss => 0,
            FeedbackMode::SenderLoss => 1,
        }
    }

    /// Decode a wire code.
    pub fn from_wire(code: u8) -> Result<Self, CapsError> {
        match code {
            0 => Ok(FeedbackMode::ReceiverLoss),
            1 => Ok(FeedbackMode::SenderLoss),
            other => Err(CapsError::BadFeedback(other)),
        }
    }
}

/// Decode a reliability-mode wire code plus its parameter (TTL in
/// microseconds, or a retransmission budget).
pub fn reliability_from_wire(code: u8, param: u64) -> Result<Reliability, CapsError> {
    match code {
        0 => Ok(Reliability::None),
        1 => Ok(Reliability::Full),
        2 => Ok(Reliability::Ttl(Duration::from_micros(param))),
        3 => Ok(Reliability::Budget(param as u32)),
        other => Err(CapsError::BadReliability(other)),
    }
}

/// Decode a congestion-control wire code plus its rate parameter (bits/s).
pub fn cc_from_wire(code: u8, param: u64) -> Result<CcKind, CapsError> {
    match code {
        0 => Ok(CcKind::Tfrc),
        1 => Ok(CcKind::Gtfrc {
            target: Rate::from_bps(param),
        }),
        2 => Ok(CcKind::Fixed {
            rate: Rate::from_bps(param),
        }),
        3 => Ok(CcKind::Cubic),
        4 => Ok(CcKind::BbrLite),
        other => Err(CapsError::BadCc(other)),
    }
}

/// Congestion-control variant (axis 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcKind {
    /// RFC 3448 TFRC.
    Tfrc,
    /// gTFRC with a negotiated bandwidth guarantee.
    Gtfrc { target: Rate },
    /// Fixed-rate (open loop) — used by ablation experiments only.
    Fixed { rate: Rate },
    /// RFC 8312 CUBIC window growth, paced at `cwnd / RTT`.
    Cubic,
    /// Deterministic BBR-lite (windowed bandwidth/RTT model).
    BbrLite,
}

impl CcKind {
    /// Stable wire code (without parameters).
    pub fn wire_code(self) -> u8 {
        match self {
            CcKind::Tfrc => 0,
            CcKind::Gtfrc { .. } => 1,
            CcKind::Fixed { .. } => 2,
            CcKind::Cubic => 3,
            CcKind::BbrLite => 4,
        }
    }
}

/// A full service profile, offered/chosen during the handshake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapabilitySet {
    pub reliability: Reliability,
    pub feedback: FeedbackMode,
    pub cc: CcKind,
}

/// What a server is willing to grant.
#[derive(Debug, Clone)]
pub struct ServerPolicy {
    /// Accept sender-side estimation requests? (A powerful server says yes;
    /// that is the paper's asymmetry argument.)
    pub allow_sender_loss: bool,
    /// Accept reliability modes that retransmit?
    pub allow_reliability: bool,
    /// Largest bandwidth guarantee the server will grant, if any.
    pub max_target: Option<Rate>,
}

impl Default for ServerPolicy {
    fn default() -> Self {
        ServerPolicy {
            allow_sender_loss: true,
            allow_reliability: true,
            max_target: None,
        }
    }
}

impl ServerPolicy {
    /// Intersect an offer with this policy, producing the chosen set.
    /// Degradation is always toward the *simpler* mechanism, never a
    /// rejection: the connection proceeds with the best granted service.
    pub fn negotiate(&self, offered: CapabilitySet) -> CapabilitySet {
        let feedback = if offered.feedback == FeedbackMode::SenderLoss && !self.allow_sender_loss {
            FeedbackMode::ReceiverLoss
        } else {
            offered.feedback
        };
        let reliability = if offered.reliability.retransmits() && !self.allow_reliability {
            Reliability::None
        } else {
            offered.reliability
        };
        let cc = match offered.cc {
            CcKind::Gtfrc { target } => match self.max_target {
                Some(max) if target > max => CcKind::Gtfrc { target: max },
                Some(_) => CcKind::Gtfrc { target },
                None => CcKind::Gtfrc { target },
            },
            other => other,
        };
        CapabilitySet {
            reliability,
            feedback,
            cc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Profile;

    #[test]
    fn presets_match_paper_definitions() {
        let af = Profile::qtp_af(Rate::from_mbps(2)).caps();
        assert_eq!(af.reliability, Reliability::Full);
        assert_eq!(af.feedback, FeedbackMode::ReceiverLoss);
        assert!(matches!(af.cc, CcKind::Gtfrc { .. }));

        let light = Profile::qtp_light().caps();
        assert_eq!(light.reliability, Reliability::None);
        assert_eq!(light.feedback, FeedbackMode::SenderLoss);
        assert_eq!(light.cc, CcKind::Tfrc);
    }

    #[test]
    fn permissive_server_grants_offer() {
        let policy = ServerPolicy::default();
        let offer = Profile::qtp_light_partial(Duration::from_millis(200))
            .unwrap()
            .caps();
        assert_eq!(policy.negotiate(offer), offer);
    }

    #[test]
    fn server_can_refuse_sender_loss() {
        let policy = ServerPolicy {
            allow_sender_loss: false,
            ..ServerPolicy::default()
        };
        let chosen = policy.negotiate(Profile::qtp_light().caps());
        assert_eq!(chosen.feedback, FeedbackMode::ReceiverLoss);
        assert_eq!(chosen.reliability, Reliability::None, "other axes kept");
    }

    #[test]
    fn server_can_refuse_reliability() {
        let policy = ServerPolicy {
            allow_reliability: false,
            ..ServerPolicy::default()
        };
        let chosen = policy.negotiate(Profile::qtp_af(Rate::from_mbps(1)).caps());
        assert_eq!(chosen.reliability, Reliability::None);
        assert!(matches!(chosen.cc, CcKind::Gtfrc { .. }), "QoS axis kept");
    }

    #[test]
    fn target_clamped_to_server_maximum() {
        let policy = ServerPolicy {
            max_target: Some(Rate::from_mbps(1)),
            ..ServerPolicy::default()
        };
        let chosen = policy.negotiate(Profile::qtp_af(Rate::from_mbps(5)).caps());
        assert_eq!(
            chosen.cc,
            CcKind::Gtfrc {
                target: Rate::from_mbps(1)
            }
        );
        // Under the cap: unchanged.
        let chosen = policy.negotiate(Profile::qtp_af(Rate::from_kbps(500)).caps());
        assert_eq!(
            chosen.cc,
            CcKind::Gtfrc {
                target: Rate::from_kbps(500)
            }
        );
    }

    #[test]
    fn wire_codes_roundtrip() {
        for m in [FeedbackMode::ReceiverLoss, FeedbackMode::SenderLoss] {
            assert_eq!(FeedbackMode::from_wire(m.wire_code()), Ok(m));
        }
        assert_eq!(FeedbackMode::from_wire(9), Err(CapsError::BadFeedback(9)));
    }

    #[test]
    fn decode_errors_carry_the_offending_code() {
        assert_eq!(
            reliability_from_wire(7, 0),
            Err(CapsError::BadReliability(7))
        );
        assert_eq!(cc_from_wire(250, 0), Err(CapsError::BadCc(250)));
        // Codes 3 and 4 are the window/model controllers; 5 is the first
        // unassigned code.
        assert_eq!(cc_from_wire(3, 0), Ok(CcKind::Cubic));
        assert_eq!(cc_from_wire(4, 0), Ok(CcKind::BbrLite));
        assert_eq!(cc_from_wire(5, 0), Err(CapsError::BadCc(5)));
        for k in [CcKind::Cubic, CcKind::BbrLite] {
            assert_eq!(cc_from_wire(k.wire_code(), 0), Ok(k));
        }
        assert_eq!(
            reliability_from_wire(2, 1_000).unwrap(),
            Reliability::Ttl(Duration::from_millis(1))
        );
        assert!(matches!(cc_from_wire(1, 8_000), Ok(CcKind::Gtfrc { .. })));
    }
}
