//! Reliability policies: the negotiable service levels of the versatile
//! transport (paper §1: "partial/full reliability" is feature (1) of the
//! negotiation).
//!
//! Policies act at the **sender** on application data units (ADUs). When a
//! sequence is declared lost the policy decides: retransmit, or abandon and
//! move the receiver past it with a `FWD` instruction (like PR-SCTP's
//! FORWARD-TSN). This keeps the receiver simple — a QTPlight requirement.
//! The policy keeps no per-sequence state: the caller passes what the
//! [`Scoreboard`](crate::Scoreboard) records for the lost sequence.

use qtp_simnet::time::SimTime;
use std::time::Duration;

/// The reliability axis (axis 1 of the paper), per connection: what the
/// handshake negotiates and what the sender's policy enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reliability {
    /// Pure datagram service: never retransmit (plain TFRC streaming).
    None,
    /// Retransmit every loss until acknowledged (QTPAF).
    Full,
    /// Partial reliability: retransmit only while the ADU is younger than
    /// this age; stale ADUs are abandoned with a `FWD` (typical streaming
    /// profile).
    Ttl(Duration),
    /// Partial reliability: give each sequence at most this many
    /// retransmissions.
    Budget(u32),
}

impl Reliability {
    /// Does this mode ever retransmit?
    pub fn retransmits(&self) -> bool {
        !matches!(self, Reliability::None)
    }

    /// Stable wire code for negotiation (see `qtp-core`'s handshake).
    pub fn wire_code(&self) -> u8 {
        match self {
            Reliability::None => 0,
            Reliability::Full => 1,
            Reliability::Ttl(_) => 2,
            Reliability::Budget(_) => 3,
        }
    }
}

/// The sender-side policy engine: answers "should this lost sequence be
/// retransmitted, or abandoned?".
#[derive(Debug, Clone)]
pub struct ReliabilityPolicy {
    mode: Reliability,
    /// Abandoned sequences are reported once through `take_forward_point`.
    abandon_high_water: u64,
}

/// Decision for one lost sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossDecision {
    /// Retransmit the sequence.
    Retransmit,
    /// Abandon it (the caller should emit a FWD past it eventually).
    Abandon,
}

impl ReliabilityPolicy {
    pub fn new(mode: Reliability) -> Self {
        ReliabilityPolicy {
            mode,
            abandon_high_water: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> Reliability {
        self.mode
    }

    /// Decide the fate of a lost sequence. `adu_at` is when the ADU it
    /// carries was submitted (`None` once the sequence is no longer
    /// tracked); `retx_count` is how many times it has already been
    /// retransmitted.
    pub fn on_loss(
        &mut self,
        seq: u64,
        now: SimTime,
        adu_at: Option<SimTime>,
        retx_count: u32,
    ) -> LossDecision {
        let decision = match self.mode {
            Reliability::None => LossDecision::Abandon,
            Reliability::Full => LossDecision::Retransmit,
            Reliability::Ttl(ttl) => match adu_at {
                Some(at) if now.saturating_since(at) < ttl => LossDecision::Retransmit,
                // Untracked (already acknowledged => old) or expired: abandon.
                _ => LossDecision::Abandon,
            },
            Reliability::Budget(limit) => {
                if retx_count < limit {
                    LossDecision::Retransmit
                } else {
                    LossDecision::Abandon
                }
            }
        };
        if decision == LossDecision::Abandon {
            self.abandon_high_water = self.abandon_high_water.max(seq + 1);
        }
        decision
    }

    /// If any sequence at or above the current cumulative ack has been
    /// abandoned, the receiver must be moved past it: returns the FWD point
    /// (one past the highest abandoned sequence) when it exceeds `cum_ack`.
    pub fn forward_point(&self, cum_ack: u64) -> Option<u64> {
        (self.abandon_high_water > cum_ack).then_some(self.abandon_high_water)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn full_always_retransmits() {
        let mut p = ReliabilityPolicy::new(Reliability::Full);
        for retx in 0..20 {
            assert_eq!(
                p.on_loss(5, ts(100_000), Some(ts(0)), retx),
                LossDecision::Retransmit
            );
        }
        assert_eq!(p.forward_point(0), None);
    }

    #[test]
    fn none_never_retransmits() {
        let mut p = ReliabilityPolicy::new(Reliability::None);
        assert_eq!(p.on_loss(3, ts(1), Some(ts(0)), 0), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(4));
    }

    #[test]
    fn ttl_retransmits_fresh_abandons_stale() {
        let ttl = Duration::from_millis(100);
        let mut p = ReliabilityPolicy::new(Reliability::Ttl(ttl));
        let (first, second) = (Some(ts(0)), Some(ts(500)));
        // Fresh loss within TTL.
        assert_eq!(p.on_loss(7, ts(550), second, 0), LossDecision::Retransmit);
        // Same ADU, too old.
        assert_eq!(p.on_loss(7, ts(601), second, 0), LossDecision::Abandon);
        // The first ADU, long expired.
        assert_eq!(p.on_loss(2, ts(550), first, 0), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(8));
    }

    #[test]
    fn ttl_unknown_adu_is_abandoned() {
        let mut p = ReliabilityPolicy::new(Reliability::Ttl(Duration::from_secs(1)));
        // Seq 3 is no longer tracked, so its ADU time is unknown.
        assert_eq!(p.on_loss(3, ts(10), None, 0), LossDecision::Abandon);
    }

    #[test]
    fn retx_budget_enforced() {
        let mut p = ReliabilityPolicy::new(Reliability::Budget(2));
        let at = Some(ts(0));
        assert_eq!(p.on_loss(4, ts(10), at, 0), LossDecision::Retransmit);
        assert_eq!(p.on_loss(4, ts(20), at, 1), LossDecision::Retransmit);
        assert_eq!(p.on_loss(4, ts(30), at, 2), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(5));
        assert_eq!(p.forward_point(10), None, "already past it");
    }

    #[test]
    fn wire_codes_are_distinct() {
        let modes = [
            Reliability::None,
            Reliability::Full,
            Reliability::Ttl(Duration::from_secs(1)),
            Reliability::Budget(3),
        ];
        let mut codes: Vec<u8> = modes.iter().map(|m| m.wire_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 4);
    }
}
