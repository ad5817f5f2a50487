//! Reliability policies: the negotiable service levels of the versatile
//! transport (paper §1: "partial/full reliability" is feature (1) of the
//! negotiation).
//!
//! Policies act at the **sender** on application data units (ADUs). When a
//! sequence is declared lost the policy decides: retransmit, or abandon and
//! move the receiver past it with a `FWD` instruction (like PR-SCTP's
//! FORWARD-TSN). This keeps the receiver simple — a QTPlight requirement.

use qtp_simnet::time::SimTime;
use std::collections::BTreeMap;
use std::time::Duration;

use crate::ranges::SeqRange;

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

/// An application data unit: a contiguous run of sequences submitted
/// together, sharing a deadline/retransmission budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Adu {
    /// Application-assigned id (monotonically increasing).
    pub id: u64,
    /// Sequence range occupied by the ADU.
    pub seqs: SeqRange,
    /// When the application submitted it.
    pub submitted_at: SimTime,
}

/// The sender-side policy engine: maps sequences to ADUs and answers
/// "should this lost sequence be retransmitted, or abandoned?".
#[derive(Debug, Clone)]
pub struct ReliabilityPolicy {
    mode: Reliability,
    /// ADUs by first sequence; pruned as the cumulative ack advances.
    adus: BTreeMap<u64, Adu>,
    next_adu_id: u64,
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
            adus: BTreeMap::new(),
            next_adu_id: 0,
            abandon_high_water: 0,
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> Reliability {
        self.mode
    }

    /// Register a newly submitted ADU covering `seqs`.
    pub fn register_adu(&mut self, seqs: SeqRange, now: SimTime) -> u64 {
        let id = self.next_adu_id;
        self.next_adu_id += 1;
        self.adus.insert(
            seqs.start,
            Adu {
                id,
                seqs,
                submitted_at: now,
            },
        );
        id
    }

    /// The ADU containing `seq`, if still tracked.
    pub fn adu_of(&self, seq: u64) -> Option<&Adu> {
        self.adus
            .range(..=seq)
            .next_back()
            .map(|(_, adu)| adu)
            .filter(|adu| adu.seqs.contains(seq))
    }

    /// Decide the fate of a lost sequence. `retx_count` is how many times it
    /// has already been retransmitted.
    pub fn on_loss(&mut self, seq: u64, now: SimTime, retx_count: u32) -> LossDecision {
        let decision = match self.mode {
            Reliability::None => LossDecision::Abandon,
            Reliability::Full => LossDecision::Retransmit,
            Reliability::Ttl(ttl) => match self.adu_of(seq) {
                Some(adu) if now.saturating_since(adu.submitted_at) < ttl => {
                    LossDecision::Retransmit
                }
                // Unknown ADU (already pruned => old) or expired: abandon.
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

    /// Drop ADU records wholly below `cum_ack` (fully delivered or passed).
    pub fn prune(&mut self, cum_ack: u64) {
        self.adus.retain(|_, adu| adu.seqs.end > cum_ack);
    }

    /// Number of ADUs currently tracked.
    pub fn tracked_adus(&self) -> usize {
        self.adus.len()
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
        p.register_adu(SeqRange::new(0, 10), ts(0));
        for retx in 0..20 {
            assert_eq!(p.on_loss(5, ts(100_000), retx), LossDecision::Retransmit);
        }
        assert_eq!(p.forward_point(0), None);
    }

    #[test]
    fn none_never_retransmits() {
        let mut p = ReliabilityPolicy::new(Reliability::None);
        p.register_adu(SeqRange::new(0, 10), ts(0));
        assert_eq!(p.on_loss(3, ts(1), 0), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(4));
    }

    #[test]
    fn ttl_retransmits_fresh_abandons_stale() {
        let ttl = Duration::from_millis(100);
        let mut p = ReliabilityPolicy::new(Reliability::Ttl(ttl));
        p.register_adu(SeqRange::new(0, 5), ts(0));
        p.register_adu(SeqRange::new(5, 10), ts(500));
        // Fresh loss within TTL.
        assert_eq!(p.on_loss(7, ts(550), 0), LossDecision::Retransmit);
        // Same ADU, too old.
        assert_eq!(p.on_loss(7, ts(601), 0), LossDecision::Abandon);
        // First ADU long expired.
        assert_eq!(p.on_loss(2, ts(550), 0), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(8));
    }

    #[test]
    fn ttl_unknown_adu_is_abandoned() {
        let mut p = ReliabilityPolicy::new(Reliability::Ttl(Duration::from_secs(1)));
        // No ADU registered covering seq 3.
        assert_eq!(p.on_loss(3, ts(10), 0), LossDecision::Abandon);
    }

    #[test]
    fn retx_budget_enforced() {
        let mut p = ReliabilityPolicy::new(Reliability::Budget(2));
        p.register_adu(SeqRange::new(0, 10), ts(0));
        assert_eq!(p.on_loss(4, ts(10), 0), LossDecision::Retransmit);
        assert_eq!(p.on_loss(4, ts(20), 1), LossDecision::Retransmit);
        assert_eq!(p.on_loss(4, ts(30), 2), LossDecision::Abandon);
        assert_eq!(p.forward_point(0), Some(5));
        assert_eq!(p.forward_point(10), None, "already past it");
    }

    #[test]
    fn adu_lookup_by_contained_seq() {
        let mut p = ReliabilityPolicy::new(Reliability::Full);
        let a = p.register_adu(SeqRange::new(0, 3), ts(0));
        let b = p.register_adu(SeqRange::new(3, 8), ts(5));
        assert_eq!(p.adu_of(0).unwrap().id, a);
        assert_eq!(p.adu_of(2).unwrap().id, a);
        assert_eq!(p.adu_of(3).unwrap().id, b);
        assert_eq!(p.adu_of(7).unwrap().id, b);
        assert!(p.adu_of(8).is_none());
    }

    #[test]
    fn prune_drops_delivered_adus() {
        let mut p = ReliabilityPolicy::new(Reliability::Full);
        p.register_adu(SeqRange::new(0, 3), ts(0));
        p.register_adu(SeqRange::new(3, 8), ts(5));
        assert_eq!(p.tracked_adus(), 2);
        p.prune(3);
        assert_eq!(p.tracked_adus(), 1);
        p.prune(8);
        assert_eq!(p.tracked_adus(), 0);
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
