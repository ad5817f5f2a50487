//! Property tests for the composed transport: negotiation totality,
//! estimator/receiver p-equivalence on arbitrary loss patterns, and
//! reliability-policy coherence.

use proptest::prelude::*;
use qtp::core::{CapabilitySet, CcKind, FeedbackMode, SenderLossEstimator, ServerPolicy};
use qtp::sack::{LossDecision, Reliability, ReliabilityPolicy};
use qtp::simnet::time::{Rate, SimTime};
use qtp::tfrc::LossIntervalHistory;
use std::time::Duration;

fn arb_caps() -> impl Strategy<Value = CapabilitySet> {
    let rel = prop_oneof![
        Just(Reliability::None),
        Just(Reliability::Full),
        (1u64..1_000_000).prop_map(|us| Reliability::Ttl(Duration::from_micros(us))),
        (0u32..16).prop_map(Reliability::Budget),
    ];
    let fb = prop_oneof![
        Just(FeedbackMode::ReceiverLoss),
        Just(FeedbackMode::SenderLoss)
    ];
    let cc = prop_oneof![
        Just(CcKind::Tfrc),
        (1u64..1_000_000_000).prop_map(|bps| CcKind::Gtfrc {
            target: Rate::from_bps(bps)
        }),
    ];
    (rel, fb, cc).prop_map(|(reliability, feedback, cc)| CapabilitySet {
        reliability,
        feedback,
        cc,
    })
}

fn arb_policy() -> impl Strategy<Value = ServerPolicy> {
    (
        any::<bool>(),
        any::<bool>(),
        prop::option::of(1u64..100_000_000),
    )
        .prop_map(|(allow_sender_loss, allow_reliability, max)| ServerPolicy {
            allow_sender_loss,
            allow_reliability,
            max_target: max.map(Rate::from_bps),
        })
}

proptest! {
    /// Negotiation is total (never rejects), idempotent (negotiating the
    /// chosen set again changes nothing) and policy-respecting.
    #[test]
    fn negotiation_total_idempotent_and_sound(
        offered in arb_caps(),
        policy in arb_policy(),
    ) {
        let chosen = policy.negotiate(offered);
        // Idempotence.
        prop_assert_eq!(policy.negotiate(chosen), chosen);
        // Policy soundness.
        if !policy.allow_sender_loss {
            prop_assert_ne!(chosen.feedback, FeedbackMode::SenderLoss);
        }
        if !policy.allow_reliability {
            prop_assert!(!chosen.reliability.retransmits());
        }
        if let (CcKind::Gtfrc { target }, Some(max)) = (chosen.cc, policy.max_target) {
            prop_assert!(target <= max);
        }
        // Degradation only: the chosen set never *adds* capability.
        if offered.feedback == FeedbackMode::ReceiverLoss {
            prop_assert_eq!(chosen.feedback, FeedbackMode::ReceiverLoss);
        }
        if !offered.reliability.retransmits() {
            prop_assert!(!chosen.reliability.retransmits());
        }
    }

    /// The sender-side estimator computes exactly the same loss event rate
    /// as a receiver-side history fed the same loss-event sequence — the
    /// QTPlight equivalence property, over arbitrary event layouts.
    #[test]
    fn sender_estimator_equals_receiver_history(
        gaps in prop::collection::vec(1u64..500, 1..40),
        x_recv in 1_000.0f64..1e7,
    ) {
        let rtt = Duration::from_millis(100);
        let mut est = SenderLossEstimator::new(1000);
        let mut hist = LossIntervalHistory::new();
        let mut seq = 0u64;
        // Events spaced > RTT apart in send time so grouping is 1:1.
        for (k, gap) in gaps.iter().enumerate() {
            seq += gap;
            let ts = SimTime::from_millis((k as u64 + 1) * 1_000);
            est.on_losses(&[(seq, ts)], rtt, x_recv);
            if k == 0 {
                let p0 = qtp::tfrc::inverse(1000, rtt, x_recv.max(1000.0));
                hist.record_first_loss(seq, (1.0 / p0).max(1.0));
            } else {
                hist.record_loss_event(seq);
            }
        }
        let highest = seq + 10;
        let p_est = est.loss_event_rate(highest);
        let p_hist = hist.loss_event_rate(highest);
        prop_assert!((p_est - p_hist).abs() < 1e-12, "{p_est} vs {p_hist}");
    }

    /// Reliability policies are coherent: Full never abandons, None never
    /// retransmits, Budget respects its budget exactly, and the
    /// forward point never runs backwards.
    #[test]
    fn policy_decisions_coherent(
        mode_sel in 0u8..4,
        ttl_ms in 1u64..1_000,
        budget in 0u32..8,
        losses in prop::collection::vec((0u64..1_000, 0u64..2_000, 0u32..10), 1..50),
    ) {
        let mode = match mode_sel {
            0 => Reliability::None,
            1 => Reliability::Full,
            2 => Reliability::Ttl(Duration::from_millis(ttl_ms)),
            _ => Reliability::Budget(budget),
        };
        let mut p = ReliabilityPolicy::new(mode);
        let mut last_fp = 0u64;
        for (seq, now_ms, retx) in losses {
            let d = p.on_loss(seq, SimTime::from_millis(now_ms), Some(SimTime::ZERO), retx);
            match mode {
                Reliability::Full => prop_assert_eq!(d, LossDecision::Retransmit),
                Reliability::None => prop_assert_eq!(d, LossDecision::Abandon),
                Reliability::Ttl(ttl) => {
                    let age = Duration::from_millis(now_ms);
                    if age < ttl {
                        prop_assert_eq!(d, LossDecision::Retransmit);
                    } else {
                        prop_assert_eq!(d, LossDecision::Abandon);
                    }
                }
                Reliability::Budget(b) => {
                    prop_assert_eq!(
                        d,
                        if retx < b { LossDecision::Retransmit } else { LossDecision::Abandon }
                    );
                }
            }
            // Forward point is monotone.
            if let Some(fp) = p.forward_point(0) {
                prop_assert!(fp >= last_fp);
                last_fp = fp;
            }
        }
    }
}
