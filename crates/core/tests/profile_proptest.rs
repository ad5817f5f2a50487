//! Property tests for the fluent profile layer: `Profile` ⇄
//! `CapabilitySet` is lossless across all three service axes for every
//! valid composition, the builder's validation is total (valid in ⇒ valid
//! out, invalid in ⇒ typed error), and capability wire decoding reports
//! the offending code.

use proptest::prelude::*;
use qtp_core::session::{Profile, ProfileError, Reliability};
use qtp_core::{caps, CapabilitySet, CapsError, CcKind, FeedbackMode};
use qtp_simnet::time::Rate;
use std::time::Duration;

fn arb_reliability() -> impl Strategy<Value = Reliability> {
    prop_oneof![
        Just(Reliability::None),
        Just(Reliability::Full),
        (1u64..10_000_000).prop_map(|us| Reliability::Ttl(Duration::from_micros(us))),
        (1u32..64).prop_map(Reliability::Budget),
    ]
}

fn arb_feedback() -> impl Strategy<Value = FeedbackMode> {
    prop_oneof![
        Just(FeedbackMode::ReceiverLoss),
        Just(FeedbackMode::SenderLoss)
    ]
}

fn arb_cc() -> impl Strategy<Value = CcKind> {
    prop_oneof![
        Just(CcKind::Tfrc),
        (0u64..2_000_000_000).prop_map(|bps| CcKind::Gtfrc {
            target: Rate::from_bps(bps)
        }),
        (1u64..2_000_000_000).prop_map(|bps| CcKind::Fixed {
            rate: Rate::from_bps(bps)
        }),
        Just(CcKind::Cubic),
        Just(CcKind::BbrLite),
    ]
}

proptest! {
    /// Every valid axis combination builds, and converts to a
    /// `CapabilitySet` and back without loss.
    #[test]
    fn profile_capability_roundtrip(
        rel in arb_reliability(),
        fb in arb_feedback(),
        cc in arb_cc(),
    ) {
        let profile = Profile::new()
            .reliability(rel)
            .feedback(fb)
            .cc(cc)
            .build()
            .expect("valid axes must build");
        // Axis accessors reflect the inputs.
        prop_assert_eq!(profile.reliability(), rel);
        prop_assert_eq!(profile.feedback(), fb);
        prop_assert_eq!(profile.cc(), cc);
        // Lossless down-conversion…
        let wire: CapabilitySet = profile.into();
        prop_assert_eq!(rel, wire.reliability);
        // …and lossless up-conversion.
        let back = Profile::try_from(wire).expect("wire set came from a valid profile");
        prop_assert_eq!(back, profile);
    }

    /// Degenerate compositions are rejected with the matching typed error
    /// instead of panicking — whatever the other axes say.
    #[test]
    fn degenerate_profiles_yield_typed_errors(
        fb in arb_feedback(),
        cc in arb_cc(),
    ) {
        prop_assert_eq!(
            Profile::new().reliability(Reliability::Ttl(Duration::ZERO)).feedback(fb).cc(cc).build(),
            Err(ProfileError::ZeroTtl)
        );
        prop_assert_eq!(
            Profile::new().reliability(Reliability::Budget(0)).feedback(fb).cc(cc).build(),
            Err(ProfileError::ZeroRetxBudget)
        );
        prop_assert_eq!(
            Profile::new().feedback(fb).cc(CcKind::Fixed { rate: Rate::ZERO }).build(),
            Err(ProfileError::ZeroFixedRate)
        );
    }

    /// Capability wire decoding is total: known codes decode, unknown
    /// codes surface a `CapsError` carrying exactly the offending byte.
    #[test]
    fn caps_decode_errors_carry_the_wire_code(code in any::<u8>(), param in any::<u64>()) {
        match caps::reliability_from_wire(code, param) {
            Ok(_) => prop_assert!(code <= 3),
            Err(CapsError::BadReliability(c)) => prop_assert_eq!(c, code),
            Err(other) => prop_assert!(false, "wrong axis: {:?}", other),
        }
        match FeedbackMode::from_wire(code) {
            Ok(_) => prop_assert!(code <= 1),
            Err(CapsError::BadFeedback(c)) => prop_assert_eq!(c, code),
            Err(other) => prop_assert!(false, "wrong axis: {:?}", other),
        }
        match caps::cc_from_wire(code, param) {
            Ok(_) => prop_assert!(code <= 4),
            Err(CapsError::BadCc(c)) => prop_assert_eq!(c, code),
            Err(other) => prop_assert!(false, "wrong axis: {:?}", other),
        }
    }
}
