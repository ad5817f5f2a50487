//! Property tests for the TFRC mechanisms: equation shape, loss-interval
//! history invariants, detector soundness, and the token-bucket/marker
//! conformance properties used by the AF experiments.

use proptest::prelude::*;
use qtp::simnet::marker::TokenBucketMarker;
use qtp::simnet::packet::{Color, Packet};
use qtp::simnet::time::{Rate, SimTime};
use qtp::tfrc::{inverse, throughput, LossDetector, LossIntervalHistory};
use std::collections::BTreeSet;
use std::time::Duration;

proptest! {
    /// The throughput equation is monotonically non-increasing in both the
    /// loss event rate and the RTT, and linear in segment size.
    #[test]
    fn equation_monotonicity(
        p1 in 1e-6f64..1.0,
        p2 in 1e-6f64..1.0,
        rtt_ms in 1u64..2_000,
        s in 100u32..9_000,
    ) {
        let (lo, hi) = if p1 < p2 { (p1, p2) } else { (p2, p1) };
        let r = Duration::from_millis(rtt_ms);
        prop_assert!(throughput(s, r, lo) >= throughput(s, r, hi));
        // RTT monotonicity.
        let r2 = Duration::from_millis(rtt_ms * 2);
        prop_assert!(throughput(s, r, lo) >= throughput(s, r2, lo));
        // Linearity in s (within float tolerance).
        let x1 = throughput(s, r, lo);
        let x2 = throughput(2 * s, r, lo);
        prop_assert!((x2 / x1 - 2.0).abs() < 1e-9);
    }

    /// inverse() really inverts the equation over the meaningful range.
    #[test]
    fn equation_inverse_roundtrip(p in 1e-5f64..0.9, rtt_ms in 5u64..1_000) {
        let r = Duration::from_millis(rtt_ms);
        let x = throughput(1000, r, p);
        let p_back = inverse(1000, r, x);
        prop_assert!((p_back - p).abs() / p < 1e-4, "p={p}, back={p_back}");
    }

    /// The weighted average loss interval always lies between the minimum
    /// and maximum retained interval (with the open interval counted only
    /// when it raises the average).
    #[test]
    fn wali_bounded_by_extremes(
        intervals in prop::collection::vec(1u64..5_000, 1..20),
        open_extra in 0u64..10_000,
    ) {
        let mut h = LossIntervalHistory::new();
        let mut seq = 0u64;
        h.record_first_loss(seq, intervals[0] as f64);
        for &len in &intervals[1..] {
            seq += len;
            h.record_loss_event(seq);
        }
        let highest = seq + open_extra;
        let avg = h.average_interval(highest).unwrap();
        let retained: Vec<f64> = h.intervals().to_vec();
        let min = retained.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = retained.iter().cloned().fold(0.0, f64::max);
        let open_len = (highest - seq + 1) as f64;
        prop_assert!(avg >= min - 1e-9, "avg {avg} below min {min}");
        prop_assert!(
            avg <= max.max(open_len) + 1e-9,
            "avg {avg} above max({max}, open {open_len})"
        );
        // p is the reciprocal.
        let p = h.loss_event_rate(highest);
        prop_assert!((p - 1.0 / avg.max(1.0)).abs() < 1e-12);
    }

    /// Loss detector soundness: every declared-lost sequence was truly
    /// never fed to the detector, and no sequence is declared twice.
    #[test]
    fn detector_never_declares_received(
        drop_set in prop::collection::btree_set(1u64..200, 0..40),
    ) {
        let mut d = LossDetector::new();
        let mut declared = BTreeSet::new();
        for seq in 0..200u64 {
            if drop_set.contains(&seq) {
                continue;
            }
            for lost in d.on_packet(seq, SimTime::from_micros(seq * 50)) {
                prop_assert!(drop_set.contains(&lost.seq), "declared received seq {}", lost.seq);
                prop_assert!(declared.insert(lost.seq), "double declaration of {}", lost.seq);
            }
        }
        // Completeness: every dropped seq with >=3 received above it is
        // eventually declared (the last few may lack the dupthresh).
        for &s in &drop_set {
            let above = (s + 1..200).filter(|x| !drop_set.contains(x)).count();
            if above >= 3 {
                prop_assert!(declared.contains(&s), "seq {s} should have been declared");
            }
        }
    }

    /// Token-bucket marker conformance: over any packet pattern, green
    /// bytes never exceed CIR * elapsed + CBS.
    #[test]
    fn token_bucket_green_conformance(
        gaps_us in prop::collection::vec(1u64..5_000, 1..300),
        cir_kbps in 64u64..10_000,
        cbs in 1_500u32..50_000,
    ) {
        let cir = Rate::from_kbps(cir_kbps);
        let mut m = TokenBucketMarker::new(cir, cbs);
        let mut now = SimTime::ZERO;
        let mut green_bytes = 0u64;
        for gap in gaps_us {
            now += Duration::from_micros(gap);
            let mut p = Packet::new(0, 0, 0, 1, 1_000, now, Vec::new());
            m.mark(now, &mut p);
            if p.color == Color::Green {
                green_bytes += 1_000;
            }
        }
        let budget = cir.bytes_per_sec() * now.as_secs_f64() + cbs as f64;
        prop_assert!(
            (green_bytes as f64) <= budget + 1_000.0,
            "green {green_bytes} exceeds budget {budget}"
        );
    }
}
