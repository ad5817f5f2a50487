//! Property tests for the SACK substrate: range-set invariants, reassembly
//! correctness under arbitrary reordering/duplication, block generation
//! rules and scoreboard soundness.

use proptest::prelude::*;
use qtp::sack::{Arrival, RangeSet, ReceiverBuffer, Scoreboard, SeqRange, MAX_SACK_BLOCKS};
use qtp::simnet::time::SimTime;
use std::collections::BTreeSet;

proptest! {
    /// RangeSet agrees with a naive BTreeSet model under arbitrary
    /// insert/remove sequences, and its invariants always hold.
    #[test]
    fn rangeset_matches_set_model(ops in prop::collection::vec((any::<bool>(), 0u64..200), 1..400)) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for (insert, v) in ops {
            if insert {
                prop_assert_eq!(rs.insert(v), model.insert(v));
            } else {
                prop_assert_eq!(rs.remove(v), model.remove(&v));
            }
            rs.check_invariants().map_err(TestCaseError::fail)?;
        }
        prop_assert_eq!(rs.len(), model.len() as u64);
        for v in 0..200 {
            prop_assert_eq!(rs.contains(v), model.contains(&v));
        }
        prop_assert_eq!(rs.first(), model.iter().next().copied());
    }

    /// insert_range reports exactly the number of new values.
    #[test]
    fn rangeset_insert_range_counts(ranges in prop::collection::vec((0u64..300, 1u64..30), 1..60)) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for (start, len) in ranges {
            let added = rs.insert_range(SeqRange::new(start, start + len));
            let mut model_added = 0;
            for v in start..start + len {
                if model.insert(v) {
                    model_added += 1;
                }
            }
            prop_assert_eq!(added, model_added);
            rs.check_invariants().map_err(TestCaseError::fail)?;
        }
    }

    /// holes_within yields exactly the complement within the window, as
    /// maximal ranges in ascending order, and stays exhausted once done.
    #[test]
    fn rangeset_holes_are_complement(
        values in prop::collection::btree_set(0u64..100, 0..60),
        lo in 0u64..50,
        width in 1u64..60,
    ) {
        let mut rs = RangeSet::new();
        for &v in &values {
            rs.insert(v);
        }
        let hi = lo + width;
        let mut holes = rs.holes_within(lo, hi);
        let mut hole_vals = BTreeSet::new();
        let mut prev: Option<SeqRange> = None;
        for h in holes.by_ref() {
            prop_assert!(lo <= h.start && h.end <= hi, "{} outside the window", h);
            // Sorted, disjoint and maximal: a gap separates consecutive holes.
            if let Some(p) = prev {
                prop_assert!(p.end < h.start, "{} then {}", p, h);
            }
            hole_vals.extend(h.start..h.end);
            prev = Some(h);
        }
        prop_assert!(holes.next().is_none());
        // Every hole value is missing; every non-hole value in-window is present.
        for v in lo..hi {
            prop_assert_eq!(hole_vals.contains(&v), !values.contains(&v));
        }
    }

    /// In-place remove_range agrees with a BTreeSet model: the removed
    /// count, the members left and the coalescing invariants.
    #[test]
    fn rangeset_remove_range_matches_set_model(
        inserts in prop::collection::vec((0u64..200, 1u64..20), 0..40),
        removes in prop::collection::vec((0u64..220, 1u64..40), 1..20),
    ) {
        let mut rs = RangeSet::new();
        let mut model = BTreeSet::new();
        for (start, len) in inserts {
            rs.insert_range(SeqRange::new(start, start + len));
            model.extend(start..start + len);
        }
        for (start, len) in removes {
            let removed = rs.remove_range(SeqRange::new(start, start + len));
            let before = model.len();
            model.retain(|v| !(start..start + len).contains(v));
            prop_assert_eq!(removed, (before - model.len()) as u64);
            rs.check_invariants().map_err(TestCaseError::fail)?;
            prop_assert_eq!(rs.len(), model.len() as u64);
            prop_assert!(rs.iter().flat_map(|r| r.start..r.end).eq(model.iter().copied()));
        }
    }

    /// Reassembly: any arrival permutation with duplicates delivers exactly
    /// the full prefix, and SACK blocks are always disjoint, sorted-per-
    /// block, above the cumulative ack and bounded in count.
    #[test]
    fn reassembly_exactness(mut order in Just(()).prop_flat_map(|_| {
        prop::collection::vec(0u64..64, 64..200)
    })) {
        // Ensure every seq 0..64 appears at least once: append a shuffle.
        order.extend(0..64);
        let mut buf = ReceiverBuffer::new();
        let mut delivered = 0;
        for &seq in &order {
            if let qtp::sack::Arrival::New { delivered: d } = buf.on_packet(seq) {
                delivered += d;
            }
            let blocks = buf.sack_blocks(4);
            prop_assert!(blocks.len() <= 4);
            for b in &blocks {
                prop_assert!(b.start < b.end);
                prop_assert!(b.start > buf.cum_ack());
            }
            // Blocks pairwise disjoint.
            for i in 0..blocks.len() {
                for j in i + 1..blocks.len() {
                    let (a, b2) = (&blocks[i], &blocks[j]);
                    prop_assert!(a.end <= b2.start || b2.end <= a.start);
                }
            }
        }
        prop_assert_eq!(delivered, 64);
        prop_assert_eq!(buf.cum_ack(), 64);
        prop_assert_eq!(buf.delivered_total(), 64);
        prop_assert_eq!(buf.buffered(), 0);
    }

    /// The receiver's fixed array of recent-block hints orders SACK blocks
    /// exactly as the growable list it replaced: `recent` below is that
    /// list (`retain`, `insert(0, ..)`, `truncate`), fed every out-of-order
    /// arrival, and its blocks must match after every arrival, for every
    /// report size.
    #[test]
    fn fixed_recent_hints_match_the_vec_they_replaced(
        order in prop::collection::vec(0u64..80, 1..300),
        max in 1usize..=2 * MAX_SACK_BLOCKS,
    ) {
        let mut buf = ReceiverBuffer::new();
        let mut recent: Vec<SeqRange> = Vec::new();
        let empty = SeqRange { start: 0, end: 0 };
        let (mut got, mut want, mut live) = (vec![empty; max], vec![empty; max], [empty; 80]);
        for &seq in &order {
            if buf.on_packet(seq) == (Arrival::New { delivered: 0 }) {
                let r = SeqRange::new(seq, seq + 1);
                recent.retain(|x| x.start != r.start || x.end != r.end);
                recent.insert(0, r);
                recent.truncate(2 * MAX_SACK_BLOCKS);
            }
            let n = buf.sack_blocks_into(&mut got);
            // Every buffered range, ascending, whatever the hints say.
            let k = buf.sack_blocks_into(&mut live);
            live[..k].sort_by_key(|r| r.start);
            let live = &live[..k];
            let hinted = recent
                .iter()
                .filter_map(|hint| live.iter().find(|r| r.contains(hint.start)));
            let mut m = 0;
            for &r in hinted.chain(live) {
                if m < max && !want[..m].contains(&r) {
                    want[m] = r;
                    m += 1;
                }
            }
            prop_assert_eq!(&got[..n], &want[..m], "after seq {}", seq);
        }
    }

    /// Scoreboard: cumulative accounting never loses a sequence — every
    /// sent sequence is exactly one of {cum-acked, sacked, lost-pending,
    /// in-flight} and counts match.
    #[test]
    fn scoreboard_conservation(
        n in 10u64..100,
        cum in 0u64..50,
        blocks in prop::collection::vec((0u64..100, 1u64..10), 0..4),
    ) {
        let mut sb = Scoreboard::new();
        for k in 0..n {
            sb.register_send(SimTime::from_micros(k));
        }
        let cum = cum.min(n);
        let blocks: Vec<SeqRange> = blocks
            .into_iter()
            .filter(|(s, _)| *s < n)
            .map(|(s, l)| SeqRange::new(s, (s + l).min(n)))
            .collect();
        sb.on_feedback(cum, &blocks);
        let outstanding = sb.in_flight();
        let lost: u64 = sb.lost_pending().map(|r| r.len()).sum();
        // in_flight is defined as total - sacked - lost; so this identity
        // plus non-negativity is the conservation check.
        prop_assert!(outstanding + lost <= n - sb.cum_ack());
        prop_assert!(sb.cum_ack() >= cum.min(n));
        prop_assert!(sb.highest_seen() <= n);
    }
}

#[test]
fn simtime_reexport_paths_work() {
    // Guard against facade path regressions used above.
    let t = SimTime::from_millis(5);
    assert_eq!(t.as_nanos(), 5_000_000);
}
