//! Receiver-side packet-loss detection (RFC 3448 §5.1).
//!
//! A packet is declared lost once at least [`NDUPACK`] packets with higher
//! sequence numbers have arrived — the same reordering tolerance TCP's
//! three-duplicate-ack rule provides. Because loss-*event* grouping needs
//! the (unknowable) send time of the lost packet, its sender timestamp is
//! estimated by linear interpolation between the timestamps of the packets
//! received immediately before and after the hole, as RFC 3448 prescribes.
//!
//! The detector tolerates arbitrary reordering and duplication: a late
//! packet that fills part of a pending hole shrinks or splits it.

use qtp_metrics::{CostMeter, OpClass, StateSize};
use qtp_simnet::time::SimTime;
use std::collections::VecDeque;

/// Packets-above-a-hole threshold before the hole is declared lost.
pub const NDUPACK: u32 = 3;

/// A declared packet loss with its estimated sender timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostPacket {
    /// Sequence number that never arrived.
    pub seq: u64,
    /// Interpolated sender timestamp of the missing packet.
    pub est_ts: SimTime,
}

/// A contiguous gap in the received sequence space, pending judgment.
#[derive(Debug, Clone, Copy)]
struct Hole {
    /// First missing sequence.
    start: u64,
    /// One past the last missing sequence.
    end: u64,
    /// Sequence/timestamp of the packet just below the hole.
    below_seq: u64,
    below_ts: SimTime,
    /// Sequence/timestamp of the first packet seen above the hole.
    above_seq: u64,
    above_ts: SimTime,
    /// Number of distinct packets received above the hole so far.
    above_count: u32,
}

impl Hole {
    /// Interpolate the sender timestamp for a missing sequence.
    fn estimate_ts(&self, seq: u64) -> SimTime {
        debug_assert!(self.below_seq < seq && seq < self.above_seq);
        let span_seq = (self.above_seq - self.below_seq) as f64;
        let frac = (seq - self.below_seq) as f64 / span_seq;
        let span_ns = self
            .above_ts
            .as_nanos()
            .saturating_sub(self.below_ts.as_nanos()) as f64;
        SimTime::from_nanos(self.below_ts.as_nanos() + (frac * span_ns) as u64)
    }
}

/// Sequence-gap loss detector.
#[derive(Debug, Clone)]
pub struct LossDetector {
    /// Highest sequence received so far, with its sender timestamp.
    highest: Option<(u64, SimTime)>,
    /// Open holes, ordered by ascending `start`.
    holes: VecDeque<Hole>,
    /// Packets the last `on_packet` declared lost; cleared and refilled by
    /// each call.
    pub(crate) declared: Vec<LostPacket>,
    /// Cost accounting for the E5 experiment.
    pub meter: CostMeter,
}

impl LossDetector {
    pub fn new() -> Self {
        LossDetector {
            highest: None,
            holes: VecDeque::new(),
            declared: Vec::new(),
            meter: CostMeter::new(),
        }
    }

    /// Highest sequence number received.
    pub fn highest_seq(&self) -> Option<u64> {
        self.highest.map(|(s, _)| s)
    }

    /// Number of unresolved holes (for inspection/tests).
    pub fn pending_holes(&self) -> usize {
        self.holes.len()
    }

    /// Process an arriving packet; returns the packets it declared lost, in
    /// ascending sequence order.
    pub fn on_packet(&mut self, seq: u64, sender_ts: SimTime) -> &[LostPacket] {
        self.declared.clear();
        self.meter.tick(OpClass::Compare, 1);
        let Some((hi, hi_ts)) = self.highest else {
            self.highest = Some((seq, sender_ts));
            self.meter.tick(OpClass::Update, 1);
            return &self.declared;
        };

        if seq > hi {
            if seq > hi + 1 {
                // New hole between the old highest and this packet.
                self.holes.push_back(Hole {
                    start: hi + 1,
                    end: seq,
                    below_seq: hi,
                    below_ts: hi_ts,
                    above_seq: seq,
                    above_ts: sender_ts,
                    above_count: 0, // incremented below with all others
                });
                self.meter.tick(OpClass::Alloc, 1);
            }
            self.highest = Some((seq, sender_ts));
            self.meter.tick(OpClass::Update, 1);
        } else {
            // seq <= hi: either fills a hole or is a duplicate.
            self.fill_hole(seq, sender_ts);
        }
        // This arrival counts as an "above" packet for every hole entirely
        // below it.
        for hole in &mut self.holes {
            self.meter.tick(OpClass::Scan, 1);
            if hole.end <= seq {
                hole.above_count += 1;
            }
        }
        self.harvest();
        &self.declared
    }

    /// Late arrival: remove `seq` from the hole containing it, splitting if
    /// it lands in the middle. Duplicates (not in any hole) are ignored.
    fn fill_hole(&mut self, seq: u64, sender_ts: SimTime) {
        let mut found = None;
        for (i, h) in self.holes.iter().enumerate() {
            self.meter.tick(OpClass::Scan, 1);
            if h.start <= seq && seq < h.end {
                found = Some(i);
                break;
            }
        }
        let Some(idx) = found else {
            return; // duplicate
        };
        self.meter.tick(OpClass::Update, 1);
        // The part above `seq` has it as its new lower neighbour; the part
        // below keeps the slot and has it as its new upper neighbour.
        let hole = &mut self.holes[idx];
        let right = Hole {
            start: seq + 1,
            below_seq: seq,
            below_ts: sender_ts,
            ..*hole
        };
        (hole.end, hole.above_seq, hole.above_ts) = (seq, seq, sender_ts);
        match (hole.start < seq, right.start < right.end) {
            (true, true) => {
                self.holes.insert(idx + 1, right);
                self.meter.tick(OpClass::Alloc, 2);
            }
            (true, false) => self.meter.tick(OpClass::Alloc, 1),
            (false, true) => {
                self.holes[idx] = right;
                self.meter.tick(OpClass::Alloc, 1);
            }
            (false, false) => {
                self.holes.remove(idx);
            }
        }
    }

    /// Declare every hole with enough packets above it. Holes are disjoint
    /// and ordered, so `declared` is filled sorted.
    fn harvest(&mut self) {
        let (declared, meter) = (&mut self.declared, &mut self.meter);
        self.holes.retain(|hole| {
            meter.tick(OpClass::Compare, 1);
            if hole.above_count < NDUPACK {
                return true;
            }
            for seq in hole.start..hole.end {
                declared.push(LostPacket {
                    seq,
                    est_ts: hole.estimate_ts(seq),
                });
                meter.tick(OpClass::Arith, 3);
            }
            false
        });
        debug_assert!(self.declared.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

impl Default for LossDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl StateSize for LossDetector {
    fn state_bytes(&self) -> usize {
        self.holes.len() * std::mem::size_of::<Hole>()
            + std::mem::size_of::<Option<(u64, SimTime)>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Feed `seqs` with timestamps seq*10ms; collect all declared losses.
    fn run(seqs: &[u64]) -> Vec<u64> {
        let mut d = LossDetector::new();
        let mut lost = Vec::new();
        for &s in seqs {
            lost.extend(d.on_packet(s, ts(s * 10)).iter().map(|l| l.seq));
        }
        lost
    }

    #[test]
    fn in_order_stream_has_no_loss() {
        assert!(run(&[0, 1, 2, 3, 4, 5]).is_empty());
    }

    #[test]
    fn single_gap_declared_after_three_above() {
        // 3 missing; packets 4,5,6 arrive above it.
        assert_eq!(run(&[0, 1, 2, 4, 5]), Vec::<u64>::new());
        assert_eq!(run(&[0, 1, 2, 4, 5, 6]), vec![3]);
    }

    #[test]
    fn multi_packet_hole_all_declared() {
        // 2,3,4 missing.
        assert_eq!(run(&[0, 1, 5, 6, 7]), vec![2, 3, 4]);
    }

    #[test]
    fn reordering_within_three_is_not_loss() {
        // 3 arrives late but before three packets pass above it.
        assert!(run(&[0, 1, 2, 4, 5, 3, 6, 7, 8]).is_empty());
    }

    #[test]
    fn late_fill_splits_hole() {
        // Hole 2..6; packet 4 arrives late, splitting into 2..4 and 5..6.
        // Then enough arrivals above declare both parts.
        let lost = run(&[0, 1, 6, 4, 7, 8]);
        assert_eq!(lost, vec![2, 3, 5]);
    }

    #[test]
    fn duplicates_are_ignored() {
        assert!(run(&[0, 1, 1, 1, 2, 2, 3]).is_empty());
        // Duplicates above a hole still count once each as arrivals above:
        // conservative is fine, but a fully-filled hole never re-declares.
        let lost = run(&[0, 2, 1, 1, 1, 1, 3]);
        assert!(lost.is_empty());
    }

    #[test]
    fn timestamp_interpolation_is_linear() {
        let mut d = LossDetector::new();
        assert!(d.on_packet(0, ts(0)).is_empty());
        // Hole 1..4 between ts 0 (seq 0) and ts 400 (seq 4).
        assert!(d.on_packet(4, ts(400)).is_empty());
        assert!(d.on_packet(5, ts(500)).is_empty());
        // Third packet above the hole declares it.
        let lost: Vec<(u64, SimTime)> = d
            .on_packet(6, ts(600))
            .iter()
            .map(|l| (l.seq, l.est_ts))
            .collect();
        assert_eq!(lost, [(1, ts(100)), (2, ts(200)), (3, ts(300))]);
    }

    #[test]
    fn multiple_holes_declared_independently() {
        // Holes at 1 and 3.
        let lost = run(&[0, 2, 4, 5, 6, 7]);
        assert_eq!(lost, vec![1, 3]);
    }

    #[test]
    fn first_packet_not_zero_is_fine() {
        // Sequence numbering can start anywhere; no hole before the first
        // received packet is assumed.
        assert!(run(&[10, 11, 12, 13]).is_empty());
    }

    #[test]
    fn state_grows_with_holes_and_shrinks_after_harvest() {
        let mut d = LossDetector::new();
        d.on_packet(0, ts(0));
        d.on_packet(2, ts(20));
        d.on_packet(4, ts(40));
        let with_holes = d.state_bytes();
        assert_eq!(d.pending_holes(), 2);
        d.on_packet(5, ts(50));
        d.on_packet(6, ts(60)); // declares both holes
        assert_eq!(d.pending_holes(), 0);
        assert!(d.state_bytes() < with_holes);
    }

    #[test]
    fn meter_accumulates() {
        let mut d = LossDetector::new();
        d.on_packet(0, ts(0));
        d.on_packet(5, ts(50));
        assert!(d.meter.total() > 0);
    }
}
