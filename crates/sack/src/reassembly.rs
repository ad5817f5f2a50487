//! The receiver side of selective acknowledgment: reassembly and SACK
//! block generation (RFC 2018 semantics).
//!
//! The receiver tracks a cumulative ack point (`cum_ack` = next expected
//! sequence) plus the set of out-of-order sequences. From these it builds
//! SACK blocks to report upstream, **most recently changed first** and
//! bounded in number, exactly as RFC 2018 §4 prescribes (TCP fits 3–4
//! blocks in its option space; QTP's wire format carries up to
//! [`MAX_SACK_BLOCKS`]).
//!
//! This tiny structure is the *entire* per-packet state of a QTPlight
//! receiver, which is the point of the paper's §3: compare its meter and
//! [`ReceiverBuffer::state_bytes`] against the RFC 3448 receiver's.

use qtp_metrics::{CostMeter, OpClass, StateSize};

use crate::ranges::{RangeSet, SeqRange};

/// Largest number of SACK blocks ever reported in one feedback packet.
pub const MAX_SACK_BLOCKS: usize = 4;

/// Recently changed blocks remembered for RFC 2018's ordering rule.
const RECENT_HINTS: usize = 2 * MAX_SACK_BLOCKS;

/// What happened when a data packet arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Sequence was already received (or below the cumulative ack).
    Duplicate,
    /// New sequence; `delivered` sequences became deliverable in order
    /// (0 if the packet left a gap outstanding).
    New { delivered: u64 },
}

/// Receiver-side reassembly state.
#[derive(Debug, Clone)]
pub struct ReceiverBuffer {
    /// Next expected in-order sequence; everything below is delivered.
    cum_ack: u64,
    /// Received out-of-order sequences (all `>= cum_ack`).
    ooo: RangeSet,
    /// Recently changed received blocks, most recent first (for RFC 2018's
    /// ordering rule), distinct; the first `recent_len` are live. Entries
    /// may be stale; they are re-validated against `ooo` when blocks are
    /// generated.
    recent: [SeqRange; RECENT_HINTS],
    recent_len: usize,
    /// Total sequences delivered in order to the application.
    delivered_total: u64,
    /// Sequences skipped by sender `FWD` instructions (expired ADUs under
    /// partial reliability) — counted separately from deliveries.
    skipped_total: u64,
    /// Sequences that arrived but were dropped at the receiver because
    /// their TTL had expired ([`ReceiverBuffer::on_expired`]). They are
    /// acknowledged like any arrival — the hole they would otherwise leave
    /// is skipped — but never handed to the application.
    expired_total: u64,
    /// Expired sequences still at or above `cum_ack`: when the cumulative
    /// ack later passes one (a run flush or FWD counts it as delivered),
    /// [`ReceiverBuffer::settle_expired`] reclassifies it.
    expired: RangeSet,
    /// Per-packet processing cost (the QTPlight receiver's entire load).
    pub meter: CostMeter,
}

impl ReceiverBuffer {
    pub fn new() -> Self {
        ReceiverBuffer {
            cum_ack: 0,
            ooo: RangeSet::new(),
            recent: [SeqRange { start: 0, end: 0 }; RECENT_HINTS],
            recent_len: 0,
            delivered_total: 0,
            skipped_total: 0,
            expired_total: 0,
            expired: RangeSet::new(),
            meter: CostMeter::new(),
        }
    }

    /// Next expected sequence (the cumulative ack to report).
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Sequences delivered in order so far.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Sequences skipped under partial reliability.
    pub fn skipped_total(&self) -> u64 {
        self.skipped_total
    }

    /// Sequences dropped at the receiver because their TTL expired.
    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    /// Out-of-order sequences currently buffered.
    pub fn buffered(&self) -> u64 {
        self.ooo.len()
    }

    /// Process an arriving sequence number.
    pub fn on_packet(&mut self, seq: u64) -> Arrival {
        self.meter.tick(OpClass::Compare, 1);
        if seq < self.cum_ack || self.ooo.contains(seq) {
            return Arrival::Duplicate;
        }
        if seq == self.cum_ack {
            // In-order: advance through any buffered run.
            self.cum_ack += 1;
            if !self.ooo.is_empty() {
                self.meter.tick(OpClass::Compare, 1);
            }
            let delivered = 1 + self.flush_run();
            self.delivered_total += delivered;
            self.meter.tick(OpClass::Update, 2);
            // No `note_recent`: an in-order arrival creates no SACK block
            // (anything it merged with was delivered and vanished), so the
            // common case costs nothing beyond the counter updates.
            return Arrival::New { delivered };
        }
        // Out of order: buffer it.
        self.ooo.insert(seq);
        self.meter.tick(OpClass::Alloc, 1);
        self.note_recent(SeqRange::new(seq, seq + 1));
        Arrival::New { delivered: 0 }
    }

    /// Process a sequence that arrived **too late to use** (its TTL
    /// expired in flight, judged by the caller). The sequence is
    /// acknowledged exactly like [`ReceiverBuffer::on_packet`] — it fills
    /// its hole, advances the cumulative ack, appears in SACK blocks, and
    /// duplicates of it are still detected — but it is counted in
    /// [`ReceiverBuffer::expired_total`] instead of contributing payload.
    /// Sequences an expired arrival *releases* (a buffered run it makes
    /// contiguous) still count as delivered: they arrived on time and were
    /// only waiting for the hole.
    ///
    /// Returns the same [`Arrival`] as `on_packet`, so callers can tell a
    /// hole-filling expiry (`New`) from a duplicate of one.
    pub fn on_expired(&mut self, seq: u64) -> Arrival {
        let arrival = self.on_packet(seq);
        if matches!(arrival, Arrival::New { .. }) {
            self.expired_total += 1;
            if seq < self.cum_ack {
                // Flushed immediately: `on_packet` counted it as
                // delivered; reclassify just this one sequence.
                self.delivered_total -= 1;
            } else {
                // Buffered out of order: it will be counted as delivered
                // when the cumulative ack eventually passes it; remember
                // it so `settle_expired` can reclassify it then.
                self.expired.insert(seq);
            }
            self.meter.tick(OpClass::Update, 1);
        }
        self.settle_expired();
        arrival
    }

    /// Reclassify expired sequences the cumulative ack has passed (a run
    /// flush or FWD counted them as delivered when releasing the buffered
    /// run). Callers using [`ReceiverBuffer::on_expired`] should invoke
    /// this after `on_packet`/`on_forward` too, so the delivered count
    /// never includes payload that was dropped on arrival; `on_expired`
    /// calls it itself.
    pub fn settle_expired(&mut self) {
        if self.expired.is_empty() {
            return;
        }
        let passed: u64 = self
            .expired
            .iter()
            .take_while(|r| r.start < self.cum_ack)
            .map(|r| r.end.min(self.cum_ack) - r.start)
            .sum();
        if passed > 0 {
            self.delivered_total -= passed;
            self.expired.remove_below(self.cum_ack);
            self.meter.tick(OpClass::Update, 1);
        }
    }

    /// Sender instruction to skip everything below `new_cum` (partial
    /// reliability FWD, like PR-SCTP's FORWARD-TSN). Buffered sequences in
    /// the skipped region still count as delivered data.
    pub fn on_forward(&mut self, new_cum: u64) {
        self.meter.tick(OpClass::Compare, 1);
        if new_cum <= self.cum_ack {
            return;
        }
        // Buffered sequences inside the skipped window were real arrivals.
        let buffered_inside: u64 = self
            .ooo
            .iter()
            .take_while(|r| r.start < new_cum)
            .map(|r| r.end.min(new_cum) - r.start)
            .sum();
        self.skipped_total += (new_cum - self.cum_ack) - buffered_inside;
        self.delivered_total += buffered_inside;
        self.cum_ack = new_cum;
        self.ooo.remove_below(new_cum);
        self.meter.tick(OpClass::Update, 3);
        // The jump may make a buffered run contiguous with the new cum.
        self.delivered_total += self.flush_run();
    }

    /// Deliver the buffered run starting at the cumulative ack, if there is
    /// one; returns its length.
    fn flush_run(&mut self) -> u64 {
        let Some(run) = self.ooo.iter().next().filter(|r| r.start == self.cum_ack) else {
            return 0;
        };
        self.cum_ack = run.end;
        self.ooo.remove_below(run.end);
        self.meter.tick(OpClass::Update, 2);
        run.len()
    }

    /// Record that a block changed recently (for block ordering): move it
    /// to the front, or insert it there and drop the oldest hint if full.
    fn note_recent(&mut self, r: SeqRange) {
        let last = match self.recent[..self.recent_len].iter().position(|x| *x == r) {
            Some(i) => i,
            None => {
                self.recent_len = (self.recent_len + 1).min(RECENT_HINTS);
                self.recent_len - 1
            }
        };
        self.recent[..=last].rotate_right(1);
        self.recent[0] = r;
        self.meter.tick(OpClass::Update, 1);
    }

    /// Build up to `max` SACK blocks: the out-of-order ranges, most
    /// recently changed first (RFC 2018 §4's "most recently reported
    /// first" rule), deduplicated, each a maximal contiguous range.
    pub fn sack_blocks(&mut self, max: usize) -> Vec<SeqRange> {
        let mut blocks = vec![SeqRange { start: 0, end: 0 }; max];
        let n = self.sack_blocks_into(&mut blocks);
        blocks.truncate(n);
        blocks
    }

    /// [`ReceiverBuffer::sack_blocks`] into a caller-owned array, at most
    /// `out.len()` of them; returns how many were written. Allocates
    /// nothing, which is what a per-feedback path wants.
    pub fn sack_blocks_into(&mut self, out: &mut [SeqRange]) -> usize {
        let mut n = 0;
        self.meter
            .tick(OpClass::Scan, self.ooo.range_count() as u64);
        // Most-recent hints first: map each hint to the live range
        // containing it (hints may be stale after merges), then fill the
        // remaining slots with any uncovered live ranges (ascending).
        let hinted = self.recent[..self.recent_len]
            .iter()
            .filter_map(|hint| self.ooo.iter().find(|r| r.contains(hint.start)));
        for r in hinted.chain(self.ooo.iter()) {
            if n == out.len() {
                break;
            }
            if !out[..n].contains(&r) {
                out[n] = r;
                n += 1;
            }
        }
        n
    }
}

impl Default for ReceiverBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl StateSize for ReceiverBuffer {
    fn state_bytes(&self) -> usize {
        self.ooo.state_bytes()
            + self.expired.state_bytes()
            + self.recent_len * std::mem::size_of::<SeqRange>()
            + 3 * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_delivery() {
        let mut b = ReceiverBuffer::new();
        for seq in 0..5 {
            assert_eq!(b.on_packet(seq), Arrival::New { delivered: 1 });
        }
        assert_eq!(b.cum_ack(), 5);
        assert_eq!(b.delivered_total(), 5);
        assert_eq!(b.buffered(), 0);
        assert!(b.sack_blocks(4).is_empty());
    }

    #[test]
    fn gap_buffers_then_flushes() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        assert_eq!(b.on_packet(2), Arrival::New { delivered: 0 });
        assert_eq!(b.on_packet(3), Arrival::New { delivered: 0 });
        assert_eq!(b.buffered(), 2);
        // The missing packet flushes the whole run.
        assert_eq!(b.on_packet(1), Arrival::New { delivered: 3 });
        assert_eq!(b.cum_ack(), 4);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn duplicates_detected_everywhere() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        b.on_packet(2);
        assert_eq!(b.on_packet(0), Arrival::Duplicate, "below cum_ack");
        assert_eq!(b.on_packet(2), Arrival::Duplicate, "buffered");
    }

    #[test]
    fn sack_blocks_report_ooo_ranges() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        b.on_packet(2);
        b.on_packet(3);
        b.on_packet(6);
        let blocks = b.sack_blocks(4);
        assert_eq!(blocks.len(), 2);
        assert!(blocks.contains(&SeqRange::new(2, 4)));
        assert!(blocks.contains(&SeqRange::new(6, 7)));
    }

    #[test]
    fn most_recent_block_first() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        b.on_packet(5); // older block
        b.on_packet(10); // newer block
        let blocks = b.sack_blocks(4);
        assert_eq!(blocks[0], SeqRange::new(10, 11), "most recent first");
        assert_eq!(blocks[1], SeqRange::new(5, 6));
        // Touching the old block promotes it.
        b.on_packet(6);
        let blocks = b.sack_blocks(4);
        assert_eq!(blocks[0], SeqRange::new(5, 7));
    }

    #[test]
    fn block_count_is_bounded() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        for k in 1..20 {
            b.on_packet(k * 2); // 19 isolated blocks
        }
        assert_eq!(b.sack_blocks(4).len(), 4);
        assert_eq!(b.sack_blocks(MAX_SACK_BLOCKS).len(), MAX_SACK_BLOCKS);
    }

    #[test]
    fn forward_skips_missing_data() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        b.on_packet(3); // 1, 2 missing
        b.on_forward(3);
        assert_eq!(b.cum_ack(), 4, "jump merges with the buffered 3");
        assert_eq!(b.skipped_total(), 2);
        assert_eq!(b.delivered_total(), 2, "0 and 3 were real arrivals");
    }

    #[test]
    fn forward_backwards_is_ignored() {
        let mut b = ReceiverBuffer::new();
        for seq in 0..5 {
            b.on_packet(seq);
        }
        b.on_forward(2);
        assert_eq!(b.cum_ack(), 5);
        assert_eq!(b.skipped_total(), 0);
    }

    #[test]
    fn forward_counts_buffered_as_delivered() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(2);
        b.on_packet(4);
        b.on_forward(5); // skips 0,1,3; 2 and 4 arrived
        assert_eq!(b.cum_ack(), 5);
        assert_eq!(b.skipped_total(), 3);
        assert_eq!(b.delivered_total(), 2);
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn expired_in_order_acks_without_delivering() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        assert_eq!(b.on_expired(1), Arrival::New { delivered: 1 });
        assert_eq!(b.cum_ack(), 2, "expired arrival still fills its hole");
        assert_eq!(b.delivered_total(), 1, "only seq 0 delivered payload");
        assert_eq!(b.expired_total(), 1);
        assert_eq!(b.on_expired(1), Arrival::Duplicate, "re-sent after drop");
        assert_eq!(b.expired_total(), 1, "duplicates don't recount");
    }

    #[test]
    fn expired_releasing_a_buffered_run_delivers_the_run() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        b.on_packet(2); // on-time, buffered behind the hole at 1
        b.on_packet(3);
        assert_eq!(b.on_expired(1), Arrival::New { delivered: 3 });
        assert_eq!(b.cum_ack(), 4);
        // 0, 2, 3 were on time; the expired 1 is acked but not delivered.
        assert_eq!(b.delivered_total(), 3);
        assert_eq!(b.expired_total(), 1);
    }

    #[test]
    fn buffered_expired_is_reclassified_when_the_hole_fills() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        assert_eq!(b.on_expired(2), Arrival::New { delivered: 0 });
        assert_eq!(b.delivered_total(), 1);
        // The on-time packet 1 flushes the run 1..3 — but 2 was expired.
        assert_eq!(b.on_packet(1), Arrival::New { delivered: 2 });
        b.settle_expired();
        assert_eq!(b.cum_ack(), 3);
        assert_eq!(b.delivered_total(), 2, "0 and 1 delivered, 2 dropped");
        assert_eq!(b.expired_total(), 1);
    }

    #[test]
    fn forward_past_buffered_expired_settles() {
        let mut b = ReceiverBuffer::new();
        b.on_expired(3); // buffered, expired
        b.on_packet(4); // buffered, on time
        b.on_forward(5); // sender skips 0..5
        b.settle_expired();
        assert_eq!(b.cum_ack(), 5);
        assert_eq!(b.skipped_total(), 3, "0,1,2 never arrived");
        assert_eq!(b.delivered_total(), 1, "only 4 carried usable payload");
        assert_eq!(b.expired_total(), 1);
    }

    #[test]
    fn per_packet_cost_is_constant_scale() {
        // The QTPlight receiver premise: cost per packet must not grow with
        // stream length (no history structure).
        let mut b = ReceiverBuffer::new();
        for seq in 0..100 {
            b.on_packet(seq);
        }
        let after_100 = b.meter.total();
        for seq in 100..10_000 {
            b.on_packet(seq);
        }
        let per_pkt_early = after_100 as f64 / 100.0;
        let per_pkt_late = (b.meter.total() - after_100) as f64 / 9_900.0;
        assert!(
            (per_pkt_late / per_pkt_early) < 1.5,
            "in-order cost must be flat: early={per_pkt_early}, late={per_pkt_late}"
        );
    }

    #[test]
    fn state_bytes_tracks_fragmentation() {
        let mut b = ReceiverBuffer::new();
        b.on_packet(0);
        let tidy = b.state_bytes();
        for k in 1..10 {
            b.on_packet(k * 2);
        }
        assert!(b.state_bytes() > tidy);
    }
}
