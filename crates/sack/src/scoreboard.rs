//! The sender side of selective acknowledgment: the scoreboard.
//!
//! Tracks, for every transmitted-but-unacknowledged sequence, whether it
//! has been selectively acknowledged, declared lost, or is still in flight.
//! Loss declaration follows the SACK-based rule TCP uses (RFC 6675's
//! `DupThresh`): an unacknowledged sequence is lost once **three or more**
//! sequences above it have been SACKed.
//!
//! The scoreboard also keeps the sender's only per-sequence record: for
//! every sequence in `[cum_ack, next_seq)`, its latest **send timestamp**,
//! its retransmission count and the submission time of the ADU it carries.
//! The send times let a QTPlight sender group newly-declared losses into
//! TFRC loss events by send time without any receiver help (paper §3); the
//! count and ADU time are what the reliability policy judges a loss by.

use qtp_metrics::{CostMeter, OpClass, StateSize};
use qtp_simnet::time::SimTime;
use std::collections::VecDeque;

use crate::ranges::{RangeSet, SeqRange};

/// SACKed-sequences-above threshold for loss declaration (RFC 6675).
pub const DUP_THRESH: u64 = 3;

/// What the sender keeps for one unacknowledged sequence.
#[derive(Debug, Clone, Copy)]
struct Sent {
    /// Latest transmission; a retransmission overwrites it.
    at: SimTime,
    /// Times the sequence has been retransmitted.
    retx: u32,
    /// When the application submitted the ADU the sequence carries.
    adu_at: SimTime,
}

/// Sender-side SACK scoreboard.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    /// Next sequence never yet sent.
    next_seq: u64,
    /// Everything below is cumulatively acknowledged.
    cum_ack: u64,
    /// SACKed sequences in `[cum_ack, next_seq)`.
    sacked: RangeSet,
    /// Sequences declared lost and not yet retransmitted.
    lost_pending: RangeSet,
    /// Sequences ever declared lost (so they are not re-declared).
    ever_lost: RangeSet,
    /// One record per sequence in `[cum_ack, next_seq)`, indexed by
    /// `seq - base`: the back is `next_seq - 1`, and a cumulative ack pops
    /// the front, so acknowledging any number of packets frees nothing.
    sent: VecDeque<Sent>,
    /// Sequences the last `on_feedback` declared lost, with their send
    /// timestamps; cleared and refilled by each call.
    newly_lost: Vec<(u64, SimTime)>,
    /// Cost accounting (sender side of the E5 ledger).
    pub meter: CostMeter,
}

impl Scoreboard {
    pub fn new() -> Self {
        Scoreboard {
            next_seq: 0,
            cum_ack: 0,
            sacked: RangeSet::new(),
            lost_pending: RangeSet::new(),
            ever_lost: RangeSet::new(),
            sent: VecDeque::new(),
            newly_lost: Vec::new(),
            meter: CostMeter::new(),
        }
    }

    /// Allocate the next fresh sequence number and record its transmission;
    /// the data is its own ADU, submitted `now`.
    pub fn register_send(&mut self, now: SimTime) -> u64 {
        self.register_send_adu(now, now)
    }

    /// [`Scoreboard::register_send`] for data the application submitted at
    /// `adu_at`.
    pub fn register_send_adu(&mut self, now: SimTime, adu_at: SimTime) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent.push_back(Sent {
            at: now,
            retx: 0,
            adu_at,
        });
        self.meter.tick(OpClass::Alloc, 1);
        seq
    }

    /// Make room for `n` more unacknowledged sequences, so the record ring
    /// does not grow while they are outstanding.
    pub fn reserve(&mut self, n: usize) {
        self.sent.reserve(n);
    }

    /// Sequence whose record sits at the front of `sent`.
    fn base(&self) -> u64 {
        self.next_seq - self.sent.len() as u64
    }

    /// The record of `seq`, while it is unacknowledged.
    fn sent(&self, seq: u64) -> Option<&Sent> {
        let i = seq.checked_sub(self.base())?;
        self.sent.get(i as usize)
    }

    /// Record a retransmission of `seq` (must be below `next_seq`).
    pub fn register_retransmit(&mut self, seq: u64, now: SimTime) {
        debug_assert!(seq < self.next_seq, "retransmit of unsent seq {seq}");
        let base = self.base();
        if let Some(sent) = seq
            .checked_sub(base)
            .and_then(|i| self.sent.get_mut(i as usize))
        {
            sent.at = now;
            sent.retx += 1;
        }
        self.lost_pending.remove(seq);
        self.meter.tick(OpClass::Update, 2);
    }

    /// Times `seq` has been retransmitted (0 once it is acknowledged).
    pub fn retx_count(&self, seq: u64) -> u32 {
        self.sent(seq).map_or(0, |s| s.retx)
    }

    /// When the ADU carried by `seq` was submitted, while `seq` is
    /// unacknowledged.
    pub fn adu_at(&self, seq: u64) -> Option<SimTime> {
        self.sent(seq).map(|s| s.adu_at)
    }

    /// Sequences the last [`Scoreboard::on_feedback`] declared lost by the
    /// DupThresh rule, with their original send timestamps, ascending.
    pub fn newly_lost(&self) -> &[(u64, SimTime)] {
        &self.newly_lost
    }

    /// Next sequence that has never been sent.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Cumulative ack point.
    pub fn cum_ack(&self) -> u64 {
        self.cum_ack
    }

    /// Sequences sent but neither cum-acked nor SACKed nor pending-lost.
    pub fn in_flight(&self) -> u64 {
        (self.next_seq - self.cum_ack) - self.sacked.len() - self.lost_pending.len()
    }

    /// Is everything sent also acknowledged (cumulatively)?
    pub fn all_acked(&self) -> bool {
        self.cum_ack == self.next_seq
    }

    /// Lost sequences awaiting retransmission, ascending.
    pub fn lost_pending(&self) -> impl Iterator<Item = SeqRange> + '_ {
        self.lost_pending.iter()
    }

    /// Pop the lowest lost sequence for retransmission, if any.
    pub fn next_lost(&self) -> Option<u64> {
        self.lost_pending.first()
    }

    /// Remove a sequence from the lost set *without* retransmitting it
    /// (partial reliability decided to abandon it).
    pub fn abandon(&mut self, seq: u64) -> bool {
        self.meter.tick(OpClass::Update, 1);
        self.lost_pending.remove(seq)
    }

    /// Apply one feedback packet: new cumulative ack plus SACK blocks. The
    /// sequences it declares lost are then in [`Scoreboard::newly_lost`].
    pub fn on_feedback(&mut self, cum_ack: u64, blocks: &[SeqRange]) {
        self.newly_lost.clear();
        self.meter.tick(OpClass::Compare, 1 + blocks.len() as u64);

        // 1. Advance the cumulative ack.
        if cum_ack > self.cum_ack {
            self.cum_ack = cum_ack;
            self.sacked.remove_below(cum_ack);
            self.lost_pending.remove_below(cum_ack);
            self.ever_lost.remove_below(cum_ack);
            // Drop the acknowledged records.
            let acked = cum_ack.saturating_sub(self.base());
            self.sent.drain(..(acked as usize).min(self.sent.len()));
            self.meter.tick(OpClass::Update, 5);
        }

        // 2. Record SACK blocks. A sacked sequence is no longer pending
        // retransmission.
        for b in blocks {
            if b.end <= self.cum_ack {
                continue;
            }
            let clipped = SeqRange::new(b.start.max(self.cum_ack), b.end);
            self.sacked.insert_range(clipped);
            self.lost_pending.remove_range(clipped);
            self.meter.tick(OpClass::Update, 2);
        }

        // 3. Loss declaration: holes with >= DUP_THRESH sacked above. Holes
        // come in ascending order, and so do the sequences inside each, so
        // `newly_lost` is filled sorted.
        if let Some(highest_sacked_end) = self.sacked.max_end() {
            for hole in self.sacked.holes_within(self.cum_ack, highest_sacked_end) {
                self.meter.tick(OpClass::Scan, 1);
                for seq in hole.start..hole.end {
                    self.meter.tick(OpClass::Compare, 1);
                    if self.ever_lost.contains(seq) {
                        continue;
                    }
                    if self.sacked.count_above(seq) >= DUP_THRESH {
                        self.ever_lost.insert(seq);
                        self.lost_pending.insert(seq);
                        let ts = self.sent(seq).map_or(SimTime::ZERO, |s| s.at);
                        self.newly_lost.push((seq, ts));
                        self.meter.tick(OpClass::Alloc, 2);
                    }
                }
            }
        }
        debug_assert!(self.newly_lost.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// Declare a range lost without SACK evidence (endpoint timeout fallback
    /// for tail losses). Sacked sequences and sequences already pending
    /// retransmission are skipped — but sequences whose earlier
    /// *retransmission* is presumed lost are re-marked (unlike the SACK
    /// path, a timeout invalidates every in-flight copy). Returns how many
    /// sequences were declared.
    pub fn force_mark_lost(&mut self, range: SeqRange) -> u64 {
        let mut declared = 0;
        for seq in range.start.max(self.cum_ack)..range.end.min(self.next_seq) {
            self.meter.tick(OpClass::Compare, 1);
            if self.sacked.contains(seq) || self.lost_pending.contains(seq) {
                continue;
            }
            self.ever_lost.insert(seq);
            self.lost_pending.insert(seq);
            declared += 1;
            self.meter.tick(OpClass::Alloc, 2);
        }
        declared
    }

    /// Highest sequence the receiver has demonstrably seen: the cumulative
    /// ack or the top of the highest SACK block. The sender-side loss
    /// estimator uses this as its "highest received" bound.
    pub fn highest_seen(&self) -> u64 {
        self.sacked.max_end().unwrap_or(0).max(self.cum_ack)
    }

    /// Oldest outstanding (unsacked, unacked, not pending-lost) sequence's
    /// send time — drives tail-loss timeouts at the endpoint.
    pub fn oldest_outstanding_send_time(&self) -> Option<SimTime> {
        (self.base()..)
            .zip(&self.sent)
            .find(|(seq, _)| !self.sacked.contains(*seq) && !self.lost_pending.contains(*seq))
            .map(|(_, s)| s.at)
    }
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl StateSize for Scoreboard {
    fn state_bytes(&self) -> usize {
        self.sacked.state_bytes()
            + self.lost_pending.state_bytes()
            + self.ever_lost.state_bytes()
            + self.sent.len() * std::mem::size_of::<Sent>()
            + 2 * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// Send n packets at 10 ms spacing.
    fn sender_with(n: u64) -> Scoreboard {
        let mut sb = Scoreboard::new();
        for k in 0..n {
            let seq = sb.register_send(ts(k * 10));
            assert_eq!(seq, k);
        }
        sb
    }

    #[test]
    fn cumulative_ack_advances() {
        let mut sb = sender_with(10);
        sb.on_feedback(5, &[]);
        assert_eq!(sb.cum_ack(), 5);
        assert_eq!(sb.in_flight(), 5);
        assert!(sb.newly_lost().is_empty());
        // Regression of the ack point is ignored.
        sb.on_feedback(3, &[]);
        assert_eq!(sb.cum_ack(), 5);
    }

    #[test]
    fn sack_blocks_counted_once() {
        let mut sb = sender_with(10);
        sb.on_feedback(2, &[SeqRange::new(4, 5)]);
        assert_eq!(sb.in_flight(), 7);
        sb.on_feedback(2, &[SeqRange::new(4, 6)]);
        assert_eq!(sb.in_flight(), 6, "only seq 5 is new");
    }

    #[test]
    fn dupthresh_loss_declaration() {
        let mut sb = sender_with(10);
        // Hole at 2; sacks 3,4 -> only 2 above, not lost yet.
        sb.on_feedback(2, &[SeqRange::new(3, 5)]);
        assert!(sb.newly_lost().is_empty());
        // Third sacked above declares it, carrying the original send time.
        sb.on_feedback(2, &[SeqRange::new(3, 6)]);
        assert_eq!(sb.newly_lost(), [(2, ts(20))]);
        assert_eq!(sb.next_lost(), Some(2));
        // Never re-declared.
        sb.on_feedback(2, &[SeqRange::new(3, 8)]);
        assert!(sb.newly_lost().is_empty());
    }

    #[test]
    fn multi_packet_hole_declared_in_order() {
        let mut sb = sender_with(12);
        sb.on_feedback(2, &[SeqRange::new(6, 9)]);
        let lost: Vec<u64> = sb.newly_lost().iter().map(|(s, _)| *s).collect();
        assert_eq!(lost, vec![2, 3, 4, 5]);
    }

    #[test]
    fn retransmit_clears_pending_and_counts() {
        let mut sb = sender_with(10);
        sb.on_feedback(2, &[SeqRange::new(3, 6)]);
        assert_eq!(sb.next_lost(), Some(2));
        sb.register_retransmit(2, ts(200));
        assert_eq!(sb.next_lost(), None);
        assert_eq!(sb.retx_count(2), 1);
        sb.register_retransmit(2, ts(300));
        assert_eq!(sb.retx_count(2), 2);
    }

    #[test]
    fn retransmit_keeps_the_adu_time_and_moves_the_send_time() {
        let mut sb = Scoreboard::new();
        sb.register_send(ts(0));
        sb.register_send_adu(ts(10), ts(4));
        sb.register_send(ts(20));
        assert_eq!(sb.adu_at(0), Some(ts(0)), "register_send: its own ADU");
        assert_eq!(sb.adu_at(1), Some(ts(4)));
        sb.register_retransmit(1, ts(90));
        assert_eq!(sb.retx_count(1), 1);
        assert_eq!(sb.adu_at(1), Some(ts(4)), "the ADU time survives");
        assert_eq!(sb.retx_count(0), 0);
        // The retransmission's time is what the oldest-outstanding scan sees
        // once seq 0 is acknowledged.
        sb.on_feedback(1, &[SeqRange::new(2, 3)]);
        assert_eq!(sb.oldest_outstanding_send_time(), Some(ts(90)));
    }

    #[test]
    fn cum_ack_drops_the_records_it_passes() {
        let mut sb = sender_with(6);
        sb.on_feedback(0, &[SeqRange::new(3, 6)]);
        sb.register_retransmit(1, ts(100));
        sb.register_retransmit(2, ts(100));
        sb.on_feedback(2, &[]);
        assert_eq!(sb.retx_count(1), 0, "acknowledged: its record is gone");
        assert_eq!(sb.adu_at(1), None);
        assert_eq!(sb.retx_count(2), 1, "still unacknowledged");
        assert_eq!(sb.adu_at(2), Some(ts(20)));
    }

    #[test]
    fn adu_time_is_none_outside_the_window() {
        let mut sb = sender_with(4);
        sb.on_feedback(2, &[]);
        assert_eq!(sb.adu_at(0), None, "below the cumulative ack");
        assert_eq!(sb.adu_at(1), None);
        assert_eq!(sb.adu_at(2), Some(ts(20)));
        assert_eq!(sb.adu_at(4), None, "never sent");
    }

    #[test]
    fn cum_ack_after_retransmit_completes() {
        let mut sb = sender_with(6);
        sb.on_feedback(2, &[SeqRange::new(3, 6)]);
        sb.register_retransmit(2, ts(100));
        sb.on_feedback(6, &[]);
        assert!(sb.all_acked());
        assert_eq!(sb.in_flight(), 0);
    }

    #[test]
    fn abandon_skips_retransmission() {
        let mut sb = sender_with(10);
        sb.on_feedback(2, &[SeqRange::new(3, 6)]);
        assert!(sb.abandon(2));
        assert_eq!(sb.next_lost(), None);
        assert!(!sb.abandon(2), "already gone");
    }

    #[test]
    fn sacked_seq_cannot_stay_lost_pending() {
        let mut sb = sender_with(10);
        sb.on_feedback(0, &[SeqRange::new(3, 6)]);
        // 0,1,2 declared lost (3 sacked above each).
        let pending: Vec<u64> = sb.lost_pending().flat_map(|r| r.start..r.end).collect();
        assert_eq!(pending, vec![0, 1, 2]);
        // A late SACK for 1 (reordering, not loss) removes it from pending.
        sb.on_feedback(0, &[SeqRange::new(1, 2)]);
        let pending: Vec<u64> = sb.lost_pending().flat_map(|r| r.start..r.end).collect();
        assert_eq!(pending, vec![0, 2]);
    }

    #[test]
    fn force_mark_lost_respects_sacked_and_prior() {
        let mut sb = sender_with(10);
        sb.on_feedback(0, &[SeqRange::new(4, 5)]);
        assert_eq!(sb.force_mark_lost(SeqRange::new(0, 8)), 7, "4 is sacked");
        let pending: Vec<u64> = sb.lost_pending().flat_map(|r| r.start..r.end).collect();
        assert_eq!(pending, vec![0, 1, 2, 3, 5, 6, 7]);
        // Second call declares nothing new.
        assert_eq!(sb.force_mark_lost(SeqRange::new(0, 8)), 0);
    }

    #[test]
    fn in_flight_accounting() {
        let mut sb = sender_with(10);
        assert_eq!(sb.in_flight(), 10);
        sb.on_feedback(3, &[SeqRange::new(5, 7)]);
        // 10 - 3 cum - 2 sacked - 1 lost(seq 3? no: holes 3..5,7..10; sacked
        // above seq 3 = {5,6} only 2 -> not lost; seq 4: 2 above -> not lost)
        assert_eq!(sb.in_flight(), 5);
    }

    #[test]
    fn send_times_pruned_by_cum_ack() {
        let mut sb = sender_with(100);
        let before = sb.state_bytes();
        sb.on_feedback(90, &[]);
        assert!(sb.state_bytes() < before);
    }

    #[test]
    fn oldest_outstanding_send_time_tracks_head() {
        let mut sb = sender_with(5);
        assert_eq!(sb.oldest_outstanding_send_time(), Some(ts(0)));
        sb.on_feedback(2, &[]);
        assert_eq!(sb.oldest_outstanding_send_time(), Some(ts(20)));
        sb.on_feedback(2, &[SeqRange::new(2, 3)]);
        assert_eq!(sb.oldest_outstanding_send_time(), Some(ts(30)));
        sb.on_feedback(5, &[]);
        assert_eq!(sb.oldest_outstanding_send_time(), None);
    }
}
