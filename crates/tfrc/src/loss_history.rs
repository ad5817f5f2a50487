//! Loss-interval history and the weighted average loss interval (RFC 3448 §5).
//!
//! TFRC's loss event rate `p` is the inverse of the **average loss
//! interval**: the weighted mean of the number of packets between
//! consecutive loss events, over the last `n = 8` intervals, with weights
//! `1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2` (most recent first). The *open* interval
//! (packets since the most recent loss event) is included only when doing so
//! **increases** the average — so a long loss-free run raises the allowed
//! rate, but a short one cannot depress it (RFC 3448 §5.4).
//!
//! This structure — a ring of interval lengths plus the weighted-average
//! computation on every feedback — is exactly the state the paper's QTPlight
//! variant evicts from resource-limited receivers. Every operation ticks a
//! [`CostMeter`] so experiment E5 can price it.

use qtp_metrics::{CostMeter, OpClass, StateSize};

/// Number of closed intervals retained (RFC 3448 recommends 8).
pub const N_INTERVALS: usize = 8;

/// RFC 3448 §5.4 weights, most recent interval first.
pub const WEIGHTS: [f64; N_INTERVALS] = [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2];

/// Loss-interval history: closed intervals (most recent first) plus the
/// sequence number where the current (open) interval started.
#[derive(Debug, Clone)]
pub struct LossIntervalHistory {
    /// Closed interval lengths, most recent first: the first `len` hold
    /// them, at most `N_INTERVALS` between calls (one more while a new
    /// interval pushes the oldest out).
    intervals: [f64; N_INTERVALS + 1],
    len: usize,
    /// Sequence number of the first packet of the most recent loss event
    /// (i.e. where the open interval starts), if any loss has occurred.
    open_start_seq: Option<u64>,
    /// Per-operation cost accounting for the E5 experiment.
    pub meter: CostMeter,
}

impl LossIntervalHistory {
    /// An empty history: no loss event seen yet, `p = 0`.
    pub fn new() -> Self {
        LossIntervalHistory {
            intervals: [0.0; N_INTERVALS + 1],
            len: 0,
            open_start_seq: None,
            meter: CostMeter::new(),
        }
    }

    /// Has any loss event been recorded?
    pub fn has_loss(&self) -> bool {
        self.open_start_seq.is_some()
    }

    /// Sequence where the open interval started (first packet of the most
    /// recent loss event).
    pub fn open_start(&self) -> Option<u64> {
        self.open_start_seq
    }

    /// Record the **first** loss event. RFC 3448 §6.3.1: the first interval
    /// length is synthesized by the caller (from the observed receive rate
    /// via the inverse throughput equation) because no real history exists.
    ///
    /// `synthetic_len` is that computed interval; `event_seq` is the
    /// sequence number of the first packet of the loss event.
    pub fn record_first_loss(&mut self, event_seq: u64, synthetic_len: f64) {
        debug_assert!(self.open_start_seq.is_none(), "first loss already seen");
        self.meter.tick(OpClass::Alloc, 1);
        self.meter.tick(OpClass::Update, 1);
        self.intervals[0] = synthetic_len.max(1.0);
        self.len = 1;
        self.open_start_seq = Some(event_seq);
    }

    /// Record a subsequent loss event starting at `event_seq`. Closes the
    /// open interval (its length is the sequence distance between event
    /// starts) and opens a new one.
    pub fn record_loss_event(&mut self, event_seq: u64) {
        let start = self
            .open_start_seq
            .expect("record_first_loss must come first");
        debug_assert!(event_seq > start, "loss events must advance");
        let len = (event_seq - start) as f64;
        self.meter.tick(OpClass::Alloc, 1);
        self.intervals.copy_within(..self.len, 1);
        self.intervals[0] = len;
        self.len += 1;
        self.meter.tick(OpClass::Scan, self.len as u64);
        if self.len > N_INTERVALS {
            self.len -= 1;
            self.meter.tick(OpClass::Update, 1);
        }
        self.open_start_seq = Some(event_seq);
        self.meter.tick(OpClass::Update, 1);
    }

    /// The weighted average loss interval, including the open interval
    /// `[open_start, highest_seq]` only if that increases the average
    /// (RFC 3448 §5.4's `max(I_tot0, I_tot1)` rule).
    ///
    /// Returns `None` until the first loss event.
    pub fn average_interval(&mut self, highest_seq: u64) -> Option<f64> {
        let open_start = self.open_start_seq?;
        debug_assert!(self.len > 0);
        let open_len = (highest_seq.saturating_sub(open_start) + 1) as f64;

        // I_tot0: closed intervals only, weights aligned at the most recent.
        let mut tot0 = 0.0;
        let mut w0 = 0.0;
        for (i, &len) in self.intervals().iter().take(N_INTERVALS).enumerate() {
            tot0 += len * WEIGHTS[i];
            w0 += WEIGHTS[i];
        }
        self.meter
            .tick(OpClass::Scan, self.len.min(N_INTERVALS) as u64);
        self.meter
            .tick(OpClass::Arith, 2 * self.len.min(N_INTERVALS) as u64);

        // I_tot1: open interval becomes index 0, shifting the rest.
        let mut tot1 = open_len * WEIGHTS[0];
        let mut w1 = WEIGHTS[0];
        for (i, &len) in self.intervals().iter().take(N_INTERVALS - 1).enumerate() {
            tot1 += len * WEIGHTS[i + 1];
            w1 += WEIGHTS[i + 1];
        }
        self.meter
            .tick(OpClass::Scan, self.len.min(N_INTERVALS - 1) as u64);
        self.meter
            .tick(OpClass::Arith, 2 * self.len.min(N_INTERVALS - 1) as u64 + 2);
        self.meter.tick(OpClass::Compare, 1);

        Some((tot0 / w0).max(tot1 / w1))
    }

    /// The loss event rate `p = 1 / I_mean`, or 0 before any loss.
    pub fn loss_event_rate(&mut self, highest_seq: u64) -> f64 {
        self.meter.tick(OpClass::Arith, 1);
        match self.average_interval(highest_seq) {
            Some(i_mean) => 1.0 / i_mean.max(1.0),
            None => 0.0,
        }
    }

    /// Closed intervals, most recent first (for tests/inspection).
    pub fn intervals(&self) -> &[f64] {
        &self.intervals[..self.len]
    }
}

impl Default for LossIntervalHistory {
    fn default() -> Self {
        Self::new()
    }
}

impl StateSize for LossIntervalHistory {
    fn state_bytes(&self) -> usize {
        // Interval ring + open-interval bookkeeping; what an embedded
        // implementation must keep in RAM per connection.
        self.len * std::mem::size_of::<f64>() + std::mem::size_of::<Option<u64>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// History with first loss at seq 0 (synthetic len 10) and subsequent
    /// loss events every 100 packets.
    fn regular_history(events: usize) -> LossIntervalHistory {
        let mut h = LossIntervalHistory::new();
        h.record_first_loss(0, 10.0);
        for k in 1..events {
            h.record_loss_event(k as u64 * 100);
        }
        h
    }

    #[test]
    fn no_loss_means_p_zero() {
        let mut h = LossIntervalHistory::new();
        assert_eq!(h.loss_event_rate(1000), 0.0);
        assert_eq!(h.average_interval(1000), None);
        assert!(!h.has_loss());
    }

    #[test]
    fn first_loss_uses_synthetic_interval() {
        let mut h = LossIntervalHistory::new();
        h.record_first_loss(50, 42.0);
        assert!(h.has_loss());
        assert_eq!(h.intervals(), &[42.0]);
        // Open interval is short (seq 50..=50 -> len 1), so the average is
        // the synthetic interval.
        let avg = h.average_interval(50).unwrap();
        assert!((avg - 42.0).abs() < 1e-9);
    }

    #[test]
    fn steady_loss_converges_to_interval_length() {
        let mut h = regular_history(20);
        // All 8 retained intervals are exactly 100; open interval short.
        let avg = h.average_interval(1901).unwrap();
        assert!((avg - 100.0).abs() < 1e-9, "avg={avg}");
        let p = h.loss_event_rate(1901);
        assert!((p - 0.01).abs() < 1e-9, "p={p}");
    }

    #[test]
    fn history_retains_at_most_n_intervals() {
        let h = regular_history(30);
        assert_eq!(h.intervals().len(), N_INTERVALS);
        assert!(h.intervals().iter().all(|&l| l == 100.0));
    }

    #[test]
    fn open_interval_raises_average_after_loss_free_run() {
        let mut h = regular_history(10);
        let short = h.average_interval(901).unwrap();
        // A long loss-free run: open interval of ~10_000 packets.
        let long = h.average_interval(10_900).unwrap();
        assert!(long > short * 5.0, "short={short}, long={long}");
        // p drops correspondingly.
        assert!(h.loss_event_rate(10_900) < 0.2 * h.loss_event_rate(901));
    }

    #[test]
    fn short_open_interval_cannot_depress_average() {
        let mut h = regular_history(10);
        // Open interval of length 1 (loss event just started): the average
        // must equal the closed-interval value, not be dragged down.
        let avg_with_tiny_open = h.average_interval(900).unwrap();
        assert!((avg_with_tiny_open - 100.0).abs() < 1e-9);
    }

    #[test]
    fn recent_intervals_weigh_more() {
        let mut h = LossIntervalHistory::new();
        h.record_first_loss(0, 100.0);
        // Seven more events, each interval 100 packets.
        for k in 1..8 {
            h.record_loss_event(k * 100);
        }
        let base = h.average_interval(701).unwrap();
        // One *short* recent interval (10 packets).
        h.record_loss_event(710);
        let after = h.average_interval(711).unwrap();
        assert!(after < base, "recent short interval must lower the mean");
        // The drop is bounded by the weight of a single slot.
        assert!(after > base * 0.5);
    }

    #[test]
    fn meter_ticks_on_every_average() {
        let mut h = regular_history(10);
        let before = h.meter.total();
        let _ = h.average_interval(1000);
        assert!(h.meter.total() > before);
    }

    #[test]
    fn state_bytes_grows_with_intervals() {
        let h1 = regular_history(2);
        let h8 = regular_history(12);
        assert!(h8.state_bytes() > h1.state_bytes());
    }

    #[test]
    #[should_panic(expected = "record_first_loss must come first")]
    fn loss_event_before_first_loss_panics() {
        let mut h = LossIntervalHistory::new();
        h.record_loss_event(10);
    }

    #[test]
    fn weights_match_rfc() {
        assert_eq!(WEIGHTS, [1.0, 1.0, 1.0, 1.0, 0.8, 0.6, 0.4, 0.2]);
        let sum: f64 = WEIGHTS.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9);
    }
}
