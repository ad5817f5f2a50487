//! The RFC 3448 TFRC **receiver** state machine.
//!
//! This is the component the paper's QTPlight instance removes from light
//! clients: per data packet it runs loss detection, loss-event grouping and
//! (on feedback) the weighted-average-loss-interval computation, and it
//! must hold the loss-interval history in memory. All of that work is
//! metered (see [`qtp_metrics`]) so experiment E5 can compare it against
//! the trivial QTPlight receiver.
//!
//! Responsibilities (RFC 3448 §6):
//! * detect losses from sequence gaps ([`crate::detector::LossDetector`]);
//! * group losses into loss *events* — losses whose (interpolated) sender
//!   timestamps fall within one RTT of the event start belong to the same
//!   event (§5.2);
//! * maintain the loss-interval history and compute `p` (§5.4);
//! * measure the receive rate `X_recv` over each feedback round;
//! * emit feedback once per RTT, or immediately when a new loss event
//!   begins (§6.2).

use std::time::Duration;

use qtp_metrics::{CostMeter, OpClass, StateSize};
use qtp_simnet::time::SimTime;

use crate::detector::LossDetector;
use crate::equation;
use crate::loss_history::LossIntervalHistory;

/// Feedback report produced by the receiver once per RTT (RFC 3448 §3.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Sender timestamp of the most recent data packet (for RTT estimation).
    pub ts_echo: SimTime,
    /// Time spent at the receiver between receiving that packet and sending
    /// this feedback (subtracted from the RTT sample).
    pub t_delay: Duration,
    /// Receive rate since the previous feedback, bytes/second.
    pub x_recv: f64,
    /// Receiver-computed loss event rate.
    pub p: f64,
}

/// What the endpoint should do after handing the receiver a data packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxAction {
    /// A new loss event started: send feedback immediately.
    pub feedback_now: bool,
}

/// RFC 3448 receiver.
#[derive(Debug, Clone)]
pub struct TfrcReceiver {
    /// Nominal segment size (bytes), from connection setup.
    s: u32,
    detector: LossDetector,
    history: LossIntervalHistory,
    /// Sender's current RTT estimate, carried in data-packet headers; used
    /// for loss-event grouping and the feedback cadence.
    rtt_hint: Duration,
    /// Estimated sender timestamp at which the current loss event started.
    last_event_ts: Option<SimTime>,
    /// Sender timestamp and local receive time of the most recent packet.
    last_pkt: Option<(SimTime, SimTime)>,
    /// Payload bytes received since the last feedback was built.
    bytes_since_fb: u64,
    /// When the current feedback round started.
    round_started: Option<SimTime>,
    /// Receive rate reported in the previous feedback (bytes/s).
    last_x_recv: f64,
    /// Aggregated per-packet cost of everything *except* the sub-structures
    /// (which carry their own meters).
    pub meter: CostMeter,
}

impl TfrcReceiver {
    /// `s`: nominal packet payload size in bytes; `initial_rtt_hint`: the
    /// sender's RTT estimate before the first data packet (handshake RTT).
    pub fn new(s: u32, initial_rtt_hint: Duration) -> Self {
        TfrcReceiver {
            s,
            detector: LossDetector::new(),
            history: LossIntervalHistory::new(),
            rtt_hint: initial_rtt_hint,
            last_event_ts: None,
            last_pkt: None,
            bytes_since_fb: 0,
            round_started: None,
            last_x_recv: 0.0,
            meter: CostMeter::new(),
        }
    }

    /// Process one data packet.
    ///
    /// * `now` — local receive time.
    /// * `seq` — packet sequence number.
    /// * `sender_ts` — the sender timestamp carried in the header.
    /// * `rtt_hint` — the sender's RTT estimate carried in the header.
    /// * `payload_bytes` — payload size for `X_recv` accounting.
    pub fn on_data(
        &mut self,
        now: SimTime,
        seq: u64,
        sender_ts: SimTime,
        rtt_hint: Duration,
        payload_bytes: u32,
    ) -> RxAction {
        if !rtt_hint.is_zero() {
            self.rtt_hint = rtt_hint;
        }
        self.last_pkt = Some((sender_ts, now));
        self.bytes_since_fb += payload_bytes as u64;
        if self.round_started.is_none() {
            self.round_started = Some(now);
        }
        self.meter.tick(OpClass::Update, 3);
        self.meter.tick(OpClass::Compare, 2);

        let declared = self.detector.on_packet(seq, sender_ts).len();
        let mut new_event = false;
        for i in 0..declared {
            let l = self.detector.declared[i];
            new_event |= self.register_loss(now, l.seq, l.est_ts);
        }
        RxAction {
            feedback_now: new_event,
        }
    }

    /// Fold one declared loss into the event structure. Returns true if it
    /// started a *new* loss event.
    fn register_loss(&mut self, now: SimTime, seq: u64, est_ts: SimTime) -> bool {
        self.meter.tick(OpClass::Compare, 2);
        match self.last_event_ts {
            None => {
                // First loss event ever: synthesize the first interval from
                // the current receive rate (RFC 3448 §6.3.1).
                let x_recv = self.current_x_recv(now).max(self.s as f64);
                let p_synth = equation::inverse(self.s, self.rtt_hint, x_recv);
                let first_interval = (1.0 / p_synth).max(1.0);
                self.meter.tick(OpClass::Arith, 8);
                self.history.record_first_loss(seq, first_interval);
                self.last_event_ts = Some(est_ts);
                true
            }
            Some(event_ts) => {
                if est_ts > event_ts + self.rtt_hint {
                    self.history.record_loss_event(seq);
                    self.last_event_ts = Some(est_ts);
                    true
                } else {
                    // Same loss event; nothing to record.
                    false
                }
            }
        }
    }

    /// Receive rate over the current feedback round, bytes/second.
    fn current_x_recv(&self, now: SimTime) -> f64 {
        match self.round_started {
            Some(start) => {
                let dt = now.saturating_since(start).as_secs_f64();
                if dt <= 0.0 {
                    // Degenerate round: fall back to the previous estimate.
                    self.last_x_recv
                } else {
                    self.bytes_since_fb as f64 / dt
                }
            }
            None => 0.0,
        }
    }

    /// Build the periodic feedback report and start a new round.
    /// Returns `None` if no data packet has been received yet.
    pub fn build_feedback(&mut self, now: SimTime) -> Option<Feedback> {
        let (ts_echo, rx_time) = self.last_pkt?;
        let x_recv = self.current_x_recv(now);
        let p = match self.detector.highest_seq() {
            Some(hi) => self.history.loss_event_rate(hi),
            None => 0.0,
        };
        self.meter.tick(OpClass::Arith, 4);
        self.meter.tick(OpClass::Update, 2);
        self.last_x_recv = x_recv;
        self.bytes_since_fb = 0;
        self.round_started = Some(now);
        Some(Feedback {
            ts_echo,
            t_delay: now.saturating_since(rx_time),
            x_recv,
            p,
        })
    }

    /// The feedback cadence: once per (sender-estimated) RTT, per §6.2.
    pub fn feedback_interval(&self) -> Duration {
        self.rtt_hint
    }

    /// Current loss event rate (mostly for tests and instrumentation).
    pub fn loss_event_rate(&mut self) -> f64 {
        match self.detector.highest_seq() {
            Some(hi) => self.history.loss_event_rate(hi),
            None => 0.0,
        }
    }

    /// Total processing operations across all receiver components: the E5
    /// "receiver load" measure.
    pub fn total_ops(&self) -> u64 {
        self.meter.total() + self.detector.meter.total() + self.history.meter.total()
    }
}

impl StateSize for TfrcReceiver {
    fn state_bytes(&self) -> usize {
        self.detector.state_bytes()
            + self.history.state_bytes()
            // Fixed receiver fields an implementation must hold.
            + std::mem::size_of::<u32>()            // s
            + std::mem::size_of::<Duration>()       // rtt_hint
            + std::mem::size_of::<Option<SimTime>>() // last_event_ts
            + std::mem::size_of::<Option<(SimTime, SimTime)>>()
            + std::mem::size_of::<u64>()            // bytes_since_fb
            + std::mem::size_of::<Option<SimTime>>() // round_started
            + std::mem::size_of::<f64>() // last_x_recv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u32 = 1000;
    const RTT: Duration = Duration::from_millis(100);

    /// Drive a receiver with packets every 10 ms (sender ts == receive time
    /// minus a fixed 50 ms one-way delay), dropping the seqs in `drop`.
    fn drive(n: u64, drop: &[u64]) -> (TfrcReceiver, Vec<Feedback>) {
        let mut rx = TfrcReceiver::new(S, RTT);
        let mut fbs = Vec::new();
        let mut next_fb = SimTime::from_millis(100);
        for seq in 0..n {
            if drop.contains(&seq) {
                continue;
            }
            let sender_ts = SimTime::from_millis(seq * 10);
            let now = sender_ts + Duration::from_millis(50);
            let act = rx.on_data(now, seq, sender_ts, RTT, S);
            if act.feedback_now || now >= next_fb {
                if let Some(fb) = rx.build_feedback(now) {
                    fbs.push(fb);
                }
                next_fb = now + rx.feedback_interval();
            }
        }
        (rx, fbs)
    }

    #[test]
    fn loss_free_stream_reports_p_zero() {
        let (mut rx, fbs) = drive(100, &[]);
        assert!(!fbs.is_empty());
        assert!(fbs.iter().all(|fb| fb.p == 0.0));
        assert_eq!(rx.loss_event_rate(), 0.0);
    }

    #[test]
    fn x_recv_matches_actual_receive_rate() {
        // 1000 B every 10 ms = 100 kB/s.
        let (_, fbs) = drive(200, &[]);
        let last = fbs.last().unwrap();
        assert!(
            (last.x_recv - 100_000.0).abs() < 15_000.0,
            "x_recv={}",
            last.x_recv
        );
    }

    #[test]
    fn first_loss_triggers_immediate_feedback_with_positive_p() {
        let (_, fbs) = drive(50, &[20]);
        let after_loss: Vec<&Feedback> = fbs.iter().filter(|f| f.p > 0.0).collect();
        assert!(
            !after_loss.is_empty(),
            "feedback after the loss must carry p>0"
        );
    }

    #[test]
    fn single_loss_p_reflects_receive_rate_inversion() {
        // With ~100 kB/s receive rate, R=0.1s: the synthetic first interval
        // is 1/inverse(...) which for this rate is on the order of 100+
        // packets, so p should be small but positive.
        let (mut rx, _) = drive(100, &[50]);
        let p = rx.loss_event_rate();
        assert!(p > 0.0 && p < 0.1, "p={p}");
    }

    #[test]
    fn clustered_losses_form_one_event() {
        // Packets 30..34 dropped together: their interpolated timestamps sit
        // within one RTT, so they form ONE loss event -> history has exactly
        // one (synthetic) interval and an open interval.
        let (rx, _) = drive(100, &[30, 31, 32, 33]);
        assert_eq!(rx.history.intervals().len(), 1);
    }

    #[test]
    fn spread_losses_form_separate_events() {
        // Drops 200 packets apart = 2 s apart >> RTT: separate events.
        let (rx, _) = drive(1000, &[100, 300, 500, 700]);
        // First event synthesizes one interval; each subsequent event closes
        // one more: 1 + 3 = 4 intervals.
        assert_eq!(rx.history.intervals().len(), 4);
        // Closed intervals between events are ~200 packets.
        let closed = &rx.history.intervals()[..3];
        assert!(
            closed.iter().all(|&l| (l - 200.0).abs() < 2.0),
            "{closed:?}"
        );
    }

    #[test]
    fn steady_periodic_loss_converges_to_loss_rate() {
        // Every 50th packet dropped -> loss event rate ~ 1/50 = 0.02
        // (events far apart in time, so each loss is its own event).
        let drops: Vec<u64> = (1..40).map(|k| k * 50).collect();
        let (mut rx, _) = drive(2000, &drops);
        let p = rx.loss_event_rate();
        assert!((p - 0.02).abs() < 0.004, "p={p}");
    }

    #[test]
    fn feedback_resets_round_measurement() {
        let mut rx = TfrcReceiver::new(S, RTT);
        let t0 = SimTime::from_secs(1);
        rx.on_data(t0, 0, SimTime::ZERO, RTT, S);
        rx.on_data(
            t0 + Duration::from_millis(10),
            1,
            SimTime::from_millis(10),
            RTT,
            S,
        );
        let fb1 = rx.build_feedback(t0 + Duration::from_millis(20)).unwrap();
        assert!(fb1.x_recv > 0.0);
        // No packets in the next round.
        let fb2 = rx.build_feedback(t0 + Duration::from_millis(120)).unwrap();
        assert_eq!(fb2.x_recv, 0.0);
    }

    #[test]
    fn ts_echo_and_t_delay_enable_rtt_reconstruction() {
        let mut rx = TfrcReceiver::new(S, RTT);
        let sender_ts = SimTime::from_millis(1000);
        let arrive = sender_ts + Duration::from_millis(40); // one-way 40 ms
        rx.on_data(arrive, 0, sender_ts, RTT, S);
        let fb_time = arrive + Duration::from_millis(25); // held 25 ms
        let fb = rx.build_feedback(fb_time).unwrap();
        assert_eq!(fb.ts_echo, sender_ts);
        assert_eq!(fb.t_delay, Duration::from_millis(25));
        // The sender at time `fb_time + 40ms` computes:
        // rtt = now - ts_echo - t_delay = 105 - 40... (1105-1000-25 = 80 ms
        // = the true two-way propagation).
        let sender_now = fb_time + Duration::from_millis(40);
        let rtt = sender_now.saturating_since(fb.ts_echo) - fb.t_delay;
        assert_eq!(rtt, Duration::from_millis(80));
    }

    #[test]
    fn no_feedback_before_any_data() {
        let mut rx = TfrcReceiver::new(S, RTT);
        assert!(rx.build_feedback(SimTime::from_secs(1)).is_none());
    }

    #[test]
    fn receiver_ops_grow_with_loss_rate() {
        // The E5 premise in miniature: a lossier stream costs the RFC 3448
        // receiver more operations per packet (more holes, more events, more
        // history maintenance).
        let (rx_clean, _) = drive(2000, &[]);
        let drops: Vec<u64> = (1..200).map(|k| k * 10).collect();
        let (rx_lossy, _) = drive(2000, &drops);
        let clean_per_pkt = rx_clean.total_ops() as f64 / 2000.0;
        let lossy_per_pkt = rx_lossy.total_ops() as f64 / 1800.0;
        assert!(
            lossy_per_pkt > clean_per_pkt,
            "lossy={lossy_per_pkt}, clean={clean_per_pkt}"
        );
    }

    #[test]
    fn state_bytes_nonzero_and_bounded() {
        let (rx, _) = drive(2000, &[100, 300, 500]);
        let bytes = rx.state_bytes();
        assert!(
            bytes > 50,
            "history+detector state should be visible: {bytes}"
        );
        assert!(bytes < 10_000, "state should stay bounded: {bytes}");
    }
}
