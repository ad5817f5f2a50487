//! CUBIC congestion control (RFC 8312), adapted to the rate-paced
//! transport.
//!
//! The window grows along the cubic function
//! `W(t) = C·(t − K)³ + W_max` after each multiplicative decrease, with
//! `K = ∛(W_max·(1 − β)/C)` — concave up to the previous saturation
//! point `W_max` (reached exactly at `t = K`, the inflection point),
//! convex beyond it. In the low-window regime the TCP-friendly region
//! `W_est(t) = W_max·β + 3·(1−β)/(1+β)·t/RTT` governs instead, so CUBIC
//! never underperforms standard AIMD.
//!
//! The transport paces by rate but enforces this controller's
//! [`cwnd_limit`](crate::CongestionControl::cwnd_limit): at most `cwnd`
//! bytes may be unacknowledged in flight, which is what bounds the queue
//! a window controller builds. The reported pacing rate is slightly
//! *above* `cwnd / RTT` ([`PACING_GAIN`]) so the window — not the pace
//! timer — is the binding constraint, as in a window-clocked TCP.

use qtp_simnet::time::SimTime;
use qtp_tfrc::update;
use std::time::Duration;

use crate::{CcState, CongestionControl, FeedbackReport};

/// The cubic scaling constant `C`, window units (packets) per second³.
pub const CUBIC_C: f64 = 0.4;

/// Multiplicative decrease factor `β` (RFC 8312 §4.5).
pub const CUBIC_BETA: f64 = 0.7;

/// Minimum congestion window, packets.
pub const MIN_CWND: f64 = 2.0;

/// Pacing headroom over `cwnd / RTT`: the pace timer runs a little fast
/// so the in-flight window limit, not the pacer, gates transmission.
pub const PACING_GAIN: f64 = 1.25;

/// The plateau time `K = ∛(W_max·(1 − β)/C)`, seconds: how long the
/// cubic function takes to climb back to `W_max`.
pub fn cubic_k(w_max: f64) -> f64 {
    (w_max * (1.0 - CUBIC_BETA) / CUBIC_C).cbrt()
}

/// The cubic window `W(t) = C·(t − K)³ + W_max`, packets, `t` seconds
/// since the epoch started.
pub fn w_cubic(t: f64, k: f64, w_max: f64) -> f64 {
    CUBIC_C * (t - k).powi(3) + w_max
}

/// The TCP-friendly window estimate (RFC 8312 §4.2), packets.
pub fn w_est(t: f64, rtt: f64, w_max: f64) -> f64 {
    w_max * CUBIC_BETA + 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (t / rtt)
}

/// CUBIC controller state.
#[derive(Debug, Clone)]
pub struct Cubic {
    s: u32,
    /// Congestion window, packets.
    w: f64,
    /// Window at the last multiplicative decrease, packets.
    w_max: f64,
    /// Plateau time of the current epoch, seconds.
    k: f64,
    /// Slow-start threshold, packets (∞ until the first loss).
    ssthresh: f64,
    /// Start of the current cubic growth epoch.
    epoch_start: Option<SimTime>,
    /// Time of the last multiplicative decrease (one cut per RTT).
    last_cut: Option<SimTime>,
    /// Smoothed RTT.
    r: Option<Duration>,
    /// Cached allowed rate, bytes/second.
    x: f64,
    /// Whether the TCP-friendly region governed the last update.
    tcp_friendly: bool,
    nofeedback_deadline: SimTime,
    /// No-feedback expiries since the last feedback. Each doubles the next
    /// timeout (up to [`MAX_NOFB_BACKOFF`] doublings), as TCP backs off its
    /// RTO: the window stops halving at [`MIN_CWND`], so without it a
    /// silent peer would cost a timer every 4·RTT for as long as it stays
    /// silent.
    nofb_backoff: u32,
    ops: u64,
}

/// Most doublings of the no-feedback timeout.
const MAX_NOFB_BACKOFF: u32 = 6;

impl Cubic {
    /// A CUBIC controller for segment size `s`. Until an RTT is known it
    /// paces one packet per second (the RFC 3448 §4.2 cold start, shared
    /// with TFRC so negotiation-time behaviour is uniform).
    pub fn new(s: u32) -> Self {
        Cubic {
            s,
            w: 1.0,
            w_max: 0.0,
            k: 0.0,
            ssthresh: f64::INFINITY,
            epoch_start: None,
            last_cut: None,
            r: None,
            x: s as f64,
            tcp_friendly: false,
            nofeedback_deadline: SimTime::from_secs(2),
            nofb_backoff: 0,
            ops: 0,
        }
    }

    /// Current congestion window, packets.
    pub fn cwnd(&self) -> f64 {
        self.w
    }

    /// Window at the last multiplicative decrease, packets.
    pub fn w_max(&self) -> f64 {
        self.w_max
    }

    /// Plateau time of the current epoch, seconds.
    pub fn k(&self) -> f64 {
        self.k
    }

    fn refresh_rate(&mut self) {
        if let Some(r) = self.r {
            self.x = (PACING_GAIN * self.w * self.s as f64 / r.as_secs_f64())
                .max(update::min_rate(self.s));
        }
    }
}

impl CongestionControl for Cubic {
    fn seed_rtt(&mut self, now: SimTime, rtt: Duration) {
        debug_assert!(!rtt.is_zero());
        self.r = Some(rtt);
        self.w = update::initial_window(self.s) / self.s as f64;
        self.x = update::initial_rate(self.s, rtt);
        self.nofeedback_deadline = now + update::nofeedback_interval(self.s, self.x, self.r);
        self.ops += 3;
    }

    fn on_feedback(&mut self, fb: &FeedbackReport) {
        self.ops += 8;
        let sample = update::rtt_sample(fb.now, fb.ts_echo, fb.t_delay);
        let r = update::rtt_ewma(self.r, sample);
        self.r = Some(r);
        let rs = r.as_secs_f64();
        let s = self.s as f64;

        let cut_ok = match self.last_cut {
            Some(tc) => fb.now.saturating_since(tc) >= r,
            None => true,
        };
        if fb.newly_lost_pkts > 0 && cut_ok {
            // Multiplicative decrease; a fresh cubic epoch starts at the
            // next congestion-avoidance update.
            self.w_max = self.w;
            self.w = (self.w * CUBIC_BETA).max(MIN_CWND);
            self.ssthresh = self.w;
            self.k = cubic_k(self.w_max);
            self.epoch_start = None;
            self.last_cut = Some(fb.now);
            self.tcp_friendly = false;
        } else if fb.newly_lost_pkts == 0 {
            if self.w < self.ssthresh {
                // Slow start: grow by what was acked, at most doubling
                // per feedback round (reports arrive about once per RTT).
                let acked_pkts = fb.newly_acked_bytes as f64 / s;
                self.w = (self.w + acked_pkts).min(self.w * 2.0).min(self.ssthresh);
            } else {
                // Congestion avoidance: aim one RTT ahead (RFC 8312 §4.1)
                // and take the higher of the cubic and the TCP-friendly
                // window.
                let t0 = *self.epoch_start.get_or_insert(fb.now);
                let t = fb.now.saturating_since(t0).as_secs_f64() + rs;
                let wc = w_cubic(t, self.k, self.w_max);
                let we = w_est(t, rs, self.w_max);
                self.tcp_friendly = wc < we;
                self.w = wc.max(we).max(MIN_CWND);
            }
        }
        // Losses inside the same RTT as the last cut change nothing: they
        // belong to the congestion event already acted on.

        self.refresh_rate();
        self.nofb_backoff = 0;
        self.nofeedback_deadline = fb.now + update::nofeedback_interval(self.s, self.x, self.r);
    }

    fn on_nofeedback_timer(&mut self, now: SimTime) {
        // Feedback stopped: halve the window like the TFRC backoff, and
        // restart cubic growth from here once feedback resumes.
        self.w = (self.w / 2.0).max(MIN_CWND);
        self.ssthresh = self.ssthresh.min(self.w.max(MIN_CWND));
        self.epoch_start = None;
        self.w_max = self.w_max.max(self.w);
        self.k = cubic_k(self.w_max);
        if self.r.is_some() {
            self.refresh_rate();
        } else {
            self.x = (self.x / 2.0).max(update::min_rate(self.s));
        }
        self.ops += 4;
        let interval = update::nofeedback_interval(self.s, self.x, self.r);
        self.nofeedback_deadline = now + interval * (1 << self.nofb_backoff);
        self.nofb_backoff = (self.nofb_backoff + 1).min(MAX_NOFB_BACKOFF);
    }

    fn nofeedback_deadline(&self) -> SimTime {
        self.nofeedback_deadline
    }

    fn allowed_rate(&self) -> f64 {
        self.x
    }

    fn send_interval(&self) -> Duration {
        Duration::from_secs_f64(self.s as f64 / self.x)
    }

    fn cwnd_limit(&self) -> Option<u64> {
        Some((self.w * self.s as f64) as u64)
    }

    fn rtt(&self) -> Option<Duration> {
        self.r
    }

    fn ops(&self) -> u64 {
        self.ops
    }

    fn state(&self) -> CcState {
        CcState::Cubic {
            cwnd_bytes: (self.w * self.s as f64) as u64,
            w_max_bytes: (self.w_max * self.s as f64) as u64,
            tcp_friendly: self.tcp_friendly,
        }
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u32 = 1000;
    const RTT: Duration = Duration::from_millis(100);

    fn fb(now: SimTime, acked: u64, lost: u32) -> FeedbackReport {
        FeedbackReport {
            now,
            ts_echo: now - RTT,
            t_delay: Duration::ZERO,
            x_recv: 1e9,
            p: if lost > 0 { 0.01 } else { 0.0 },
            newly_acked_bytes: acked,
            newly_lost_pkts: lost,
        }
    }

    /// Hand-computed values of the cubic function around the inflection
    /// point. With W_max = 100 pkts: K = ∛(100·0.3/0.4) = ∛75 ≈ 4.2172 s;
    /// W(0) = W_max − C·K³ = β·W_max = 70; W(K) = W_max exactly; and one
    /// second past K the window is W_max + 0.4 ≈ 100.4.
    #[test]
    fn cubic_window_matches_hand_computed_values_at_the_inflection() {
        let w_max = 100.0;
        let k = cubic_k(w_max);
        assert!((k - 75.0f64.cbrt()).abs() < 1e-12);
        assert!((k - 4.217163).abs() < 1e-6, "K = {k}");
        // t = 0: the cubic starts at the post-decrease window β·W_max.
        assert!((w_cubic(0.0, k, w_max) - 70.0).abs() < 1e-9);
        // t = K: the inflection point, exactly W_max (plateau).
        assert!((w_cubic(k, k, w_max) - w_max).abs() < 1e-12);
        // Symmetry around K: W(K−d) + W(K+d) = 2·W_max.
        for d in [0.5, 1.0, 2.0] {
            let sum = w_cubic(k - d, k, w_max) + w_cubic(k + d, k, w_max);
            assert!((sum - 2.0 * w_max).abs() < 1e-9, "d={d}");
        }
        // One second past K: W_max + C·1³.
        assert!((w_cubic(k + 1.0, k, w_max) - 100.4).abs() < 1e-9);
    }

    #[test]
    fn loss_cuts_by_beta_and_sets_the_epoch() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        // Grow to 100 packets via slow start.
        let mut now = SimTime::ZERO;
        while c.cwnd() < 100.0 {
            now += RTT;
            c.on_feedback(&fb(now, (c.cwnd() * S as f64) as u64, 0));
        }
        let before = c.cwnd();
        now += RTT;
        c.on_feedback(&fb(now, 0, 3));
        assert!((c.cwnd() - before * CUBIC_BETA).abs() < 1e-9);
        assert!((c.w_max() - before).abs() < 1e-9);
        assert!((c.k() - cubic_k(before)).abs() < 1e-12);
    }

    #[test]
    fn only_one_cut_per_rtt() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        let mut now = SimTime::from_millis(100);
        c.on_feedback(&fb(now, 4000, 1));
        let after_first = c.cwnd();
        // A second loss report 10 ms later is the same congestion event.
        now += Duration::from_millis(10);
        c.on_feedback(&fb(now, 0, 2));
        assert_eq!(c.cwnd(), after_first);
    }

    #[test]
    fn avoidance_recovers_towards_w_max_along_the_cubic() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        let mut now = SimTime::from_millis(100);
        while c.cwnd() < 100.0 {
            c.on_feedback(&fb(now, (c.cwnd() * S as f64) as u64, 0));
            now += RTT;
        }
        let w_max = c.cwnd();
        c.on_feedback(&fb(now, 0, 1));
        // Walk feedback rounds past the plateau time: the window must
        // climb back to (and then beyond) W_max.
        for _ in 0..((cubic_k(w_max) / RTT.as_secs_f64()) as usize + 8) {
            now += RTT;
            c.on_feedback(&fb(now, (c.cwnd() * S as f64) as u64, 0));
        }
        assert!(c.cwnd() > w_max, "w={} w_max={w_max}", c.cwnd());
    }

    #[test]
    fn rate_paces_above_cwnd_over_rtt_and_window_limits_inflight() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        // W_init = 4000 B over 100 ms = 40 kB/s, like the TFRC seed.
        assert!((c.allowed_rate() - 40_000.0).abs() < 1e-9);
        // The in-flight limit is exactly the window in bytes…
        assert_eq!(c.cwnd_limit(), Some((c.cwnd() * S as f64) as u64));
        // …and after a feedback round the pace runs PACING_GAIN above
        // cwnd/RTT so the window is the binding constraint.
        c.on_feedback(&fb(SimTime::from_millis(100), 4000, 0));
        let expect = PACING_GAIN * c.cwnd() * S as f64 / RTT.as_secs_f64();
        assert!((c.allowed_rate() - expect).abs() < 1e-9);
    }

    #[test]
    fn nofeedback_halves_the_window() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        let w = c.cwnd();
        let deadline = c.nofeedback_deadline();
        c.on_nofeedback_timer(deadline);
        assert!((c.cwnd() - w / 2.0).abs() < 1e-9);
        assert!(c.nofeedback_deadline() > deadline);
    }

    #[test]
    fn consecutive_nofeedback_timeouts_back_off_until_feedback() {
        let mut c = Cubic::new(S);
        c.seed_rtt(SimTime::ZERO, RTT);
        let mut gaps = Vec::new();
        let mut at = c.nofeedback_deadline();
        for _ in 0..10 {
            c.on_nofeedback_timer(at);
            gaps.push(c.nofeedback_deadline().saturating_since(at));
            at = c.nofeedback_deadline();
        }
        // The window floors at MIN_CWND, so the base interval settles; each
        // expiry doubles it, up to the cap.
        assert!(gaps[3] >= gaps[2] * 2 && gaps[2] >= gaps[1] * 2, "{gaps:?}");
        assert_eq!(gaps[9], gaps[8], "the backoff is capped: {gaps:?}");
        // A feedback resets it.
        c.on_feedback(&fb(at, 4000, 0));
        let reset = c.nofeedback_deadline().saturating_since(at);
        assert!(
            reset < gaps[9],
            "{reset:?} after feedback, {:?} before",
            gaps[9]
        );
    }
}
