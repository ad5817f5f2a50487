//! gTFRC — *guaranteed* TFRC for DiffServ Assured Forwarding networks.
//!
//! The specialisation proposed by the authors' IETF draft
//! (`draft-lochin-ietf-tsvwg-gtfrc-02`) and composed into QTPAF: when the
//! application has negotiated a minimum bandwidth `g` with the network's AF
//! service, the sending rate becomes
//!
//! ```text
//! X = max(g, X_tfrc)
//! ```
//!
//! Rationale: inside the AF class the first `g` of the flow's traffic is
//! marked in-profile (green) by the edge conditioner and is protected by
//! the RIO core queue, so it is *not* subject to congestion on the assured
//! part — losses observed by TFRC mostly hit the out-of-profile excess.
//! Plain TFRC (like TCP) misreads those out-of-profile losses as a signal
//! to slow below the reservation; the `max` prevents exactly that, while
//! above `g` the flow stays TCP-friendly because the excess is governed by
//! the unmodified TFRC equation.

use qtp_simnet::time::{Rate, SimTime};
use qtp_tfrc::{SenderConfig, TfrcSender};
use std::time::Duration;

use crate::{CcState, CongestionControl, FeedbackReport};

/// gTFRC behind the trait seam: an RFC 3448 sender plus the floor `g`.
#[derive(Debug, Clone)]
pub struct GtfrcCc {
    tfrc: TfrcSender,
    /// The bandwidth negotiated with the AF service, bytes/second.
    g: f64,
}

impl GtfrcCc {
    /// A gTFRC controller for segment size `s` with guaranteed floor `g`.
    pub fn new(s: u32, target: Rate) -> Self {
        GtfrcCc {
            tfrc: TfrcSender::new(SenderConfig::new(s)),
            g: target.bytes_per_sec(),
        }
    }
}

impl CongestionControl for GtfrcCc {
    fn seed_rtt(&mut self, now: SimTime, rtt: Duration) {
        self.tfrc.seed_rtt(now, rtt);
    }

    fn on_feedback(&mut self, fb: &FeedbackReport) {
        self.tfrc
            .on_feedback(fb.now, fb.ts_echo, fb.t_delay, fb.x_recv, fb.p);
    }

    fn on_nofeedback_timer(&mut self, now: SimTime) {
        self.tfrc.on_nofeedback_timer(now);
    }

    fn nofeedback_deadline(&self) -> SimTime {
        self.tfrc.nofeedback_deadline()
    }

    /// The gTFRC control law: `max(g, X_tfrc)` in bytes/second.
    fn allowed_rate(&self) -> f64 {
        self.tfrc.allowed_rate().max(self.g)
    }

    /// Inter-packet gap at the guaranteed-or-better rate.
    fn send_interval(&self) -> Duration {
        Duration::from_secs_f64(self.tfrc.segment_size() as f64 / self.allowed_rate())
    }

    fn rtt(&self) -> Option<Duration> {
        self.tfrc.rtt()
    }

    fn ops(&self) -> u64 {
        self.tfrc.meter.total()
    }

    fn state(&self) -> CcState {
        CcState::RateBased {
            x_bps: (self.allowed_rate() * 8.0) as u64,
        }
    }

    fn name(&self) -> &'static str {
        "gtfrc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u32 = 1000;
    const RTT: Duration = Duration::from_millis(100);

    fn gtfrc(target_kbps: u64) -> GtfrcCc {
        let mut g = GtfrcCc::new(S, Rate::from_kbps(target_kbps));
        g.seed_rtt(SimTime::ZERO, RTT);
        g
    }

    fn fb(g: &mut GtfrcCc, now: SimTime, x_recv: f64, p: f64) {
        g.on_feedback(&FeedbackReport {
            now,
            ts_echo: now - RTT,
            t_delay: Duration::ZERO,
            x_recv,
            p,
            newly_acked_bytes: 0,
            newly_lost_pkts: 0,
        });
    }

    #[test]
    fn rate_never_below_target() {
        // 800 kbit/s = 100_000 B/s target.
        let mut g = gtfrc(800);
        // Brutal loss: plain TFRC would collapse far below target.
        fb(&mut g, SimTime::from_millis(100), 10_000.0, 0.2);
        assert!(
            g.tfrc.allowed_rate() < 100_000.0,
            "TFRC collapsed as expected"
        );
        assert!((g.allowed_rate() - 100_000.0).abs() < 1e-9, "gTFRC holds g");
    }

    #[test]
    fn behaves_like_tfrc_above_target() {
        // Tiny target: with low loss, the equation dominates.
        let mut g = gtfrc(8); // 1000 B/s
        fb(&mut g, SimTime::from_millis(100), 1e9, 0.001);
        let plain = g.tfrc.allowed_rate();
        assert!(plain > 1000.0);
        assert_eq!(g.allowed_rate(), plain);
    }

    #[test]
    fn send_interval_uses_guaranteed_rate() {
        let mut g = gtfrc(800); // 100 kB/s
        fb(&mut g, SimTime::from_millis(100), 10_000.0, 0.3);
        // 1000 B at 100 kB/s = 10 ms.
        assert_eq!(g.send_interval(), Duration::from_millis(10));
    }

    #[test]
    fn nofeedback_timer_does_not_break_guarantee() {
        let mut g = gtfrc(800);
        fb(&mut g, SimTime::from_millis(100), 10_000.0, 0.3);
        g.on_nofeedback_timer(g.nofeedback_deadline());
        assert!(g.allowed_rate() >= 100_000.0);
    }
}
