//! [`CongestionControl`] adapters over the existing machines: RFC 3448
//! TFRC and the open-loop fixed rate (gTFRC, which adds its floor to the
//! TFRC sender, is [`crate::gtfrc`]).
//!
//! The TFRC adapter is pure delegation — same calls, same order, same
//! [`qtp_metrics::CostMeter`](qtp_tfrc::TfrcSender) ticks — so swapping
//! the transport sender from enum dispatch to this seam leaves every
//! fixed-seed run byte-identical.

use qtp_simnet::time::{Rate, SimTime};
use qtp_tfrc::{SenderConfig, TfrcSender};
use std::time::Duration;

use crate::{CcState, CongestionControl, FeedbackReport};

/// RFC 3448 TFRC behind the trait seam.
#[derive(Debug, Clone)]
pub struct TfrcCc {
    inner: TfrcSender,
}

impl TfrcCc {
    /// A TFRC controller for segment size `s`.
    pub fn new(s: u32) -> Self {
        TfrcCc {
            inner: TfrcSender::new(SenderConfig::new(s)),
        }
    }
}

impl CongestionControl for TfrcCc {
    fn seed_rtt(&mut self, now: SimTime, rtt: Duration) {
        self.inner.seed_rtt(now, rtt);
    }

    fn on_feedback(&mut self, fb: &FeedbackReport) {
        self.inner
            .on_feedback(fb.now, fb.ts_echo, fb.t_delay, fb.x_recv, fb.p);
    }

    fn on_nofeedback_timer(&mut self, now: SimTime) {
        self.inner.on_nofeedback_timer(now);
    }

    fn nofeedback_deadline(&self) -> SimTime {
        self.inner.nofeedback_deadline()
    }

    fn allowed_rate(&self) -> f64 {
        self.inner.allowed_rate()
    }

    fn send_interval(&self) -> Duration {
        self.inner.send_interval()
    }

    fn rtt(&self) -> Option<Duration> {
        self.inner.rtt()
    }

    fn ops(&self) -> u64 {
        self.inner.meter.total()
    }

    fn state(&self) -> CcState {
        CcState::RateBased {
            x_bps: (self.inner.allowed_rate() * 8.0) as u64,
        }
    }

    fn name(&self) -> &'static str {
        "tfrc"
    }
}

/// Open-loop fixed rate (ablation tool; ignores feedback).
#[derive(Debug, Clone)]
pub struct FixedCc {
    rate: Rate,
    s: u32,
}

impl FixedCc {
    /// A fixed-rate controller pacing `s`-byte packets at `rate`.
    pub fn new(rate: Rate, s: u32) -> Self {
        FixedCc { rate, s }
    }
}

impl CongestionControl for FixedCc {
    fn seed_rtt(&mut self, _now: SimTime, _rtt: Duration) {}

    fn on_feedback(&mut self, _fb: &FeedbackReport) {}

    fn on_nofeedback_timer(&mut self, _now: SimTime) {}

    fn nofeedback_deadline(&self) -> SimTime {
        SimTime::MAX
    }

    fn allowed_rate(&self) -> f64 {
        self.rate.bytes_per_sec()
    }

    fn send_interval(&self) -> Duration {
        self.rate.tx_time(self.s)
    }

    fn rtt(&self) -> Option<Duration> {
        None
    }

    fn ops(&self) -> u64 {
        0
    }

    fn state(&self) -> CcState {
        CcState::FixedRate {
            x_bps: self.rate.bps(),
        }
    }

    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GtfrcCc;

    #[test]
    fn tfrc_adapter_matches_the_raw_sender() {
        let mut a = TfrcCc::new(1000);
        let mut raw = TfrcSender::new(SenderConfig::new(1000));
        a.seed_rtt(SimTime::ZERO, Duration::from_millis(100));
        raw.seed_rtt(SimTime::ZERO, Duration::from_millis(100));
        let fb = FeedbackReport {
            now: SimTime::from_millis(100),
            ts_echo: SimTime::ZERO,
            t_delay: Duration::ZERO,
            x_recv: 1e9,
            p: 0.01,
            newly_acked_bytes: 40_000,
            newly_lost_pkts: 1,
        };
        a.on_feedback(&fb);
        raw.on_feedback(fb.now, fb.ts_echo, fb.t_delay, fb.x_recv, fb.p);
        assert_eq!(a.allowed_rate(), raw.allowed_rate());
        assert_eq!(a.nofeedback_deadline(), raw.nofeedback_deadline());
        assert_eq!(a.rtt(), raw.rtt());
        assert_eq!(a.ops(), raw.meter.total());
    }

    #[test]
    fn gtfrc_adapter_keeps_the_floor() {
        let mut g = GtfrcCc::new(1000, Rate::from_mbps(2));
        g.seed_rtt(SimTime::ZERO, Duration::from_millis(100));
        g.on_feedback(&FeedbackReport {
            now: SimTime::from_millis(100),
            ts_echo: SimTime::ZERO,
            t_delay: Duration::ZERO,
            x_recv: 1_000.0,
            p: 0.4,
            newly_acked_bytes: 0,
            newly_lost_pkts: 10,
        });
        assert!(g.allowed_rate() >= 250_000.0, "gTFRC floor is the target");
    }

    #[test]
    fn fixed_ignores_everything() {
        let f = FixedCc::new(Rate::from_kbps(800), 1000);
        assert_eq!(f.allowed_rate(), 100_000.0);
        assert_eq!(f.nofeedback_deadline(), SimTime::MAX);
        assert_eq!(f.send_interval(), Duration::from_millis(10));
        assert!(matches!(f.state(), CcState::FixedRate { x_bps: 800_000 }));
    }
}
