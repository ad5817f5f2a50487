//! The DiffServ edge traffic conditioner: a two-color token-bucket marker.
//!
//! A [`TokenBucketMarker`] watches one flow at the network edge and stamps
//! each packet with a drop precedence [`Color`]: packets within the
//! committed rate and burst are `Green` (in-profile), the rest `Red` — the
//! conditioner of the Assured Forwarding literature this paper builds on
//! (Seddigh et al.), placed in front of the RIO core queue.
//!
//! The marker is color-blind (it ignores incoming color), which is the
//! standard configuration at a first-hop conditioner.

use crate::packet::{Color, Packet};
use crate::time::{Rate, SimTime};

/// Two-color token bucket: `Green` within (CIR, CBS), else `Red`.
///
/// The bucket holds bytes, refills continuously at the committed rate and
/// never holds more than the committed burst.
#[derive(Debug, Clone)]
pub struct TokenBucketMarker {
    tokens: f64,
    capacity: f64,
    /// Fill rate in bytes per second.
    rate: f64,
    last: SimTime,
}

impl TokenBucketMarker {
    /// `cir`: committed information rate; `cbs`: committed burst size, bytes.
    pub fn new(cir: Rate, cbs_bytes: u32) -> Self {
        TokenBucketMarker {
            tokens: cbs_bytes as f64,
            capacity: cbs_bytes as f64,
            rate: cir.bytes_per_sec(),
            last: SimTime::ZERO,
        }
    }

    /// Stamp `pkt.color` according to the profile at time `now`.
    pub fn mark<H>(&mut self, now: SimTime, pkt: &mut Packet<H>) {
        pkt.color = self.color_of(now, pkt.wire_size);
    }

    fn refill(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * self.rate).min(self.capacity);
    }

    fn color_of(&mut self, now: SimTime, bytes: u32) -> Color {
        self.refill(now);
        if self.tokens >= bytes as f64 {
            self.tokens -= bytes as f64;
            Color::Green
        } else {
            Color::Red
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PKT: u32 = 1000;

    fn drain_colors(marker: &mut TokenBucketMarker, n: usize, interval_us: u64) -> Vec<Color> {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let now = SimTime::from_micros(i as u64 * interval_us);
            let mut p = Packet::new(i as u64, 0, 0, 1, PKT, now, Vec::new());
            marker.mark(now, &mut p);
            out.push(p.color);
        }
        out
    }

    #[test]
    fn token_bucket_long_run_green_rate_matches_cir() {
        // Offer 10 Mbit/s (1000B every 800 us) against CIR = 5 Mbit/s:
        // about half the packets should end up green.
        let mut m = TokenBucketMarker::new(Rate::from_mbps(5), 3 * PKT);
        let colors = drain_colors(&mut m, 10_000, 800);
        let green = colors.iter().filter(|&&c| c == Color::Green).count();
        let frac = green as f64 / colors.len() as f64;
        assert!((frac - 0.5).abs() < 0.02, "green fraction {frac}");
    }

    #[test]
    fn token_bucket_all_green_when_within_profile() {
        // Offer 1 Mbit/s against CIR = 5 Mbit/s: everything green.
        let mut m = TokenBucketMarker::new(Rate::from_mbps(5), 3 * PKT);
        let colors = drain_colors(&mut m, 1_000, 8_000);
        assert!(colors.iter().all(|&c| c == Color::Green));
    }

    #[test]
    fn token_bucket_burst_allowance() {
        // A 3-packet burst at t=0 fits CBS = 3 packets; the 4th is red.
        let mut tb = TokenBucketMarker::new(Rate::from_kbps(1), 3 * PKT);
        assert_eq!(tb.color_of(SimTime::ZERO, PKT), Color::Green);
        assert_eq!(tb.color_of(SimTime::ZERO, PKT), Color::Green);
        assert_eq!(tb.color_of(SimTime::ZERO, PKT), Color::Green);
        assert_eq!(tb.color_of(SimTime::ZERO, PKT), Color::Red);
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let mut b = TokenBucketMarker::new(Rate::from_mbps(10), 5000);
        b.tokens = 0.0;
        b.refill(SimTime::from_secs(1_000));
        assert!(b.tokens <= 5000.0);
        assert_eq!(b.tokens, 5000.0);
    }
}
