//! Congestion-control dispatch.
//!
//! The sender endpoint is parameterised by one of the negotiable CC
//! variants (paper axis 3). Dispatch goes through the [`qtp_cc`] trait
//! seam: [`controller_for`] turns a negotiated [`CcKind`] into a boxed
//! [`CongestionControl`], so adding a controller touches the registry here
//! and nothing in the endpoint.

use qtp_cc::{BbrLite, CongestionControl, Cubic, FixedCc, GtfrcCc, TfrcCc};

use crate::caps::CcKind;

/// Instantiate the negotiated controller behind the trait seam.
pub fn controller_for(kind: CcKind, s: u32) -> Box<dyn CongestionControl> {
    match kind {
        CcKind::Tfrc => Box::new(TfrcCc::new(s)),
        CcKind::Gtfrc { target } => Box::new(GtfrcCc::new(s, target)),
        CcKind::Fixed { rate } => Box::new(FixedCc::new(rate, s)),
        CcKind::Cubic => Box::new(Cubic::new(s)),
        CcKind::BbrLite => Box::new(BbrLite::new(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtp_simnet::time::{Rate, SimTime};
    use std::time::Duration;

    #[test]
    fn factory_builds_each_kind() {
        for (kind, name) in [
            (CcKind::Tfrc, "tfrc"),
            (
                CcKind::Gtfrc {
                    target: Rate::from_mbps(2),
                },
                "gtfrc",
            ),
            (
                CcKind::Fixed {
                    rate: Rate::from_kbps(800),
                },
                "fixed",
            ),
            (CcKind::Cubic, "cubic"),
            (CcKind::BbrLite, "bbr-lite"),
        ] {
            assert_eq!(controller_for(kind, 1000).name(), name);
        }
    }

    #[test]
    fn factory_fixed_rate_ignores_feedback() {
        let mut f = controller_for(
            CcKind::Fixed {
                rate: Rate::from_kbps(800),
            },
            1000,
        );
        f.on_feedback(&qtp_cc::FeedbackReport {
            now: SimTime::from_secs(1),
            ts_echo: SimTime::ZERO,
            t_delay: Duration::ZERO,
            x_recv: 10.0,
            p: 0.5,
            newly_acked_bytes: 0,
            newly_lost_pkts: 5,
        });
        assert_eq!(f.allowed_rate(), 100_000.0);
        assert_eq!(f.nofeedback_deadline(), SimTime::MAX);
        // 1000 B at 100 kB/s = 10 ms.
        assert_eq!(f.send_interval(), Duration::from_millis(10));
    }

    #[test]
    fn factory_gtfrc_floor_survives_heavy_loss_feedback() {
        let mut g = controller_for(
            CcKind::Gtfrc {
                target: Rate::from_mbps(1),
            },
            1000,
        );
        g.seed_rtt(SimTime::ZERO, Duration::from_millis(100));
        g.on_feedback(&qtp_cc::FeedbackReport {
            now: SimTime::from_millis(100),
            ts_echo: SimTime::ZERO,
            t_delay: Duration::ZERO,
            x_recv: 1_000.0,
            p: 0.4,
            newly_acked_bytes: 0,
            newly_lost_pkts: 10,
        });
        assert!(g.allowed_rate() >= 125_000.0);
    }
}
