//! Composable path impairment models: reordering and duplication.
//!
//! A [`PathModel`] sits between a link's loss process and propagation: after
//! a packet survives the [`crate::loss::LossModel`] it can be delayed by a
//! bounded random jitter (producing reordering), or duplicated (a second
//! copy propagates with its own jitter draw). These are the
//! transport-hostile behaviours the survey literature identifies as the
//! regimes where window-based transports misfire: spurious fast retransmit
//! under reordering and ack-ambiguity under duplication.
//!
//! Determinism contract: a disabled model ([`PathModel::is_noop`]) makes
//! **zero** RNG draws and schedules exactly the events an unimpaired link
//! would, so every pre-existing fixed-seed output stays byte-identical.
//! Active models draw from a dedicated per-link stream
//! (`DetRng::stream(seed, 0x9A77 ^ link_id)`), independent of the loss and
//! AQM stream, so enabling an impairment on one link never perturbs the
//! draws of any other component.
//!
//! Reordering bound: each packet's extra delay is drawn uniformly from
//! `[0, jitter]`. Since the unimpaired (nominal) arrivals of a FIFO link
//! are monotone, a packet can only be overtaken by packets whose nominal
//! arrival is at most `jitter` later — the max-displacement invariant the
//! proptest in `tests/path_reorder_proptest.rs` checks against a naive
//! oracle.

use std::time::Duration;

use crate::rng::DetRng;

/// Bounded random reordering: with probability `p` a packet's propagation
/// is stretched by an extra delay drawn uniformly from `[0, jitter]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Probability that a packet receives extra delay.
    pub p: f64,
    /// Upper bound of the extra delay (the max-displacement bound).
    pub jitter: Duration,
}

impl ReorderSpec {
    /// Reorder every susceptible packet with probability `p`, delaying it
    /// by at most `jitter`.
    pub fn new(p: f64, jitter: Duration) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder probability out of range");
        ReorderSpec { p, jitter }
    }

    /// Whether this spec can ever change a delivery time.
    fn active(&self) -> bool {
        self.p > 0.0 && self.jitter > Duration::ZERO
    }
}

/// A composable bundle of in-flight path impairments for one link.
///
/// The default model is a no-op: no draws, no behaviour change. Impairments
/// compose; per surviving packet the draw order is fixed (reorder jitter,
/// then duplication, then the duplicate's jitter) so runs are
/// byte-reproducible.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PathModel {
    /// Bounded random reordering, if enabled.
    pub reorder: Option<ReorderSpec>,
    /// Probability that a packet is duplicated in flight.
    pub duplicate: f64,
}

impl PathModel {
    /// The identity model: no impairments, zero RNG draws.
    pub fn none() -> Self {
        PathModel::default()
    }

    /// Enable bounded reordering.
    pub fn with_reorder(mut self, p: f64, jitter: Duration) -> Self {
        self.reorder = Some(ReorderSpec::new(p, jitter));
        self
    }

    /// Enable probabilistic duplication.
    pub fn with_duplicate(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability out of range"
        );
        self.duplicate = p;
        self
    }

    /// Whether the model can never affect a packet. The simulator skips all
    /// draws for no-op models — the byte-identity guarantee for existing
    /// scenarios rests on this.
    pub fn is_noop(&self) -> bool {
        self.duplicate == 0.0 && !self.reorder.is_some_and(|r| r.active())
    }

    /// Decide one surviving packet's fate: `(extra_delay, duplicate_delay)`
    /// where `duplicate_delay` is the second copy's extra delay if one is
    /// spawned. Draw order is part of the determinism contract.
    pub(crate) fn apply(&self, rng: &mut DetRng) -> (Duration, Option<Duration>) {
        let extra = self.draw_jitter(rng);
        let dup = if rng.chance(self.duplicate) {
            Some(self.draw_jitter(rng))
        } else {
            None
        };
        (extra, dup)
    }

    /// One reorder-jitter draw: extra delay in `[0, jitter]`, or zero when
    /// reordering is disabled or the per-packet coin misses.
    fn draw_jitter(&self, rng: &mut DetRng) -> Duration {
        match self.reorder {
            Some(r) if r.active() && rng.chance(r.p) => {
                let frac = rng.next_f64();
                Duration::from_nanos((frac * r.jitter.as_nanos() as f64) as u64)
            }
            _ => Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_noop() {
        assert!(PathModel::none().is_noop());
        assert!(PathModel::default().is_noop());
    }

    #[test]
    fn degenerate_reorder_is_noop() {
        // Zero probability or zero jitter can never move a delivery.
        assert!(PathModel::none()
            .with_reorder(0.0, Duration::from_millis(5))
            .is_noop());
        assert!(PathModel::none()
            .with_reorder(0.5, Duration::ZERO)
            .is_noop());
        assert!(!PathModel::none()
            .with_reorder(0.5, Duration::from_millis(5))
            .is_noop());
    }

    #[test]
    fn builders_compose() {
        let m = PathModel::none()
            .with_reorder(0.3, Duration::from_millis(10))
            .with_duplicate(0.01);
        assert!(!m.is_noop());
        assert_eq!(
            m.reorder,
            Some(ReorderSpec::new(0.3, Duration::from_millis(10)))
        );
        assert_eq!(m.duplicate, 0.01);
    }

    #[test]
    fn jitter_draws_stay_within_bound() {
        let jitter = Duration::from_millis(7);
        let m = PathModel::none().with_reorder(1.0, jitter);
        let mut rng = DetRng::new(42);
        for _ in 0..10_000 {
            let (extra, dup) = m.apply(&mut rng);
            assert!(extra <= jitter, "extra={extra:?}");
            assert!(dup.is_none());
        }
    }

    #[test]
    fn duplicate_rate_matches_p() {
        let m = PathModel::none().with_duplicate(0.2);
        let mut rng = DetRng::new(9);
        let n = 100_000;
        let dups = (0..n).filter(|_| m.apply(&mut rng).1.is_some()).count();
        let rate = dups as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate={rate}");
    }

    #[test]
    #[should_panic(expected = "duplicate probability out of range")]
    fn duplicate_probability_validated() {
        let _ = PathModel::none().with_duplicate(1.5);
    }
}
