//! Virtual time and link-rate primitives.
//!
//! The simulator measures time in integer nanoseconds since the start of the
//! simulation ([`SimTime`]). Spans of time are ordinary [`std::time::Duration`]
//! values, so protocol code reads naturally (`now + rtt`).
//!
//! [`Rate`] is a bit-rate newtype used for link capacities and transport
//! sending rates; it knows how to convert a packet size into a serialization
//! delay without losing precision.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and cheap to copy. Arithmetic with
/// [`Duration`] is saturating on overflow (a simulation running for 584 years
/// has other problems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" timer.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimTime::ZERO
        } else {
            SimTime((s * 1e9).round() as u64)
        }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (for statistics and display).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`, or [`Duration::ZERO`] if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction producing a span.
    pub fn checked_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration::from_nanos)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<Duration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.as_nanos() as u64))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`; saturates in
    /// release builds (mirrors integer subtraction semantics).
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self >= rhs, "SimTime subtraction went negative");
        Duration::from_nanos(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A bit-rate (bits per second).
///
/// Used for link capacities, token-bucket rates and transport sending rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

impl Rate {
    /// Zero rate. A link with zero rate never transmits.
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from kilobits per second (10^3).
    pub const fn from_kbps(kbps: u64) -> Self {
        Rate(kbps * 1_000)
    }

    /// Construct from megabits per second (10^6).
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from fractional megabits per second.
    pub fn from_mbps_f64(mbps: f64) -> Self {
        Rate((mbps * 1e6).round().max(0.0) as u64)
    }

    /// Construct from bytes per second.
    pub const fn from_bytes_per_sec(bps: u64) -> Self {
        Rate(bps * 8)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Bytes per second as a float.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Megabits per second as a float.
    pub fn mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` onto a link of this rate, rounded up to the
    /// nearest nanosecond. Returns a very large duration for a zero rate.
    pub fn tx_time(self, bytes: u32) -> Duration {
        if self.0 == 0 {
            return Duration::from_secs(u64::MAX / 2_000_000_000);
        }
        let bits = bytes as u128 * 8;
        let nanos = (bits * 1_000_000_000).div_ceil(self.0 as u128);
        Duration::from_nanos(nanos as u64)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbit/s", self.mbps())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}kbit/s", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_secs_f64(1.5), SimTime::from_millis(1_500));
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime::from_secs(1) + Duration::from_millis(250);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert_eq!(t - SimTime::from_secs(1), Duration::from_millis(250));
        assert_eq!(
            t.saturating_since(SimTime::from_secs(2)),
            Duration::ZERO,
            "earlier-instant saturates"
        );
        assert_eq!(t.checked_since(SimTime::from_secs(2)), None);
    }

    #[test]
    fn simtime_negative_float_clamps() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
    }

    #[test]
    fn simtime_ordering_and_minmax() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(20);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn rate_conversions() {
        let r = Rate::from_mbps(10);
        assert_eq!(r.bps(), 10_000_000);
        assert_eq!(r.bytes_per_sec(), 1_250_000.0);
        assert_eq!(Rate::from_kbps(1_000), Rate::from_mbps(1));
        assert_eq!(Rate::from_bytes_per_sec(125), Rate::from_kbps(1));
    }

    #[test]
    fn tx_time_exact() {
        // 1250 bytes at 10 Mbit/s = 1 ms exactly.
        let r = Rate::from_mbps(10);
        assert_eq!(r.tx_time(1250), Duration::from_millis(1));
        // 1 byte at 1 Gbit/s = 8 ns.
        assert_eq!(Rate::from_mbps(1000).tx_time(1), Duration::from_nanos(8));
    }

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bit/s: 8/3 s = 2.666..s -> rounds up to ceil in nanos.
        let d = Rate::from_bps(3).tx_time(1);
        assert_eq!(d, Duration::from_nanos(2_666_666_667));
    }

    #[test]
    fn zero_rate_is_effectively_infinite() {
        assert!(Rate::ZERO.tx_time(1) > Duration::from_secs(1_000_000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_mbps(10)), "10.000Mbit/s");
        assert_eq!(format!("{}", Rate::from_kbps(64)), "64.000kbit/s");
        assert_eq!(format!("{}", Rate::from_bps(42)), "42bit/s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
    }
}
