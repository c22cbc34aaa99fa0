//! Virtual time with microsecond resolution.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, measured in microseconds since the
/// start of the run.
///
/// Microsecond resolution keeps millisecond-scale startup delays and
/// sub-second chunk transfers exact while still allowing multi-day
/// simulations (`u64` microseconds ≈ 584,000 years of headroom).
///
/// # Examples
///
/// ```
/// use socialtube_sim::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1_500);
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Returns the instant as microseconds since the start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as milliseconds since the start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the instant as fractional seconds since the start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self` (simulation time never runs
    /// backwards; such a call is a scheduling bug).
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since called with a later instant"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond and clamping negatives to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Checked multiplication by an integer factor.
    pub fn checked_mul(self, factor: u64) -> Option<SimDuration> {
        self.0.checked_mul(factor).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(1).as_micros(), 60_000_000);
        assert_eq!(SimTime::from_micros(1_500_000).as_millis(), 1_500);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::ZERO + SimDuration::from_secs(5);
        let earlier = SimTime::ZERO + SimDuration::from_secs(2);
        assert_eq!(t.duration_since(earlier), SimDuration::from_secs(3));
        assert_eq!(
            SimDuration::from_secs(1) + SimDuration::from_millis(500),
            SimDuration::from_millis(1_500)
        );
        assert_eq!(
            SimDuration::from_secs(2) - SimDuration::from_secs(3),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_rejects_future() {
        SimTime::ZERO.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
    }

    #[test]
    fn addition_saturates() {
        let t = SimTime::from_micros(u64::MAX);
        assert_eq!((t + SimDuration::from_secs(1)).as_micros(), u64::MAX);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_millis(1500)).to_string(),
            "t=1.500000s"
        );
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250000s");
    }

    #[test]
    fn max_picks_later() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn checked_mul_detects_overflow() {
        assert_eq!(
            SimDuration::from_micros(10).checked_mul(3),
            Some(SimDuration::from_micros(30))
        );
        assert_eq!(SimDuration::from_micros(u64::MAX).checked_mul(2), None);
    }
}
