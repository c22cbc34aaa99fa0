//! Periodic observation of simulation state (PeerSim's "observer" role).

use crate::{SimDuration, SimTime};

/// Samples a value at fixed simulated-time intervals.
///
/// PeerSim attaches *observers* that run every cycle; in an event-driven
/// engine the equivalent is a sampler that fires on the first event at or
/// past each period boundary. Feed it the current time on every event (or
/// as often as convenient) and record a sample whenever it says so —
/// sampling stays deterministic because it depends only on the virtual
/// clock.
///
/// # Examples
///
/// ```
/// use socialtube_sim::{PeriodicSampler, SimDuration, SimTime};
///
/// let mut sampler = PeriodicSampler::new(SimDuration::from_secs(60));
/// assert_eq!(sampler.due(SimTime::from_micros(0)), 1);   // first boundary
/// assert_eq!(sampler.due(SimTime::from_micros(30_000_000)), 0);
/// // 150 s: two boundaries (60 s, 120 s) elapsed since the last sample.
/// assert_eq!(sampler.due(SimTime::from_micros(150_000_000)), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PeriodicSampler {
    period: SimDuration,
    next_due: SimTime,
}

impl PeriodicSampler {
    /// Creates a sampler firing every `period`, starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        assert!(period > SimDuration::ZERO, "period must be positive");
        Self {
            period,
            next_due: SimTime::ZERO,
        }
    }

    /// Returns how many period boundaries have elapsed up to `now` since
    /// the last call, advancing the sampler past them. `0` means no sample
    /// is due yet.
    pub fn due(&mut self, now: SimTime) -> u64 {
        let mut count = 0;
        while self.next_due <= now {
            self.next_due += self.period;
            count += 1;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_once_per_boundary() {
        let mut s = PeriodicSampler::new(SimDuration::from_secs(10));
        assert_eq!(s.due(SimTime::ZERO), 1);
        assert_eq!(s.due(SimTime::from_micros(9_999_999)), 0);
        assert_eq!(s.due(SimTime::from_micros(10_000_000)), 1);
        assert_eq!(s.due(SimTime::from_micros(10_000_001)), 0);
    }

    #[test]
    fn catches_up_over_gaps() {
        let mut s = PeriodicSampler::new(SimDuration::from_secs(10));
        s.due(SimTime::ZERO);
        // A long quiet stretch: all missed boundaries are reported at once.
        assert_eq!(s.due(SimTime::from_micros(45_000_000)), 4);
        assert_eq!(s.due(SimTime::from_micros(45_000_001)), 0);
    }

    #[test]
    fn monotone_input_never_double_fires() {
        let mut s = PeriodicSampler::new(SimDuration::from_millis(7));
        let mut total = 0;
        for t in (0..10_000).step_by(13) {
            total += s.due(SimTime::from_micros(t * 1_000));
        }
        // Boundaries 0, 7, …, 9_996 ms, each exactly once.
        assert_eq!(total, 1_429);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        PeriodicSampler::new(SimDuration::ZERO);
    }
}
