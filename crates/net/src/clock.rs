//! The testbed's one clock: protocol time, and the wall-clock sleep that
//! brings it.

use std::time::{Duration, Instant};

use socialtube_sim::SimTime;

/// Maps real elapsed time onto the [`SimTime`] axis the protocol state
/// machines expect, so one peer implementation runs under both the
/// simulator and the testbed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TestbedClock {
    epoch: Instant,
}

impl TestbedClock {
    /// Starts a clock at the current instant (time zero).
    pub(crate) fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Wall-clock time since the epoch.
    pub(crate) fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// Current protocol time: microseconds since the epoch.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.elapsed().as_micros() as u64)
    }

    /// The wall-clock instant of protocol time `t`.
    fn instant(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_micros(t.as_micros())
    }

    /// How long a thread must sleep for protocol time `t` to come: zero
    /// once it has.
    pub(crate) fn until(&self, t: SimTime) -> Duration {
        self.instant(t).saturating_duration_since(Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_sim::SimDuration;

    #[test]
    fn a_later_reading_is_never_earlier() {
        let clock = TestbedClock::start();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_is_monotone() {
        let clock = TestbedClock::start();
        let mut last = clock.now();
        for _ in 0..100 {
            let t = clock.now();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn time_advances_with_sleep() {
        let clock = TestbedClock::start();
        let a = clock.now();
        std::thread::sleep(std::time::Duration::from_millis(10));
        let b = clock.now();
        assert!(b.as_micros() - a.as_micros() >= 9_000);
    }

    #[test]
    fn instant_inverts_now() {
        let clock = TestbedClock::start();
        let t = SimTime::from_micros(2_500);
        let zero = clock.instant(SimTime::ZERO);
        assert_eq!(clock.instant(t) - zero, Duration::from_micros(2_500));
        assert!(clock.instant(clock.now()) <= Instant::now());
        assert_eq!(clock.until(SimTime::ZERO), Duration::ZERO);
        let ahead = clock.until(clock.now() + SimDuration::from_secs(60));
        assert!(ahead > Duration::from_secs(59) && ahead <= Duration::from_secs(60));
    }
}
