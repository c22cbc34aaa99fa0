//! Wall-clock → protocol-time mapping.

use std::time::{Duration, Instant};

use socialtube_sim::SimTime;

/// Maps real elapsed time onto the [`SimTime`] axis the protocol state
/// machines expect, so one peer implementation runs under both the
/// simulator and the testbed.
///
/// # Examples
///
/// ```
/// use socialtube_net::clock::TestbedClock;
///
/// let clock = TestbedClock::start();
/// let a = clock.now();
/// let b = clock.now();
/// assert!(b >= a);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TestbedClock {
    epoch: Instant,
}

impl TestbedClock {
    /// Starts a clock at the current instant (time zero).
    pub fn start() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// Current protocol time: microseconds since the epoch.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// The wall-clock instant of protocol time `t`.
    pub fn instant(&self, t: SimTime) -> Instant {
        self.epoch + Duration::from_micros(t.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
