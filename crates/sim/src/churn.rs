//! Session on/off churn generation.

use rand_distr::{Distribution, Poisson};

use crate::{SimDuration, SimRng};

/// Generates a node's session schedule.
///
/// The paper's evaluation (Section V) runs each user through a fixed number
/// of sessions (25 in simulation, 50 on PlanetLab), each watching a fixed
/// number of videos (10), with off periods drawn from a Poisson distribution
/// (mean 500 s in simulation, 2 min on PlanetLab), following the user-arrival
/// analysis of Chatzopoulou et al. All experiments therefore run *under
/// churn*.
///
/// # Examples
///
/// ```
/// use socialtube_sim::{ChurnProcess, SimDuration, SimRng};
///
/// let mut churn = ChurnProcess::new(SimRng::seed(1), SimDuration::from_secs(500), 25);
/// let off = churn.next_off_period().unwrap();
/// assert!(off > SimDuration::ZERO);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnProcess {
    rng: SimRng,
    mean_off: SimDuration,
    sessions_left: u32,
    sessions_total: u32,
}

impl ChurnProcess {
    /// Creates a process with `sessions` sessions and Poisson off periods of
    /// mean `mean_off`.
    pub fn new(rng: SimRng, mean_off: SimDuration, sessions: u32) -> Self {
        Self {
            rng,
            mean_off,
            sessions_left: sessions,
            sessions_total: sessions,
        }
    }

    /// Total number of sessions this process will generate.
    pub fn session_count(&self) -> u32 {
        self.sessions_total
    }

    /// Number of sessions not yet started.
    pub fn sessions_remaining(&self) -> u32 {
        self.sessions_left
    }

    /// Draws the off period preceding the next session, consuming one
    /// session. Returns `None` once all sessions have been used.
    ///
    /// Off periods are Poisson-distributed with the configured mean,
    /// never zero (a departed node stays off at least one second).
    pub fn next_off_period(&mut self) -> Option<SimDuration> {
        if self.sessions_left == 0 {
            return None;
        }
        self.sessions_left -= 1;
        let mean_secs = self.mean_off.as_secs_f64().max(1.0);
        let poisson = Poisson::new(mean_secs).expect("mean_off is positive");
        let draw = poisson.sample(&mut self.rng).max(1.0);
        Some(SimDuration::from_secs_f64(draw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_exactly_n_sessions() {
        let mut churn = ChurnProcess::new(SimRng::seed(3), SimDuration::from_secs(100), 5);
        assert_eq!(churn.session_count(), 5);
        let mut count = 0;
        while churn.next_off_period().is_some() {
            count += 1;
        }
        assert_eq!(count, 5);
        assert_eq!(churn.sessions_remaining(), 0);
        assert!(churn.next_off_period().is_none());
    }

    #[test]
    fn off_periods_cluster_around_mean() {
        let mut churn = ChurnProcess::new(SimRng::seed(3), SimDuration::from_secs(500), 1000);
        let mut total = 0.0;
        let mut n = 0.0;
        while let Some(off) = churn.next_off_period() {
            total += off.as_secs_f64();
            n += 1.0;
        }
        let mean = total / n;
        // Poisson(500) has std ~22, so the sample mean is tight.
        assert!((mean - 500.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn off_periods_are_never_zero() {
        let mut churn = ChurnProcess::new(SimRng::seed(3), SimDuration::from_secs(1), 100);
        while let Some(off) = churn.next_off_period() {
            assert!(off >= SimDuration::from_secs(1));
        }
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let mut a = ChurnProcess::new(SimRng::seed(9), SimDuration::from_secs(500), 10);
        let mut b = ChurnProcess::new(SimRng::seed(9), SimDuration::from_secs(500), 10);
        for _ in 0..10 {
            assert_eq!(a.next_off_period(), b.next_off_period());
        }
    }
}
