//! Domain-specific samplers over the paper's distributions.
//!
//! Four distribution families drive the YouTube trace (Section III) and
//! the Section V workload:
//!
//! * **Zipf** — within-channel video popularity (Fig 9, exponent s = 1)
//!   and category popularity;
//! * **Pareto / power laws** — channel weights, videos per channel,
//!   subscriber counts (Figs 3, 4, 6, 7);
//! * **Log-normal** — video lengths (short-video regime);
//! * **Poisson** — subscriptions per user and the workload's off periods.
//!
//! Each draws from a [`SimRng`]. The Section IV-B prefetch accuracy, the
//! top-`m` Zipf mass, is stated in closed form by the analysis module of
//! the `socialtube` crate; the trace generator's Zipf sampler only samples.

use socialtube_sim::SimRng;

/// Exact finite Zipf distribution over ranks `1..=n` with exponent `s`:
/// `P(rank k) = (1/k^s) / H_{n,s}`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfRanks {
    cumulative: Vec<f64>,
}

impl ZipfRanks {
    /// Builds the distribution for `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s <= 0`.
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s > 0.0, "Zipf exponent must be positive");
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cumulative: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard against floating point drift on the last entry.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        Self { cumulative }
    }

    /// Samples a rank (1-based) by inverse-CDF lookup.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF values are finite"))
        {
            Ok(i) => i + 1,
            Err(i) => (i + 1).min(self.cumulative.len()),
        }
    }
}

/// A uniform draw from the open interval `(0, 1)`: safe to take `ln` of.
fn open01(rng: &mut SimRng) -> f64 {
    loop {
        let u = rng.unit();
        if u > 0.0 {
            return u;
        }
    }
}

/// A standard normal draw via Box–Muller.
fn standard_normal(rng: &mut SimRng) -> f64 {
    let u1 = open01(rng);
    let u2 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `Poisson(lambda)` as a whole-number `f64`: Knuth's product
/// method below a mean of 30, and from there the normal approximation,
/// rounded and clamped at 0, whose error is far below what any statistic
/// here resolves.
///
/// # Panics
///
/// Panics if `lambda` is not positive and finite.
pub fn poisson(rng: &mut SimRng, lambda: f64) -> f64 {
    assert!(
        lambda > 0.0 && lambda.is_finite(),
        "Poisson mean must be positive and finite"
    );
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut product = open01(rng);
        let mut count = 0.0;
        while product > limit {
            product *= open01(rng);
            count += 1.0;
        }
        count
    } else {
        (lambda + lambda.sqrt() * standard_normal(rng))
            .round()
            .max(0.0)
    }
}

/// Samples a heavy-tailed positive value with Pareto shape `shape` and
/// minimum `min` (the paper's channel-popularity and per-channel video-count
/// tails) by inverse CDF, `min · U^(-1/shape)`. Smaller `shape` means
/// heavier tails.
///
/// # Panics
///
/// Panics if `shape` or `min` is not positive and finite.
pub(crate) fn pareto_sample(rng: &mut SimRng, min: f64, shape: f64) -> f64 {
    assert!(
        min > 0.0 && shape > 0.0 && min.is_finite() && shape.is_finite(),
        "Pareto scale and shape must be positive and finite"
    );
    min * open01(rng).powf(-1.0 / shape)
}

/// Samples `exp(mu + sigma · N(0, 1))`, a log-normal with median `e^mu`.
///
/// # Panics
///
/// Panics if `sigma` is negative or either parameter is not finite.
fn log_normal(rng: &mut SimRng, mu: f64, sigma: f64) -> f64 {
    assert!(
        sigma >= 0.0 && sigma.is_finite() && mu.is_finite(),
        "log-normal sigma must be non-negative and finite"
    );
    (mu + sigma * standard_normal(rng)).exp()
}

/// Samples a videos-per-channel count with the Fig 6 shape: median
/// `median`, Pareto tail `shape`.
pub(crate) fn videos_per_channel(rng: &mut SimRng, median: f64, shape: f64) -> usize {
    // For Pareto(min, a), median = min * 2^(1/a): invert for min.
    let min = median / 2f64.powf(1.0 / shape);
    pareto_sample(rng, min.max(1.0), shape).round().max(1.0) as usize
}

/// Samples a short-video length in seconds: log-normal with the given
/// median and sigma, capped at `cap_secs` and at least 10 s.
pub(crate) fn video_length_secs(
    rng: &mut SimRng,
    median_secs: f64,
    sigma: f64,
    cap_secs: u32,
) -> u32 {
    let secs = log_normal(rng, median_secs.ln(), sigma);
    // Minimum 10 s unless the cap itself is shorter (tiny testbed videos).
    let floor = 10.min(cap_secs.max(1));
    (secs.round() as u32).clamp(floor, cap_secs.max(1))
}

/// Samples an upload day in `[0, history_days)` with linearly increasing
/// density, matching the accelerating upload volume of Fig 2
/// (`P(day ≤ d) = (d / D)²` so density grows ∝ d).
pub(crate) fn upload_day(rng: &mut SimRng, history_days: u32) -> u32 {
    let d = (rng.unit().sqrt() * f64::from(history_days)).floor() as u32;
    d.min(history_days.saturating_sub(1))
}

/// Samples a geometric count: `1 + Geometric(1 - continuation)` capped at
/// `max`, used for user interest counts (Fig 13) and extra channel
/// categories (Fig 11).
pub(crate) fn geometric_count(rng: &mut SimRng, continuation: f64, max: usize) -> usize {
    let mut count = 1;
    while count < max && rng.unit() < continuation {
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed(7)
    }

    /// Each rank's probability, read off the CDF table.
    fn masses(z: &ZipfRanks) -> Vec<f64> {
        let mut prev = 0.0;
        z.cumulative
            .iter()
            .map(|c| {
                let p = c - prev;
                prev = *c;
                p
            })
            .collect()
    }

    #[test]
    fn zipf_top_rank_draws_match_section_iv_b() {
        let zipf = ZipfRanks::new(25, 1.0);
        let mut rng = SimRng::seed(7);
        // Section IV-B: for a 25-video channel the top video holds ~26.2%.
        let top = (0..10_000).filter(|_| zipf.sample(&mut rng) == 1).count();
        assert!((2_400..2_850).contains(&top), "top={top}");
    }

    #[test]
    fn zipf_probabilities_sum_to_one() {
        let z = ZipfRanks::new(100, 1.0);
        assert_eq!(z.cumulative.len(), 100);
        let total: f64 = masses(&z).iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_matches_paper_prefetch_numbers() {
        // Section IV-B: 25-video channel, s=1 → top-1 ≈ 26.2%.
        let z = ZipfRanks::new(25, 1.0);
        assert!((z.cumulative[0] - 0.262).abs() < 0.005);
        // "3-4 videos during a single playback" → accuracy rises to ~54.6%.
        let top4 = z.cumulative[3];
        assert!((top4 - 0.546).abs() < 0.002, "top4={top4}");
    }

    #[test]
    fn zipf_is_monotone_decreasing() {
        let p = masses(&ZipfRanks::new(50, 1.0));
        assert!(p.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn zipf_top_mass_saturates() {
        // The last CDF entry is exactly 1, so every unit draw finds a rank.
        let z = ZipfRanks::new(10, 1.0);
        assert_eq!(z.cumulative[9], 1.0);
        let mut rng = rng();
        assert!((0..10_000).all(|_| (1..=10).contains(&z.sample(&mut rng))));
    }

    #[test]
    fn zipf_sampling_matches_probabilities() {
        let z = ZipfRanks::new(10, 1.0);
        let harmonic: f64 = (1..=10).map(|k| 1.0 / k as f64).sum();
        let mut rng = rng();
        let n = 100_000;
        let mut counts = [0usize; 10];
        for _ in 0..n {
            counts[z.sample(&mut rng) - 1] += 1;
        }
        for k in 1..=10 {
            let freq = counts[k - 1] as f64 / n as f64;
            let p = 1.0 / (k as f64 * harmonic);
            assert!((freq - p).abs() < 0.01, "rank {k}: freq={freq} p={p}");
        }
    }

    /// The first draws of seed 42, recorded from the generator this
    /// reproduction has always used (xoshiro256++ seeded by SplitMix64):
    /// when one drifts, this names the generator before any golden does.
    #[test]
    fn seeded_draws_are_pinned() {
        let mut rng = SimRng::seed(42);
        assert_eq!(rng.next_u64(), 15_021_278_609_987_233_951);
        assert_eq!(rng.unit(), 0.3188210400616611);
        assert_eq!(rng.below(10), 9);
        assert_eq!(rng.below(0), 12_933_668_939_759_105_464);
        assert_eq!(poisson(&mut rng, 3.0), 3.0);
        assert_eq!(poisson(&mut rng, 500.0), 536.0);
        assert_eq!(pareto_sample(&mut rng, 1.0, 0.9), 1.9062860889411748);
        assert_eq!(video_length_secs(&mut rng, 180.0, 0.6, 600), 156);
    }

    #[test]
    fn poisson_small_mean_is_calibrated() {
        let mut r = SimRng::seed(42);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson(&mut r, 3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_is_calibrated() {
        let mut r = SimRng::seed(42);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| poisson(&mut r, 500.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
        assert!((std - 500f64.sqrt()).abs() < 2.0, "std {std}");
    }

    /// The median of `n` draws of `sample`.
    fn median(n: usize, mut sample: impl FnMut() -> f64) -> f64 {
        let mut samples: Vec<f64> = (0..n).map(|_| sample()).collect();
        samples.sort_by(f64::total_cmp);
        samples[n / 2]
    }

    #[test]
    fn pareto_median_matches_closed_form() {
        // Median of Pareto(x_m, α) is x_m · 2^(1/α).
        let mut r = SimRng::seed(42);
        let got = median(20_001, || pareto_sample(&mut r, 2.0, 1.5));
        let expect = 2.0 * 2f64.powf(1.0 / 1.5);
        assert!((got - expect).abs() / expect < 0.05, "median {got}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut r = SimRng::seed(42);
        let got = median(20_001, || log_normal(&mut r, 2.0, 0.8));
        let expect = 2f64.exp();
        assert!((got - expect).abs() / expect < 0.05, "median {got}");
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let refused = |draw: fn(&mut SimRng)| {
            std::panic::catch_unwind(|| draw(&mut SimRng::seed(1))).is_err()
        };
        assert!(refused(|r| {
            let _ = poisson(r, 0.0);
        }));
        assert!(refused(|r| {
            let _ = poisson(r, f64::NAN);
        }));
        assert!(refused(|r| {
            let _ = log_normal(r, 0.0, -1.0);
        }));
        assert!(refused(|r| {
            let _ = pareto_sample(r, 0.0, 1.0);
        }));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_zero_ranks() {
        ZipfRanks::new(0, 1.0);
    }

    #[test]
    fn videos_per_channel_median_is_calibrated() {
        let mut rng = rng();
        let mut samples: Vec<usize> = (0..20_000)
            .map(|_| videos_per_channel(&mut rng, 9.0, 1.1))
            .collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        assert!((7..=11).contains(&median), "median={median}");
        // Heavy tail: some channels should be much larger.
        assert!(*samples.last().unwrap() > 100);
    }

    #[test]
    fn video_lengths_respect_bounds() {
        let mut rng = rng();
        for _ in 0..1_000 {
            let len = video_length_secs(&mut rng, 180.0, 0.6, 600);
            assert!((10..=600).contains(&len));
        }
    }

    #[test]
    fn upload_days_grow_denser_over_time() {
        let mut rng = rng();
        let days: Vec<u32> = (0..50_000).map(|_| upload_day(&mut rng, 1000)).collect();
        let first_half = days.iter().filter(|d| **d < 500).count();
        let second_half = days.len() - first_half;
        // Quadratic CDF → 25% in the first half, 75% in the second.
        assert!(second_half > 2 * first_half, "growth not increasing");
        assert!(days.iter().all(|d| *d < 1000));
    }

    #[test]
    fn geometric_count_is_capped_and_positive() {
        let mut rng = rng();
        for _ in 0..1_000 {
            let c = geometric_count(&mut rng, 0.72, 18);
            assert!((1..=18).contains(&c));
        }
        // Continuation 0 → always exactly 1.
        assert_eq!(geometric_count(&mut rng, 0.0, 18), 1);
    }

    #[test]
    fn geometric_count_hits_paper_interest_shape() {
        let mut rng = rng();
        let n = 50_000;
        let below_10 = (0..n)
            .filter(|_| geometric_count(&mut rng, 0.72, 18) < 10)
            .count();
        let frac = below_10 as f64 / n as f64;
        // Fig 13: around 60% of users have fewer than 10 interests.
        assert!((0.5..0.99).contains(&frac), "frac={frac}");
    }
}
