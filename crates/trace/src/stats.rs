//! Statistics toolkit: empirical CDFs, percentiles, correlation, Zipf fits.

/// An empirical cumulative distribution function over `f64` samples.
///
/// Backs every CDF figure of the paper (Figs 3, 4, 6, 7, 8, 11, 12, 13).
///
/// # Examples
///
/// ```
/// use socialtube_trace::stats::Ecdf;
///
/// let cdf = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.quantile(0.5), 2.0);
/// assert_eq!(cdf.fraction_at_or_below(2.5), 0.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF, dropping non-finite samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| x.is_finite());
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples compare"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by the nearest-rank method.
    ///
    /// Returns `0.0` on an empty CDF.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.sorted.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).max(1);
        self.sorted[rank.min(self.sorted.len()) - 1]
    }

    /// Fraction of samples `≤ x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|s| *s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Smallest and largest samples.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Evaluates the CDF at `points` evenly spaced values across the sample
    /// range — the `(x, F(x))` series used to plot the figure.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        let Some((lo, hi)) = self.range() else {
            return Vec::new();
        };
        if points <= 1 || lo == hi {
            return vec![(hi, 1.0)];
        }
        (0..points)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (points - 1) as f64;
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }

    /// Evaluates the CDF at `points` log-spaced values (heavy-tailed
    /// figures are plotted on log axes).
    ///
    /// Samples must be positive; non-positive lower bounds are clamped to
    /// the smallest positive sample.
    pub fn log_curve(&self, points: usize) -> Vec<(f64, f64)> {
        let Some((_, hi)) = self.range() else {
            return Vec::new();
        };
        let lo = self
            .sorted
            .iter()
            .copied()
            .find(|x| *x > 0.0)
            .unwrap_or(1.0);
        if points <= 1 || lo >= hi {
            return vec![(hi, 1.0)];
        }
        let (llo, lhi) = (lo.ln(), hi.ln());
        (0..points)
            .map(|i| {
                // Pin the last point to the exact maximum so rounding in
                // exp(ln(hi)) cannot leave the curve short of 1.0.
                let x = if i + 1 == points {
                    hi
                } else {
                    (llo + (lhi - llo) * i as f64 / (points - 1) as f64).exp()
                };
                (x, self.fraction_at_or_below(x))
            })
            .collect()
    }
}

impl FromIterator<f64> for Ecdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

/// Pearson correlation coefficient of paired samples.
///
/// Returns `None` when fewer than two pairs remain after dropping
/// non-finite values, or when either variance is zero.
///
/// # Examples
///
/// ```
/// use socialtube_trace::stats::pearson;
///
/// let r = pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap();
/// assert!((r - 1.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len(), "paired samples must align");
    let pairs: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| x.is_finite() && y.is_finite())
        .map(|(x, y)| (*x, *y))
        .collect();
    if pairs.len() < 2 {
        return None;
    }
    let n = pairs.len() as f64;
    let mx = pairs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let my = pairs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in &pairs {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Least-squares fit of `log(y) = a - s·log(rank)`: returns the Zipf
/// exponent `s` of rank-ordered positive values (Fig 9's "roughly follows
/// the Zipf distribution" check).
///
/// Returns `None` with fewer than two positive values.
pub fn fit_zipf_exponent(rank_ordered: &[f64]) -> Option<f64> {
    let points: Vec<(f64, f64)> = rank_ordered
        .iter()
        .enumerate()
        .filter(|(_, v)| **v > 0.0)
        .map(|(i, v)| (((i + 1) as f64).ln(), v.ln()))
        .collect();
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let my = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        return None;
    }
    Some(-(sxy / sxx))
}

/// Summary percentiles used throughout the evaluation (1st, 50th, 99th —
/// the whiskers of Figs 16a/16b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentiles {
    /// 1st percentile.
    pub p1: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Percentiles {
    /// Computes the three percentiles of `samples`.
    pub fn of(samples: &[f64]) -> Self {
        let cdf: Ecdf = samples.iter().copied().collect();
        Self {
            p1: cdf.quantile(0.01),
            p50: cdf.quantile(0.50),
            p99: cdf.quantile(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let cdf = Ecdf::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(cdf.quantile(0.01), 1.0);
        assert_eq!(cdf.quantile(0.5), 50.0);
        assert_eq!(cdf.quantile(0.99), 99.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
    }

    #[test]
    fn empty_cdf_is_safe() {
        let cdf = Ecdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(1.0), 0.0);
        assert_eq!(cdf.range(), None);
        assert!(cdf.curve(10).is_empty());
        assert_eq!(cdf.mean(), 0.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let cdf = Ecdf::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    fn fraction_counts_inclusive() {
        let cdf = Ecdf::from_samples(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(cdf.fraction_at_or_below(2.0), 0.75);
        assert_eq!(cdf.fraction_at_or_below(0.5), 0.0);
        assert_eq!(cdf.fraction_at_or_below(9.0), 1.0);
    }

    #[test]
    fn curve_is_monotone_and_ends_at_one() {
        let cdf = Ecdf::from_samples((1..=50).map(f64::from).collect());
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn log_curve_covers_heavy_tail() {
        let cdf = Ecdf::from_samples(vec![1.0, 10.0, 100.0, 1000.0]);
        let curve = cdf.log_curve(10);
        assert_eq!(curve.len(), 10);
        assert!(curve[0].0 >= 1.0);
        assert_eq!(curve.last().unwrap().1, 1.0);
    }

    #[test]
    fn pearson_detects_sign() {
        let r = pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]).unwrap();
        assert!((r + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[2.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), None);
        assert_eq!(pearson(&[f64::NAN, 1.0], &[2.0, 3.0]), None);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn pearson_rejects_mismatched_lengths() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn zipf_fit_recovers_exponent() {
        let values: Vec<f64> = (1..=100).map(|k| 1000.0 / k as f64).collect();
        let s = fit_zipf_exponent(&values).unwrap();
        assert!((s - 1.0).abs() < 1e-9, "s={s}");
        let values2: Vec<f64> = (1..=100).map(|k| 1000.0 / (k as f64).powf(1.5)).collect();
        let s2 = fit_zipf_exponent(&values2).unwrap();
        assert!((s2 - 1.5).abs() < 1e-9, "s2={s2}");
    }

    #[test]
    fn zipf_fit_needs_two_points() {
        assert_eq!(fit_zipf_exponent(&[5.0]), None);
        assert_eq!(fit_zipf_exponent(&[]), None);
    }

    #[test]
    fn percentiles_summarize() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::of(&samples);
        assert_eq!(p.p1, 10.0);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
    }

    #[test]
    fn mean_is_arithmetic() {
        let cdf = Ecdf::from_samples(vec![1.0, 2.0, 3.0]);
        assert!((cdf.mean() - 2.0).abs() < 1e-12);
    }
}
