//! Order statistics over the timed samples of one run.

/// Quartiles, extremes and count of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Distance between the quartiles as a share of the median — the
    /// spread the driver takes over runs, taken here over one run's reps.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// The `i`-th quartile (`i` in 1..=3) of sorted samples, by the exclusive
/// method Python's `statistics.quantiles(xs, n=4)` uses, so a spread
/// computed here reads the same as one the driver computes.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    if m == 1 {
        return sorted[0];
    }
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    // The interpolation weight can fall outside 0..=4 at the clamped ends
    // of a short sample; the method extrapolates there and so does this.
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Quartiles (the median is the mean of the two middle values for an even
/// count), extremes and count of `xs`.
///
/// # Panics
///
/// On an empty slice: every caller times at least one sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "no samples to summarize");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        median: quartile(&sorted, 2),
        q1: quartile(&sorted, 1),
        q3: quartile(&sorted, 3),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        n: sorted.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single() {
        assert_eq!(summarize(&[3.0, 1.0, 2.0]).median, 2.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
        assert_eq!(summarize(&[7.5]).median, 7.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([2, 1, 4], n=4) == [1.0, 2.0, 4.0]
        let s = summarize(&[2.0, 1.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // One sample has no spread; nor has an all-zero set.
        assert_eq!(summarize(&[3.0]).spread(), 0.0);
        assert_eq!(summarize(&[0.0, 0.0]).spread(), 0.0);
    }
}
