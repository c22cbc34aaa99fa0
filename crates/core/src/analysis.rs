//! Closed-form analyses from the paper: Fig 15's maintenance-overhead
//! comparison and the Section IV-B prefetch-accuracy model.

/// Links a SocialTube node maintains: `log(u_c) + log(u_t)`, where `u_c` is
/// the channel population and `u_t` the category population (Section IV-C's
/// optimal-tradeoff setting `N_l = log u_c`, `N_h = log u_t`).
///
/// # Examples
///
/// ```
/// let links = socialtube::analysis::socialtube_overhead(500.0, 25_000.0);
/// assert!((links - (500f64.log2() + 25_000f64.log2())).abs() < 1e-9);
/// ```
pub fn socialtube_overhead(channel_users: f64, category_users: f64) -> f64 {
    channel_users.max(1.0).log2() + category_users.max(1.0).log2()
}

/// Links a NetTube node maintains after watching `videos_watched` videos:
/// `m · log(u)`, one overlay of `u` viewers per video (Section IV-C).
pub fn nettube_overhead(videos_watched: f64, viewers_per_video: f64) -> f64 {
    videos_watched * viewers_per_video.max(1.0).log2()
}

/// One point of the Fig 15 series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadPoint {
    /// Videos watched in the session (`m`).
    pub videos_watched: u32,
    /// SocialTube's link count (constant in `m`).
    pub socialtube: f64,
    /// NetTube's link count (linear in `m`).
    pub nettube: f64,
}

/// Regenerates Fig 15 with the paper's parameters by default:
/// `u = 500`, `u_c = 5_000`, `u_t = 25_000`, `m = 1..=max_videos`.
pub fn fig15_series(
    max_videos: u32,
    viewers_per_video: f64,
    channel_users: f64,
    category_users: f64,
) -> Vec<OverheadPoint> {
    (1..=max_videos)
        .map(|m| OverheadPoint {
            videos_watched: m,
            socialtube: socialtube_overhead(channel_users, category_users),
            nettube: nettube_overhead(f64::from(m), viewers_per_video),
        })
        .collect()
}

/// Probability that one of the top-`m` prefetched videos of an `n`-video
/// channel (Zipf popularity, exponent 1) is watched next:
/// `Σ_{k=1..m} (1/k) / H_n` (Section IV-B; the paper reports 26.2% for
/// `m = 1` and ~54.6% for `m = 3..4` in a 25-video channel).
///
/// Returns `0.0` when the channel has no videos or `m == 0`.
pub fn prefetch_accuracy(channel_videos: usize, m: usize) -> f64 {
    if channel_videos == 0 || m == 0 {
        return 0.0;
    }
    let h_n: f64 = (1..=channel_videos).map(|k| 1.0 / k as f64).sum();
    let h_m: f64 = (1..=m.min(channel_videos)).map(|k| 1.0 / k as f64).sum();
    h_m / h_n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig15_socialtube_is_flat_nettube_linear() {
        let series = fig15_series(14, 500.0, 5_000.0, 25_000.0);
        assert_eq!(series.len(), 14);
        let st0 = series[0].socialtube;
        for p in &series {
            assert_eq!(p.socialtube, st0, "SocialTube overhead is constant");
        }
        // NetTube grows linearly: equal increments.
        let inc = series[1].nettube - series[0].nettube;
        for w in series.windows(2) {
            assert!((w[1].nettube - w[0].nettube - inc).abs() < 1e-9);
        }
        // Crossover: NetTube eventually exceeds SocialTube.
        assert!(series.last().unwrap().nettube > st0);
        // For small m, NetTube is cheaper (the paper's observation).
        assert!(series[0].nettube < st0);
    }

    #[test]
    fn paper_overhead_numbers() {
        // u_c=5,000, u_t=25,000: log2 gives ~26.9 links.
        let st = socialtube_overhead(5_000.0, 25_000.0);
        assert!((26.0..28.0).contains(&st), "st={st}");
        // NetTube at m=10, u=500: 10*log2(500) ≈ 89.7.
        let nt = nettube_overhead(10.0, 500.0);
        assert!((85.0..95.0).contains(&nt), "nt={nt}");
    }

    #[test]
    fn prefetch_accuracy_matches_paper() {
        // 25-video channel: single prefetch ≈ 26.2%.
        let p1 = prefetch_accuracy(25, 1);
        assert!((p1 - 0.262).abs() < 0.005, "p1={p1}");
        // 3-4 prefetches: ≈ 54.6%.
        let p4 = prefetch_accuracy(25, 4);
        assert!((p4 - 0.546).abs() < 0.01, "p4={p4}");
    }

    #[test]
    fn prefetch_accuracy_is_monotone_in_m() {
        for m in 1..25 {
            assert!(prefetch_accuracy(25, m) < prefetch_accuracy(25, m + 1));
        }
        assert!((prefetch_accuracy(25, 25) - 1.0).abs() < 1e-12);
        assert!((prefetch_accuracy(25, 100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        assert_eq!(prefetch_accuracy(0, 3), 0.0);
        assert_eq!(prefetch_accuracy(10, 0), 0.0);
        assert_eq!(socialtube_overhead(0.0, 0.0), 0.0);
        assert_eq!(nettube_overhead(0.0, 500.0), 0.0);
    }
}
