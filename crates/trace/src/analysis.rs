//! Trace analysis: one function per figure of Section III.
//!
//! Each function recomputes the statistic behind one figure of the paper,
//! over either a full [`Trace`] or (being purely catalog/graph driven) the
//! portion discovered by a [`crawl`](crate::crawl) sample. The bench crate's
//! `figures` binary renders these into the tables recorded in
//! `EXPERIMENTS.md`.

use socialtube_model::{ChannelId, SharedSubscriberEdge};

use crate::generator::HISTORY_DAYS;
use crate::stats::{fit_zipf_exponent, pearson, Ecdf};
use crate::Trace;

/// Fig 2 — number of videos added per 30-day month across the history.
///
/// Returns `(month_index, videos_added)` pairs; the increasing series is
/// observation O1 (VoD demand outgrows server bandwidth).
pub fn video_growth(trace: &Trace) -> Vec<(u32, usize)> {
    let months = HISTORY_DAYS.div_ceil(30);
    let mut counts = vec![0usize; months as usize];
    for v in trace.catalog.videos() {
        counts[(v.upload_day() / 30).min(months - 1) as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as u32, c))
        .collect()
}

/// Fig 3 — CDF over channels of average daily video-view frequency.
pub fn channel_view_frequency(trace: &Trace) -> Ecdf {
    let today = trace.observation_day();
    trace
        .catalog
        .channels()
        .filter(|c| c.video_count() > 0)
        .map(|c| {
            let total: f64 = c
                .videos()
                .iter()
                .map(|v| {
                    trace
                        .catalog
                        .video(*v)
                        .expect("channel video exists")
                        .view_frequency(today)
                })
                .sum();
            total / c.video_count() as f64
        })
        .collect()
}

/// Fig 4 — CDF over channels of subscriber count.
pub fn subscriber_distribution(trace: &Trace) -> Ecdf {
    trace
        .catalog
        .channels()
        .map(|c| trace.graph.subscriber_count(c.id()) as f64)
        .collect()
}

/// Fig 5 — per-channel `(subscribers, total views)` scatter and its Pearson
/// correlation (the paper reports a strong positive relationship).
pub fn views_vs_subscriptions(trace: &Trace) -> (Vec<(f64, f64)>, Option<f64>) {
    let points: Vec<(f64, f64)> = trace
        .catalog
        .channels()
        .map(|c| {
            (
                trace.graph.subscriber_count(c.id()) as f64,
                trace.catalog.channel_total_views(c.id()) as f64,
            )
        })
        .collect();
    let subs: Vec<f64> = points.iter().map(|(s, _)| *s).collect();
    let views: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let r = pearson(&subs, &views);
    (points, r)
}

/// Fig 6 — CDF over channels of video count.
pub fn videos_per_channel(trace: &Trace) -> Ecdf {
    trace
        .catalog
        .channels()
        .map(|c| c.video_count() as f64)
        .collect()
}

/// Fig 7 — CDF over videos of total view count.
pub fn video_view_distribution(trace: &Trace) -> Ecdf {
    trace.catalog.videos().map(|v| v.views() as f64).collect()
}

/// Fig 8 — CDF over videos of favorite count, plus the views↔favorites
/// Pearson correlation (Chatzopoulou et al. report > 0.9).
pub fn favorites_distribution(trace: &Trace) -> (Ecdf, Option<f64>) {
    let favs: Vec<f64> = trace
        .catalog
        .videos()
        .map(|v| v.favorites() as f64)
        .collect();
    let views: Vec<f64> = trace.catalog.videos().map(|v| v.views() as f64).collect();
    let r = pearson(&views, &favs);
    (favs.into_iter().collect(), r)
}

/// Fig 9 — within-channel popularity: ranked view counts of a
/// high/medium/low-popularity channel plus the fitted Zipf exponent of the
/// high-popularity channel (the paper observes s ≈ 1).
#[derive(Clone, Debug)]
pub struct WithinChannelPopularity {
    /// Ranked views of the most popular channel.
    pub high: Vec<u64>,
    /// Ranked views of a median-popularity channel.
    pub medium: Vec<u64>,
    /// Ranked views of an unpopular channel.
    pub low: Vec<u64>,
    /// Zipf exponent fitted to the high-popularity channel.
    pub zipf_exponent_high: Option<f64>,
}

/// Computes the Fig 9 statistic. Channels are ranked by total views; the
/// high/medium/low picks are the maximum, median and minimum among channels
/// with at least 5 videos (singleton channels carry no rank signal).
pub fn within_channel_popularity(trace: &Trace) -> WithinChannelPopularity {
    let mut ranked: Vec<(ChannelId, u64)> = trace
        .catalog
        .channels()
        .filter(|c| c.video_count() >= 5)
        .map(|c| (c.id(), trace.catalog.channel_total_views(c.id())))
        .collect();
    ranked.sort_by_key(|(_, views)| std::cmp::Reverse(*views));
    let views_of = |ch: ChannelId| -> Vec<u64> {
        trace
            .catalog
            .channel_videos_by_popularity(ch)
            .iter()
            .map(|v| trace.catalog.video(*v).expect("video exists").views())
            .collect()
    };
    if ranked.is_empty() {
        return WithinChannelPopularity {
            high: Vec::new(),
            medium: Vec::new(),
            low: Vec::new(),
            zipf_exponent_high: None,
        };
    }
    let high = views_of(ranked[0].0);
    let medium = views_of(ranked[ranked.len() / 2].0);
    let low = views_of(ranked[ranked.len() - 1].0);
    let high_f: Vec<f64> = high.iter().map(|v| *v as f64).collect();
    WithinChannelPopularity {
        zipf_exponent_high: fit_zipf_exponent(&high_f),
        high,
        medium,
        low,
    }
}

/// Fig 10 — the channel graph linked by shared subscribers, with a
/// clustering summary.
#[derive(Clone, Debug)]
pub struct ChannelClustering {
    /// Edges between channels sharing at least the threshold subscribers.
    pub edges: Vec<SharedSubscriberEdge>,
    /// Fraction of edges whose endpoints share an interest category —
    /// the "distinct clusters" observation O4.
    pub intra_category_fraction: f64,
    /// Null baseline: fraction of *all* channel pairs sharing a category,
    /// regardless of subscribers. Clustering shows up as
    /// `intra_category_fraction` exceeding this by a clear margin.
    pub baseline_fraction: f64,
}

impl ChannelClustering {
    /// How much more often strongly-connected channel pairs share a
    /// category than arbitrary channel pairs do (1.0 = no clustering).
    pub fn lift(&self) -> f64 {
        if self.baseline_fraction == 0.0 {
            return if self.intra_category_fraction > 0.0 {
                f64::INFINITY
            } else {
                1.0
            };
        }
        self.intra_category_fraction / self.baseline_fraction
    }
}

/// Computes the Fig 10 statistic with the given shared-subscriber
/// `threshold` (the paper used 50 at crawl scale).
pub fn channel_clustering(trace: &Trace, threshold: usize) -> ChannelClustering {
    let shares_category = |a: &crate::Trace, e_a, e_b| {
        let ca = a.catalog.channel(e_a).expect("channel exists");
        let cb = a.catalog.channel(e_b).expect("channel exists");
        ca.categories().iter().any(|c| cb.has_category(*c))
    };
    let edges = trace.graph.shared_subscriber_edges(threshold);
    let intra = edges
        .iter()
        .filter(|e| shares_category(trace, e.a, e.b))
        .count();
    let intra_category_fraction = if edges.is_empty() {
        0.0
    } else {
        intra as f64 / edges.len() as f64
    };
    let channels: Vec<_> = trace.catalog.channels().map(|c| c.id()).collect();
    let mut pairs = 0u64;
    let mut matched = 0u64;
    for (i, &a) in channels.iter().enumerate() {
        for &b in &channels[i + 1..] {
            pairs += 1;
            if shares_category(trace, a, b) {
                matched += 1;
            }
        }
    }
    let baseline_fraction = if pairs == 0 {
        0.0
    } else {
        matched as f64 / pairs as f64
    };
    ChannelClustering {
        edges,
        intra_category_fraction,
        baseline_fraction,
    }
}

/// Fig 11 — CDF over channels of the number of interest categories.
pub fn channel_interest_count(trace: &Trace) -> Ecdf {
    trace
        .catalog
        .channels()
        .map(|c| c.categories().len() as f64)
        .collect()
}

/// Fig 12 — CDF over users of the interest/subscription similarity
/// `|C_u ∩ C_c| / |C_u|` (Section III-D).
pub fn interest_similarity(trace: &Trace) -> Ecdf {
    trace
        .graph
        .users()
        .filter_map(|u| {
            let cats = trace
                .graph
                .subscribed_categories(u.id(), &trace.catalog)
                .ok()?;
            u.interest_similarity(&cats)
        })
        .collect()
}

/// Fig 13 — CDF over users of the number of personal interests.
pub fn user_interest_count(trace: &Trace) -> Ecdf {
    trace
        .graph
        .users()
        .map(|u| u.interests().len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig::tiny(), 21)
    }

    #[test]
    fn fig2_growth_accelerates() {
        let t = trace();
        let growth = video_growth(&t);
        assert!(!growth.is_empty());
        let half = growth.len() / 2;
        let first: usize = growth[..half].iter().map(|(_, c)| c).sum();
        let second: usize = growth[half..].iter().map(|(_, c)| c).sum();
        assert!(
            second > first,
            "uploads should accelerate: {first} vs {second}"
        );
        let total: usize = growth.iter().map(|(_, c)| c).sum();
        assert_eq!(total, t.catalog.video_count());
    }

    #[test]
    fn fig3_frequencies_are_heavy_tailed() {
        let t = trace();
        let cdf = channel_view_frequency(&t);
        assert_eq!(cdf.sorted.len(), t.catalog.channel_count());
        assert!(cdf.quantile(0.99) > 5.0 * cdf.quantile(0.5));
    }

    #[test]
    fn fig4_subscribers_are_skewed() {
        let t = trace();
        let cdf = subscriber_distribution(&t);
        assert!(cdf.quantile(0.75) >= cdf.quantile(0.25));
        assert!(cdf.quantile(1.0) > cdf.quantile(0.5));
    }

    #[test]
    fn fig5_views_correlate_with_subscriptions() {
        let t = trace();
        let (points, r) = views_vs_subscriptions(&t);
        assert_eq!(points.len(), t.catalog.channel_count());
        let r = r.expect("correlation defined");
        assert!(r > 0.3, "pearson={r}");
    }

    #[test]
    fn fig6_median_videos_per_channel_near_paper() {
        let t = generate(&TraceConfig::default(), 2);
        let cdf = videos_per_channel(&t);
        let median = cdf.quantile(0.5);
        // Paper: 50% of channels have 9 or fewer videos.
        assert!((4.0..=25.0).contains(&median), "median={median}");
        // Heavy tail: top 10% channels much larger than the median.
        assert!(cdf.quantile(0.9) > 2.0 * median);
    }

    #[test]
    fn fig7_views_heavy_tailed() {
        let t = trace();
        let cdf = video_view_distribution(&t);
        assert!(cdf.quantile(0.9) > 5.0 * cdf.quantile(0.5));
    }

    #[test]
    fn fig8_favorites_track_views() {
        let t = trace();
        let (cdf, r) = favorites_distribution(&t);
        assert_eq!(cdf.sorted.len(), t.catalog.video_count());
        assert!(r.expect("correlation defined") > 0.9);
    }

    #[test]
    fn fig9_high_channel_is_zipf() {
        let t = trace();
        let pop = within_channel_popularity(&t);
        assert!(!pop.high.is_empty());
        for w in pop.high.windows(2) {
            assert!(w[0] >= w[1], "ranked views must be non-increasing");
        }
        let s = pop.zipf_exponent_high.expect("fit defined");
        assert!((s - 1.0).abs() < 0.2, "zipf exponent {s}");
        // High channel strictly dominates the low channel in total views.
        let high: u64 = pop.high.iter().sum();
        let low: u64 = pop.low.iter().sum();
        assert!(high > low);
    }

    #[test]
    fn fig10_clusters_form_within_categories() {
        let t = generate(&TraceConfig::default(), 3);
        let clustering = channel_clustering(&t, 5);
        assert!(!clustering.edges.is_empty(), "no shared-subscriber edges");
        // Clustering = strongly-connected channel pairs share a category far
        // more often than arbitrary pairs (the absolute fraction depends on
        // how many categories the config spreads channels over).
        assert!(
            clustering.lift() > 1.5,
            "intra fraction {} is only {:.2}x the {} baseline",
            clustering.intra_category_fraction,
            clustering.lift(),
            clustering.baseline_fraction
        );
    }

    #[test]
    fn fig11_channels_focus_on_few_categories() {
        let t = trace();
        let cdf = channel_interest_count(&t);
        assert!(cdf.quantile(1.0) <= 4.0);
        assert!(cdf.quantile(0.5) <= 2.0);
    }

    #[test]
    fn fig12_similarity_is_high() {
        let t = trace();
        let cdf = interest_similarity(&t);
        assert!(!cdf.sorted.is_empty());
        let median = cdf.quantile(0.5);
        assert!(median >= 0.5, "median similarity {median}");
        let (lo, hi) = cdf.range().expect("nonempty");
        assert!((0.0..=1.0).contains(&lo) && hi <= 1.0);
    }

    #[test]
    fn fig13_interest_counts_bounded() {
        for t in [trace(), generate(&TraceConfig::default(), 42)] {
            let cdf = user_interest_count(&t);
            assert!(cdf.quantile(1.0) <= 18.0);
            assert!(cdf.fraction_at_or_below(9.9) > 0.5);
        }
    }
}
