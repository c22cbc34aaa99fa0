//! Synthetic YouTube social-network generation.
//!
//! The generator reproduces the distributional facts the paper's trace
//! analysis establishes (Section III). Each calibration value is one named
//! constant below, next to the figure it fits; [`TraceConfig`] holds only
//! the scale and the values a preset or a sweep changes.
//!
//! | Paper fact | Mechanism here | Constants |
//! |---|---|---|
//! | O1 / Fig 2: upload volume accelerates | upload days with quadratic CDF | `HISTORY_DAYS` |
//! | Figs 3, 5, 7: heavy-tailed channel & video popularity | Pareto channel weight `w_c` | `CHANNEL_WEIGHT_SHAPE` |
//! | Fig 9: within-channel views ≈ Zipf, s = 1 | video at rank `k` gets `VIEW_SCALE · w_c / k^s` | `VIEW_SCALE`, `WITHIN_CHANNEL_ZIPF` |
//! | Fig 6: median 9 videos/channel, heavy tail | Pareto video counts, rescaled to the target total | `VIDEOS_PER_CHANNEL_MEDIAN`, `VIDEOS_PER_CHANNEL_SHAPE` |
//! | Fig 8: favorites strongly correlated with views | `favorites = views × jittered ratio` | `FAVORITE_RATIO_MEAN`, `FAVORITE_RATIO_JITTER` |
//! | Fig 11: channels focus on few categories | Zipf primary category + geometric extras | `CATEGORY_ZIPF`, `EXTRA_CATEGORY_PROB`, `MAX_CHANNEL_CATEGORIES` |
//! | Fig 13: users have few interests (max 18) | geometric interest counts | `USER_INTEREST_CONTINUATION`, `MAX_USER_INTERESTS` |
//! | Figs 4, 12, O5: users subscribe within interests, popular channels gather subscribers | interest-biased, popularity-weighted subscription sampling | `TraceConfig::subscription_interest_affinity` |
//! | Fig 10: channels cluster by shared subscribers | emerges from the interest bias | — |
//! | Short videos (median and cap in [`TraceConfig`]) | log-normal lengths under a cap | `VIDEO_LENGTH_SIGMA` |

use std::sync::Arc;

use socialtube_model::{
    Catalog, CatalogBuilder, CategoryId, ChannelId, NodeId, SocialGraph, VideoId,
};
use socialtube_sim::SimRng;

use crate::distributions::{
    geometric_count, pareto_sample, poisson, upload_day, video_length_secs, videos_per_channel,
    ZipfRanks,
};
use crate::TraceConfig;

/// O1 / Fig 2: length of the upload history in days (the crawl spans
/// ~2.7 years).
pub(crate) const HISTORY_DAYS: u32 = 1_000;

/// Figs 3, 5, 7: Pareto shape of channel popularity weights (smaller =
/// heavier tail).
const CHANNEL_WEIGHT_SHAPE: f64 = 0.9;

/// Fig 6: median videos per channel.
const VIDEOS_PER_CHANNEL_MEDIAN: f64 = 9.0;
/// Fig 6: Pareto shape of videos per channel (smaller = heavier tail).
const VIDEOS_PER_CHANNEL_SHAPE: f64 = 1.1;

/// Fig 7: views of a weight-1 channel's top video (scales the view CDF).
const VIEW_SCALE: f64 = 5_000.0;
/// Fig 9: Zipf exponent of within-channel video popularity (s = 1).
const WITHIN_CHANNEL_ZIPF: f64 = 1.0;

/// Fig 8: mean favorites-per-view ratio.
const FAVORITE_RATIO_MEAN: f64 = 0.02;
/// Fig 8: relative jitter of the favorites ratio (keeps Pearson > 0.9).
const FAVORITE_RATIO_JITTER: f64 = 0.15;

/// Fig 11: Zipf exponent of category popularity, for a channel's primary
/// category and a user's interests alike.
const CATEGORY_ZIPF: f64 = 1.0;
/// Fig 11: probability that a channel takes one more category
/// (geometric).
const EXTRA_CATEGORY_PROB: f64 = 0.35;
/// Fig 11: channels focus on 1–4 categories.
const MAX_CHANNEL_CATEGORIES: usize = 4;

/// Fig 13: geometric continuation probability of a user's interest count
/// (~60% of users have fewer than 10 interests).
const USER_INTEREST_CONTINUATION: f64 = 0.72;
/// Fig 13: the most interests the crawl observed on one user.
const MAX_USER_INTERESTS: usize = 18;

/// Log-normal sigma of video length around
/// [`TraceConfig::video_length_median_secs`].
const VIDEO_LENGTH_SIGMA: f64 = 0.6;

/// A complete synthetic YouTube social network: the video catalog, the
/// subscription graph, and channel ownership (needed by the BFS crawler).
#[derive(Clone, Debug)]
pub struct Trace {
    /// All categories, channels and videos, shared with every peer and
    /// server that runs over the trace.
    pub catalog: Arc<Catalog>,
    /// Users, their interests, and channel subscriptions.
    pub graph: SocialGraph,
    /// The user who owns each channel, indexed by `ChannelId`.
    pub channel_owners: Vec<NodeId>,
}

impl Trace {
    /// The newest upload day in the trace — "today" for view-frequency
    /// computations (Fig 3).
    pub fn observation_day(&self) -> u32 {
        HISTORY_DAYS - 1
    }

    /// The user owning `channel`, if the channel exists.
    pub fn owner(&self, channel: ChannelId) -> Option<NodeId> {
        self.channel_owners.get(channel.index()).copied()
    }
}

/// Weighted alias-free sampler over channels (cumulative-sum + binary
/// search), used for popularity-preferential subscription choice.
#[derive(Debug)]
struct WeightedChannels {
    channels: Vec<ChannelId>,
    cumulative: Vec<f64>,
}

impl WeightedChannels {
    fn new(pairs: impl IntoIterator<Item = (ChannelId, f64)>) -> Self {
        let mut channels = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0.0;
        for (ch, w) in pairs {
            acc += w.max(0.0);
            channels.push(ch);
            cumulative.push(acc);
        }
        Self {
            channels,
            cumulative,
        }
    }

    fn sample(&self, rng: &mut SimRng) -> Option<ChannelId> {
        let total = *self.cumulative.last()?;
        if total <= 0.0 {
            return None;
        }
        let u = rng.unit() * total;
        let i = self.cumulative.partition_point(|c| *c < u);
        Some(self.channels[i.min(self.channels.len() - 1)])
    }
}

/// Generates a synthetic trace from `config` and a root `seed`.
///
/// The same `(config, seed)` pair always produces the identical trace.
///
/// # Panics
///
/// Panics if `config` fails [`TraceConfig::validate`].
pub fn generate(config: &TraceConfig, seed: u64) -> Trace {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid trace config: {e}"));
    let root = SimRng::seed(seed);

    let mut builder = CatalogBuilder::new();

    // --- Categories, with Zipf popularity weights for interest sampling.
    let categories: Vec<CategoryId> = (0..config.categories)
        .map(|_| builder.add_category())
        .collect();
    let category_zipf = ZipfRanks::new(config.categories, CATEGORY_ZIPF);

    // --- Channels: category focus + Pareto popularity weight.
    let mut chan_rng = root.stream("channels");
    let mut channel_weights: Vec<f64> = Vec::with_capacity(config.channels);
    let mut channel_ids: Vec<ChannelId> = Vec::with_capacity(config.channels);
    for _ in 0..config.channels {
        // Never ask for more distinct categories than exist, or the dedup
        // loop below cannot terminate.
        let n_cats = geometric_count(
            &mut chan_rng,
            EXTRA_CATEGORY_PROB,
            MAX_CHANNEL_CATEGORIES.min(config.categories),
        );
        let mut cats: Vec<CategoryId> = Vec::with_capacity(n_cats);
        let primary = categories[category_zipf.sample(&mut chan_rng) - 1];
        cats.push(primary);
        while cats.len() < n_cats {
            let extra = categories[chan_rng.index(config.categories)];
            if !cats.contains(&extra) {
                cats.push(extra);
            }
        }
        let id = builder.add_channel(cats);
        channel_ids.push(id);
        channel_weights.push(pareto_sample(&mut chan_rng, 1.0, CHANNEL_WEIGHT_SHAPE));
    }

    // --- Videos: Pareto counts rescaled to the target total, then uploaded
    // over an accelerating history with log-normal lengths.
    let mut vid_rng = root.stream("videos");
    let mut raw_counts: Vec<usize> = (0..config.channels)
        .map(|_| {
            videos_per_channel(
                &mut vid_rng,
                VIDEOS_PER_CHANNEL_MEDIAN,
                VIDEOS_PER_CHANNEL_SHAPE,
            )
        })
        .collect();
    let raw_total: usize = raw_counts.iter().sum();
    if raw_total > 0 {
        let scale = config.videos as f64 / raw_total as f64;
        for c in &mut raw_counts {
            *c = ((*c as f64 * scale).round() as usize).max(1);
        }
    }
    let mut channel_videos: Vec<Vec<VideoId>> = Vec::with_capacity(config.channels);
    for (ch, count) in channel_ids.iter().zip(&raw_counts) {
        let mut vids = Vec::with_capacity(*count);
        for _ in 0..*count {
            let day = upload_day(&mut vid_rng, HISTORY_DAYS);
            let len = video_length_secs(
                &mut vid_rng,
                config.video_length_median_secs,
                VIDEO_LENGTH_SIGMA,
                config.video_length_cap_secs,
            );
            let v = builder.add_video(*ch, len, day);
            builder.video_mut(v).set_bitrate_kbps(config.bitrate_kbps);
            vids.push(v);
        }
        channel_videos.push(vids);
    }

    // --- Views: within-channel Zipf over a random popularity permutation;
    // favorites as a jittered fraction of views.
    let mut pop_rng = root.stream("popularity");
    for (ci, vids) in channel_videos.iter().enumerate() {
        let n = vids.len();
        let mut order: Vec<usize> = (0..n).collect();
        // Random permutation: upload order is not popularity order.
        for i in (1..n).rev() {
            let j = pop_rng.index(i + 1);
            order.swap(i, j);
        }
        for (rank0, &slot) in order.iter().enumerate() {
            let rank = rank0 + 1;
            let views = (VIEW_SCALE * channel_weights[ci] / (rank as f64).powf(WITHIN_CHANNEL_ZIPF))
                .round() as u64;
            let ratio =
                FAVORITE_RATIO_MEAN * (1.0 + FAVORITE_RATIO_JITTER * (2.0 * pop_rng.unit() - 1.0));
            let favorites = (views as f64 * ratio.max(0.0)).round() as u64;
            builder.set_views(vids[slot], views);
            builder.set_favorites(vids[slot], favorites);
        }
    }

    // --- Users: interests, then interest-biased popularity-weighted
    // subscriptions, then a few favorite videos. Category membership is
    // read back from the built catalog.
    let mut graph = SocialGraph::new(config.users, config.channels);
    let mut category_members: Vec<Vec<(ChannelId, f64)>> = vec![Vec::new(); config.categories];
    let catalog = builder.build();
    for (i, ch) in channel_ids.iter().enumerate() {
        let channel = catalog.channel(*ch).expect("channel was inserted");
        for cat in channel.categories() {
            category_members[cat.index()].push((*ch, channel_weights[i]));
        }
    }
    let per_category: Vec<WeightedChannels> = category_members
        .into_iter()
        .map(WeightedChannels::new)
        .collect();
    let all_channels = WeightedChannels::new(
        channel_ids
            .iter()
            .zip(&channel_weights)
            .map(|(ch, w)| (*ch, *w)),
    );

    let mut user_rng = root.stream("users");
    let sub_mean = config.subscriptions_mean.max(1.0) - 0.999;
    for u in 0..config.users {
        let node = NodeId::new(u as u32);
        let n_interests = geometric_count(
            &mut user_rng,
            USER_INTEREST_CONTINUATION,
            MAX_USER_INTERESTS.min(config.categories),
        );
        // Zipf-biased picks with a bounded retry budget; fall back to
        // uniform picks when collisions dominate (user wants more interests
        // than the Zipf head realistically yields).
        let mut retries = 0;
        while graph.user(node).expect("user exists").interests().len() < n_interests {
            let cat = if retries < n_interests * 8 {
                categories[category_zipf.sample(&mut user_rng) - 1]
            } else {
                categories[user_rng.index(config.categories)]
            };
            retries += 1;
            graph.user_mut(node).expect("user exists").add_interest(cat);
        }

        let n_subs = 1 + poisson(&mut user_rng, sub_mean) as usize;
        let mut attempts = 0;
        while graph.user(node).expect("user exists").subscriptions().len() < n_subs
            && attempts < n_subs * 10
        {
            attempts += 1;
            let interests = graph.user(node).expect("user exists").interests().to_vec();
            let within = user_rng.chance(config.subscription_interest_affinity);
            let choice = if within && !interests.is_empty() {
                let cat = interests[user_rng.index(interests.len())];
                per_category[cat.index()].sample(&mut user_rng)
            } else {
                all_channels.sample(&mut user_rng)
            };
            if let Some(ch) = choice {
                graph.subscribe(node, ch);
            }
        }

        // Favorites: a few popular videos from subscribed channels.
        let subs = graph
            .user(node)
            .expect("user exists")
            .subscriptions()
            .to_vec();
        for ch in subs.iter().take(3) {
            for v in catalog.top_videos(*ch, 2) {
                graph.user_mut(node).expect("user exists").add_favorite(v);
            }
        }
    }

    // --- Channel owners.
    let mut owner_rng = root.stream("owners");
    let channel_owners: Vec<NodeId> = (0..config.channels)
        .map(|_| NodeId::new(owner_rng.index(config.users) as u32))
        .collect();
    Trace {
        catalog: Arc::new(catalog),
        graph,
        channel_owners,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        generate(&TraceConfig::tiny(), 1)
    }

    #[test]
    fn counts_match_config() {
        let t = tiny_trace();
        assert_eq!(t.graph.user_count(), 200);
        assert_eq!(t.catalog.channel_count(), 40);
        assert_eq!(t.catalog.category_count(), 6);
        // Video total is approximately the target (rescaling rounds).
        let v = t.catalog.video_count() as f64;
        assert!((300.0..520.0).contains(&v), "videos={v}");
        assert_eq!(t.channel_owners.len(), 40);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&TraceConfig::tiny(), 9);
        let b = generate(&TraceConfig::tiny(), 9);
        assert_eq!(a.catalog.video_count(), b.catalog.video_count());
        assert!(a.catalog.videos().eq(b.catalog.videos()), "video mismatch");
        assert_eq!(a.graph.user_count(), b.graph.user_count());
        assert!(a.graph.users().eq(b.graph.users()), "user mismatch");
        assert_eq!(a.catalog.channel_count(), b.catalog.channel_count());
        for (x, y) in a.catalog.channels().zip(b.catalog.channels()) {
            assert_eq!(x.categories(), y.categories());
            assert_eq!(x.videos(), y.videos());
            assert_eq!(a.graph.subscribers(x.id()), b.graph.subscribers(x.id()));
        }
        assert_eq!(a.channel_owners, b.channel_owners);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&TraceConfig::tiny(), 1);
        let b = generate(&TraceConfig::tiny(), 2);
        let va: Vec<u64> = a.catalog.videos().map(|v| v.views()).collect();
        let vb: Vec<u64> = b.catalog.videos().map(|v| v.views()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn every_channel_has_a_video_and_categories() {
        let t = tiny_trace();
        for ch in t.catalog.channels() {
            assert!(ch.video_count() >= 1, "{} empty", ch.id());
            assert!(!ch.categories().is_empty());
            assert!(ch.categories().len() <= MAX_CHANNEL_CATEGORIES);
        }
    }

    #[test]
    fn within_channel_views_follow_zipf() {
        let t = tiny_trace();
        let big = t
            .catalog
            .channels()
            .max_by_key(|c| c.video_count())
            .expect("channels exist");
        let ranked: Vec<f64> = t
            .catalog
            .channel_videos_by_popularity(big.id())
            .iter()
            .map(|v| t.catalog.video(*v).expect("video exists").views() as f64)
            .collect();
        let s = crate::stats::fit_zipf_exponent(&ranked).expect("fit succeeds");
        assert!((s - 1.0).abs() < 0.15, "zipf exponent {s}");
    }

    #[test]
    fn favorites_track_views() {
        let t = tiny_trace();
        let views: Vec<f64> = t.catalog.videos().map(|v| v.views() as f64).collect();
        let favs: Vec<f64> = t.catalog.videos().map(|v| v.favorites() as f64).collect();
        let r = crate::stats::pearson(&views, &favs).expect("correlation defined");
        assert!(r > 0.9, "pearson={r}");
    }

    #[test]
    fn users_have_bounded_interests_and_subscriptions() {
        let t = tiny_trace();
        for user in t.graph.users() {
            let n = user.interests().len();
            assert!((1..=MAX_USER_INTERESTS).contains(&n));
            assert!(!user.subscriptions().is_empty());
        }
    }

    #[test]
    fn subscriptions_mostly_match_interests() {
        let t = generate(&TraceConfig::tiny(), 3);
        let mut matching = 0usize;
        let mut total = 0usize;
        for user in t.graph.users() {
            for ch in user.subscriptions() {
                total += 1;
                let chan = t.catalog.channel(*ch).expect("channel exists");
                if chan
                    .categories()
                    .iter()
                    .any(|c| user.interests().contains(c))
                {
                    matching += 1;
                }
            }
        }
        let frac = matching as f64 / total as f64;
        assert!(frac > 0.6, "interest match fraction {frac}");
    }

    #[test]
    fn owners_are_valid_users() {
        let t = tiny_trace();
        for owner in &t.channel_owners {
            assert!(owner.index() < t.graph.user_count());
        }
        assert_eq!(t.owner(ChannelId::new(0)), Some(t.channel_owners[0]));
        assert_eq!(t.owner(ChannelId::new(9999)), None);
    }

    #[test]
    fn observation_day_is_end_of_history() {
        let t = tiny_trace();
        assert_eq!(t.observation_day(), HISTORY_DAYS - 1);
        assert!(t
            .catalog
            .videos()
            .all(|v| v.upload_day() <= t.observation_day()));
    }
}
