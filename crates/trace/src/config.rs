//! Trace generation parameters.

/// Parameters of the synthetic YouTube social network.
///
/// Defaults reproduce the scale of the paper's crawl (20,310 users and
/// 261,110 videos is impractical for unit tests, so [`TraceConfig::paper`]
/// gives the crawl scale while [`TraceConfig::default`] gives the Table I
/// simulation scale and [`TraceConfig::tiny`] a test scale).
///
/// Distribution parameters are chosen to match the shapes reported in
/// Section III; see the `generator` module docs for the mapping.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Number of users (peer nodes).
    pub users: usize,
    /// Number of channels.
    pub channels: usize,
    /// Number of interest categories (YouTube has ~15 top-level ones).
    pub categories: usize,
    /// Target total number of videos across all channels.
    pub videos: usize,
    /// Length of the upload history in days (paper crawl: ~2.7 years).
    pub history_days: u32,
    /// Pareto shape for videos-per-channel (smaller = heavier tail).
    pub videos_per_channel_shape: f64,
    /// Median videos per channel (Fig 6: 9).
    pub videos_per_channel_median: f64,
    /// Pareto shape for channel total-view weights (Fig 3/7 tails).
    pub channel_weight_shape: f64,
    /// Zipf exponent of within-channel video popularity (Fig 9: s = 1).
    pub within_channel_zipf: f64,
    /// Mean views of a median channel's median video (scales Fig 7).
    pub view_scale: f64,
    /// Mean favorites-per-view ratio (drives Fig 8 and its correlation
    /// with views).
    pub favorite_ratio_mean: f64,
    /// Relative jitter of the favorites ratio (keeps Pearson > 0.9).
    pub favorite_ratio_jitter: f64,
    /// Probability that an extra channel category is added (geometric;
    /// Fig 11: channels focus on 1–4 categories).
    pub extra_category_prob: f64,
    /// Maximum interests per user (Fig 13: max observed 18).
    pub max_user_interests: usize,
    /// Geometric continuation probability for user interest counts
    /// (tuned so ~60% of users have < 10 interests).
    pub user_interest_continuation: f64,
    /// Mean subscriptions per user.
    pub subscriptions_mean: f64,
    /// Probability a subscription is chosen inside the user's interests
    /// (rest is exploration noise; drives Fig 12 similarity).
    pub subscription_interest_affinity: f64,
    /// Median video length in seconds (YouTube short videos).
    pub video_length_median_secs: f64,
    /// Log-normal sigma of video length.
    pub video_length_sigma: f64,
    /// Maximum video length in seconds (short-video cap).
    pub video_length_cap_secs: u32,
    /// Encoding bitrate in kbps applied to every video (the paper's
    /// average: 320 kbps). The real-time TCP testbed lowers this so
    /// transfers complete at wall-clock speeds.
    pub bitrate_kbps: u32,
}

impl TraceConfig {
    /// Scale of the paper's crawl: 20,310 users, 261,110 videos.
    pub fn paper() -> Self {
        Self {
            users: 20_310,
            channels: 5_000,
            videos: 261_110,
            ..Self::default()
        }
    }

    /// A tiny configuration for unit tests and doctests.
    pub fn tiny() -> Self {
        Self {
            users: 200,
            channels: 40,
            categories: 6,
            videos: 400,
            ..Self::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 {
            return Err("users must be positive".into());
        }
        if self.channels == 0 {
            return Err("channels must be positive".into());
        }
        if self.categories == 0 {
            return Err("categories must be positive".into());
        }
        if self.videos < self.channels {
            return Err("need at least one video per channel".into());
        }
        if !(0.0..=1.0).contains(&self.subscription_interest_affinity) {
            return Err("subscription_interest_affinity must be in [0,1]".into());
        }
        if !(0.0..1.0).contains(&self.extra_category_prob) {
            return Err("extra_category_prob must be in [0,1)".into());
        }
        if !(0.0..1.0).contains(&self.user_interest_continuation) {
            return Err("user_interest_continuation must be in [0,1)".into());
        }
        if self.within_channel_zipf <= 0.0 {
            return Err("within_channel_zipf must be positive".into());
        }
        if self.bitrate_kbps == 0 {
            return Err("bitrate_kbps must be positive".into());
        }
        Ok(())
    }
}

impl Default for TraceConfig {
    /// Table I simulation scale: 10,000 nodes, ~10,121 videos, 545 channels.
    fn default() -> Self {
        Self {
            users: 10_000,
            channels: 545,
            categories: 15,
            videos: 10_121,
            history_days: 1_000,
            videos_per_channel_shape: 1.1,
            videos_per_channel_median: 9.0,
            channel_weight_shape: 0.9,
            within_channel_zipf: 1.0,
            view_scale: 5_000.0,
            favorite_ratio_mean: 0.02,
            favorite_ratio_jitter: 0.15,
            extra_category_prob: 0.35,
            max_user_interests: 18,
            user_interest_continuation: 0.72,
            subscriptions_mean: 6.0,
            subscription_interest_affinity: 0.85,
            video_length_median_secs: 180.0,
            video_length_sigma: 0.6,
            video_length_cap_secs: 600,
            bitrate_kbps: 320,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert_eq!(TraceConfig::default().validate(), Ok(()));
        assert_eq!(TraceConfig::paper().validate(), Ok(()));
        assert_eq!(TraceConfig::tiny().validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = TraceConfig::tiny();
        c.users = 0;
        assert!(c.validate().is_err());

        let mut c = TraceConfig::tiny();
        c.videos = 1;
        assert!(c.validate().is_err());

        let mut c = TraceConfig::tiny();
        c.subscription_interest_affinity = 1.5;
        assert!(c.validate().is_err());

        let mut c = TraceConfig::tiny();
        c.within_channel_zipf = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn paper_scale_matches_crawl() {
        let c = TraceConfig::paper();
        assert_eq!(c.users, 20_310);
        assert_eq!(c.videos, 261_110);
    }
}
