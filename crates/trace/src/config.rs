//! Trace generation parameters.

/// The scale of a synthetic YouTube social network, and the few shape
/// values a preset or a sweep changes.
///
/// [`TraceConfig::paper`] gives the scale of the paper's crawl (20,310
/// users and 261,110 videos), [`TraceConfig::default`] the Table I
/// simulation scale and [`TraceConfig::tiny`] a test scale.
///
/// Every other distribution parameter is fixed to the shapes reported in
/// Section III and stated once, as a named constant of the
/// [`generator`](crate::generator) module beside the figure it fits.
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
    /// Mean subscriptions per user.
    pub subscriptions_mean: f64,
    /// Probability a subscription is chosen inside the user's interests
    /// (rest is exploration noise; drives Fig 12 similarity).
    pub subscription_interest_affinity: f64,
    /// Median video length in seconds (YouTube short videos).
    pub video_length_median_secs: f64,
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
            subscriptions_mean: 6.0,
            subscription_interest_affinity: 0.85,
            video_length_median_secs: 180.0,
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
    }

    #[test]
    fn paper_scale_matches_crawl() {
        let c = TraceConfig::paper();
        assert_eq!(c.users, 20_310);
        assert_eq!(c.videos, 261_110);
    }
}
