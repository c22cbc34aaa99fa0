//! The protocol parameters of a run: SocialTube's, which the baselines share.

use socialtube_sim::SimDuration;

/// Tunable parameters of the SocialTube peer (Section V defaults).
///
/// Section V compares the protocols under one parameter set, so the NetTube
/// and PA-VoD peers are built from this config too: each reads the fields
/// its design has (NetTube its TTL, prefetch budget and timers, PA-VoD its
/// chunk and lookup deadlines) and ignores the rest.
///
/// # Examples
///
/// ```
/// use socialtube::SocialTubeConfig;
///
/// let config = SocialTubeConfig::default();
/// assert_eq!(config.inner_links, 5);
/// assert_eq!(config.inter_links, 10);
/// assert_eq!(config.ttl, 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SocialTubeConfig {
    /// `N_l`: maximum inner-links in the channel overlay (paper: 5).
    pub inner_links: usize,
    /// `N_h`: maximum inter-links in the category cluster (paper: 10).
    pub inter_links: usize,
    /// TTL of flooded queries (paper: 2); a query reaches nodes TTL + 1
    /// hops away (see [`Flood::on_query`](crate::Flood::on_query)).
    pub ttl: u8,
    /// Number of popular videos to prefetch per channel, `M` (paper
    /// evaluation: first chunks of the top 3); 0 turns prefetching off
    /// (the "w/o PF" bars of Fig 17).
    pub prefetch_count: usize,
    /// Neighbor probe period (paper: every 10 minutes).
    pub probe_interval: SimDuration,
    /// How long to wait for a `ProbeAck` before declaring the neighbor dead.
    pub probe_timeout: SimDuration,
    /// How long each search phase waits for a `QueryHit` before moving on.
    /// Must cover a TTL-hop round trip at WAN latencies.
    pub search_phase_timeout: SimDuration,
    /// How long a chunk transfer may stall before falling back to the
    /// server for the remaining chunks.
    pub chunk_timeout: SimDuration,
    /// Delay after playback start before prefetching kicks in (lets the
    /// playback transfer claim the downlink first).
    pub prefetch_delay: SimDuration,
    /// Optional cache capacity in videos (`None` = unbounded, the paper's
    /// setting: short videos make caching all watched videos cheap).
    pub cache_capacity: Option<usize>,
    /// How long a PA-VoD peer waits for the server's provider list before
    /// asking again (lost-message defence in the TCP deployment).
    pub lookup_timeout: SimDuration,
}

impl Default for SocialTubeConfig {
    fn default() -> Self {
        Self {
            inner_links: 5,
            inter_links: 10,
            ttl: 2,
            prefetch_count: 3,
            probe_interval: SimDuration::from_mins(10),
            probe_timeout: SimDuration::from_secs(5),
            search_phase_timeout: SimDuration::from_millis(1_500),
            chunk_timeout: SimDuration::from_secs(60),
            prefetch_delay: SimDuration::from_secs(2),
            cache_capacity: None,
            lookup_timeout: SimDuration::from_secs(10),
        }
    }
}

impl SocialTubeConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.inner_links == 0 {
            return Err("inner_links must be positive".into());
        }
        if self.ttl == 0 {
            return Err("ttl must be positive".into());
        }
        if self.search_phase_timeout == SimDuration::ZERO {
            return Err("search_phase_timeout must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = SocialTubeConfig::default();
        assert_eq!(c.inner_links, 5);
        assert_eq!(c.inter_links, 10);
        assert_eq!(c.ttl, 2);
        assert_eq!(c.probe_interval, SimDuration::from_mins(10));
        assert_eq!(c.prefetch_count, 3);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn invalid_configs_rejected() {
        let mut c = SocialTubeConfig::default();
        c.inner_links = 0;
        assert!(c.validate().is_err());

        let mut c = SocialTubeConfig::default();
        c.ttl = 0;
        assert!(c.validate().is_err());

        let mut c = SocialTubeConfig::default();
        c.search_phase_timeout = SimDuration::ZERO;
        assert!(c.validate().is_err());
    }
}
