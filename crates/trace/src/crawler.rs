//! BFS sampling of the social network, mirroring the paper's crawl.
//!
//! The paper crawled YouTube by breadth-first search: start from a random
//! user, collect all videos the user uploaded, enqueue the users they
//! subscribe to, repeat until the queue is empty (Section III). It cites
//! Mislove et al. for the observation that an *incomplete* BFS overestimates
//! node degree but keeps other metrics faithful — which is why the analysis
//! functions also run unchanged on crawl samples.

use std::collections::{HashSet, VecDeque};

use socialtube_model::{ChannelId, NodeId, VideoId};
use socialtube_sim::SimRng;

use crate::Trace;

/// The result of a breadth-first crawl: the visited users and everything
/// reachable from them.
#[derive(Clone, Debug)]
pub struct CrawlSample {
    /// Users visited, in BFS order.
    pub users: Vec<NodeId>,
    /// Channels discovered via visited users' subscriptions or ownership.
    pub channels: Vec<ChannelId>,
    /// Videos of the discovered channels.
    pub videos: Vec<VideoId>,
    /// Number of users that were still queued when the crawl stopped.
    pub frontier_remaining: usize,
}

impl CrawlSample {
    /// Fraction of the full user base the crawl visited.
    pub fn coverage(&self, trace: &Trace) -> f64 {
        self.users.len() as f64 / trace.graph.user_count() as f64
    }
}

/// Breadth-first crawl of `trace` starting from a random user, visiting at
/// most `max_users` users.
///
/// The crawl follows the paper's procedure: visiting a user collects the
/// videos of every channel the user owns, then enqueues the owners of the
/// channels the user subscribes to. Unreachable components are not visited —
/// exactly the bias of a real social-network crawl. When the reachable
/// component is exhausted before `max_users`, the crawl restarts from a new
/// random unvisited user (the paper seeded new crawls the same way).
pub fn crawl(trace: &Trace, max_users: usize, seed: u64) -> CrawlSample {
    let mut rng = SimRng::seed(seed);
    let user_count = trace.graph.user_count();
    let mut visited_users: HashSet<NodeId> = HashSet::new();
    let mut users: Vec<NodeId> = Vec::new();
    let mut channels_seen: HashSet<ChannelId> = HashSet::new();
    let mut channels: Vec<ChannelId> = Vec::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();

    // Channels owned by each user (inverse of `channel_owners`).
    let mut owned: Vec<Vec<ChannelId>> = vec![Vec::new(); user_count];
    for (ci, owner) in trace.channel_owners.iter().enumerate() {
        owned[owner.index()].push(ChannelId::new(ci as u32));
    }

    while users.len() < max_users.min(user_count) {
        if queue.is_empty() {
            // Seed (or re-seed) with a random unvisited user.
            let mut candidate = NodeId::new(rng.index(user_count) as u32);
            let mut guard = 0;
            while visited_users.contains(&candidate) && guard < user_count * 2 {
                candidate = NodeId::new(rng.index(user_count) as u32);
                guard += 1;
            }
            if visited_users.contains(&candidate) {
                break;
            }
            queue.push_back(candidate);
        }
        let Some(user) = queue.pop_front() else { break };
        if !visited_users.insert(user) {
            continue;
        }
        users.push(user);

        // Collect the user's uploaded videos (their owned channels).
        for ch in &owned[user.index()] {
            if channels_seen.insert(*ch) {
                channels.push(*ch);
            }
        }
        // Follow subscriptions: discover the channel, enqueue its owner.
        let u = trace.graph.user(user).expect("crawled user exists");
        for ch in u.subscriptions() {
            if channels_seen.insert(*ch) {
                channels.push(*ch);
            }
            if let Some(owner) = trace.owner(*ch) {
                if !visited_users.contains(&owner) {
                    queue.push_back(owner);
                }
            }
        }
        if users.len() >= max_users {
            break;
        }
    }

    let videos: Vec<VideoId> = channels
        .iter()
        .flat_map(|ch| {
            trace
                .catalog
                .channel(*ch)
                .expect("discovered channel exists")
                .videos()
                .to_vec()
        })
        .collect();

    CrawlSample {
        users,
        channels,
        videos,
        frontier_remaining: queue.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig::tiny(), 11)
    }

    #[test]
    fn crawl_respects_user_budget() {
        let t = trace();
        let sample = crawl(&t, 50, 1);
        assert!(sample.users.len() <= 50);
        assert!(!sample.users.is_empty());
    }

    #[test]
    fn crawl_visits_each_user_once() {
        let t = trace();
        let sample = crawl(&t, 200, 1);
        let unique: HashSet<_> = sample.users.iter().collect();
        assert_eq!(unique.len(), sample.users.len());
    }

    #[test]
    fn full_budget_covers_all_users() {
        let t = trace();
        let sample = crawl(&t, 10_000, 1);
        assert_eq!(sample.users.len(), t.graph.user_count());
        assert!((sample.coverage(&t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discovered_videos_belong_to_discovered_channels() {
        let t = trace();
        let sample = crawl(&t, 30, 2);
        let chans: HashSet<_> = sample.channels.iter().copied().collect();
        for v in &sample.videos {
            let video = t.catalog.video(*v).expect("video exists");
            assert!(chans.contains(&video.channel()));
        }
    }

    #[test]
    fn channels_are_unique() {
        let t = trace();
        let sample = crawl(&t, 100, 3);
        let unique: HashSet<_> = sample.channels.iter().collect();
        assert_eq!(unique.len(), sample.channels.len());
    }

    #[test]
    fn crawl_is_deterministic() {
        let t = trace();
        let a = crawl(&t, 60, 4);
        let b = crawl(&t, 60, 4);
        assert_eq!(a.users, b.users);
        assert_eq!(a.channels, b.channels);
    }

    #[test]
    fn early_terminated_bfs_overestimates_degree() {
        // The paper cites Mislove et al.: stopping a BFS early biases the
        // sample toward high-degree nodes. Our crawler walks subscriptions
        // to channel *owners*, so an early stop over-represents owners of
        // widely-subscribed channels — users easier to reach by many paths.
        let config = TraceConfig {
            users: 2_000,
            channels: 120,
            categories: 8,
            videos: 2_000,
            ..TraceConfig::default()
        };
        let t = generate(&config, 13);
        // "Degree" of a user here: how many subscribers the channels they
        // own have (their in-degree in the crawl graph).
        let mut owned_subscribers = vec![0usize; t.graph.user_count()];
        for (ci, owner) in t.channel_owners.iter().enumerate() {
            owned_subscribers[owner.index()] += t
                .graph
                .subscriber_count(socialtube_model::ChannelId::new(ci as u32));
        }
        let population_mean =
            owned_subscribers.iter().sum::<usize>() as f64 / owned_subscribers.len() as f64;

        // Average over several early-stopped crawls.
        let mut sampled_sum = 0.0;
        let mut sampled_n = 0.0;
        for seed in 0..5 {
            let sample = crawl(&t, 150, seed);
            // Only users reached *through the frontier* (skip the random
            // seeds themselves, index 0 of each component restart).
            for u in &sample.users {
                sampled_sum += owned_subscribers[u.index()] as f64;
                sampled_n += 1.0;
            }
        }
        let sampled_mean = sampled_sum / sampled_n;
        assert!(
            sampled_mean > population_mean,
            "early BFS should oversample high-degree owners: sampled {sampled_mean:.2} vs population {population_mean:.2}"
        );
    }

    #[test]
    fn partial_crawl_preserves_favorite_views_correlation() {
        // The paper's justification for trusting BFS samples: shape-level
        // metrics survive. Check views/favorites correlation on a sample.
        let t = generate(&TraceConfig::tiny(), 5);
        let sample = crawl(&t, 80, 5);
        let views: Vec<f64> = sample
            .videos
            .iter()
            .map(|v| t.catalog.video(*v).expect("video exists").views() as f64)
            .collect();
        let favs: Vec<f64> = sample
            .videos
            .iter()
            .map(|v| t.catalog.video(*v).expect("video exists").favorites() as f64)
            .collect();
        let r = crate::stats::pearson(&views, &favs).expect("correlation defined");
        assert!(r > 0.85, "sampled pearson={r}");
    }
}
