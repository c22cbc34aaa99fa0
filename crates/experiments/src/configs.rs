//! Experiment configurations: Table I, the PlanetLab-style scale-down,
//! test-sized variants and the TCP testbed's presets, plus the one RNG
//! root.

use socialtube::SocialTubeConfig;
pub use socialtube_sim::NetworkOptions;
use socialtube_sim::{SimDuration, SimRng};
use socialtube_trace::TraceConfig;

use crate::workload::{WatchTime, WorkloadConfig};

/// The root of every run's randomness on both platforms: the stack's
/// protocol streams, the session director and the pairwise latencies all
/// derive from it. The golden fixtures pin this salt.
pub fn root_rng(seed: u64) -> SimRng {
    SimRng::seed(seed ^ 0x50c1_a17b)
}

/// Everything one run needs, on either platform.
#[derive(Clone, Debug)]
pub struct ExperimentOptions {
    /// Root seed: the trace, and through [`root_rng`] the workload,
    /// latencies and protocol randomness, derive from it, so a run is fully
    /// reproducible.
    pub seed: u64,
    /// Synthetic trace parameters.
    pub trace: TraceConfig,
    /// Session/viewing behaviour.
    pub workload: WorkloadConfig,
    /// Bandwidth and latency model.
    pub network: NetworkOptions,
    /// Protocol parameters: SocialTube's, which the NetTube and PA-VoD
    /// peers share (Section V compares them under one parameter set).
    pub socialtube: SocialTubeConfig,
    /// Safety valve: abort the run after this many events (0 = unlimited).
    pub max_events: u64,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            seed: 42,
            trace: TraceConfig::default(),
            workload: WorkloadConfig::default(),
            network: NetworkOptions::default(),
            socialtube: SocialTubeConfig::default(),
            max_events: 0,
        }
    }
}

/// The paper's full Table I configuration: 10,000 nodes, ~10,121 videos,
/// 545 channels, 25 sessions of 10 videos, 500 s mean off-time, 1 Gbps
/// server (see [`NetworkOptions::server_bandwidth_bps`]). Expect long runtimes; `figure_scale` keeps the same shape at a
/// fraction of the cost.
pub fn table1() -> ExperimentOptions {
    ExperimentOptions::default()
}

/// A scaled-down Table I preserving every ratio that matters (videos and
/// channels per node, server bandwidth per node, session structure). Used
/// by the `figures` binary so all evaluation figures regenerate in minutes.
#[allow(clippy::field_reassign_with_default)] // config presets read best as deltas
pub fn figure_scale() -> ExperimentOptions {
    let mut o = ExperimentOptions::default();
    // The decisive operating point is *cache density* — the fraction of the
    // catalog a node ends up caching (Table I: 250 watched / 10,121 videos
    // ≈ 2.5%). At 10 sessions a 2,000-node run watches 100 videos/node, so
    // the catalog is 4,048 videos to preserve that density; channels keep
    // the paper's ~18.6 videos/channel.
    o.trace = TraceConfig {
        users: 2_000,
        channels: 218,
        categories: 15,
        videos: 4_048,
        ..TraceConfig::default()
    };
    o.workload.sessions_per_node = 10;
    // Server bandwidth scaled with population (1 Gbps / 10k nodes).
    o.network.server_bandwidth_bps = 200_000_000;
    o
}

/// A seconds-scale configuration for unit/integration tests and doctests.
///
/// Unlike `TraceConfig::tiny`, the channel count is kept low relative to
/// the user count so real per-channel communities form (~120 online
/// subscribers per channel, matching the Table I ratio).
#[allow(clippy::field_reassign_with_default)] // config presets read best as deltas
pub fn smoke_test() -> ExperimentOptions {
    let mut o = ExperimentOptions::default();
    o.trace = TraceConfig {
        users: 200,
        channels: 10,
        categories: 4,
        videos: 300,
        ..TraceConfig::default()
    };
    o.workload.sessions_per_node = 2;
    o.workload.videos_per_session = 4;
    o.workload.mean_off = SimDuration::from_secs(60);
    o.workload.login_stagger = SimDuration::from_secs(30);
    o.network.server_bandwidth_bps = 20_000_000;
    o.max_events = 20_000_000;
    o
}

/// Like [`smoke_test`] but with longer viewing histories (3 sessions of 10
/// videos), for tests that exercise link accumulation and cache effects.
pub fn smoke_test_long() -> ExperimentOptions {
    let mut o = smoke_test();
    o.trace.users = 150;
    o.workload.sessions_per_node = 3;
    o.workload.videos_per_session = 10;
    o
}

/// The `demo` scale of the `figures` and `campaign` bins:
/// [`smoke_test_long`] over 300 users, seconds per protocol.
pub fn demo() -> ExperimentOptions {
    let mut o = smoke_test_long();
    o.trace.users = 300;
    // Keep the Table I per-user server budget (100 kbps/user).
    o.network.server_bandwidth_bps = 30_000_000;
    o
}

/// The TCP testbed's base: the paper's minutes-scale protocol timers
/// compressed to seconds-scale sessions, over 10–60 ms of
/// latency, 20 Mbps per peer and a 50 Mbps server. The equivalence suite
/// adds a four-peer trace and a script and runs it on both platforms;
/// [`testbed_smoke`] and [`testbed_planetlab`] add a trace and a session
/// workload.
pub fn testbed() -> ExperimentOptions {
    ExperimentOptions {
        network: NetworkOptions {
            server_bandwidth_bps: 50_000_000,
            peer_upload_bps: 20_000_000,
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(60),
        },
        socialtube: SocialTubeConfig {
            search_phase_timeout: SimDuration::from_millis(400),
            probe_interval: SimDuration::from_secs(2),
            probe_timeout: SimDuration::from_millis(600),
            chunk_timeout: SimDuration::from_secs(3),
            prefetch_delay: SimDuration::from_millis(100),
            lookup_timeout: SimDuration::from_millis(800),
            ..SocialTubeConfig::default()
        },
        ..ExperimentOptions::default()
    }
}

/// A seconds-scale deployment for tests and quick runs: 16 peers over a
/// small, hot catalog (so caches overlap within a few sessions), 4-second
/// 64 kbps videos, compressed session pacing, and a server pipe sized to be
/// the bottleneck the P2P overlays relieve. Off periods are the 1 s minimum
/// the Poisson draw allows, and a watch lasts a fixed 120 ms instead of the
/// video's length, so a run spans 12–25 s of protocol time (SocialTube
/// and PA-VoD at seed 42). A
/// testbed watch must last at least `latency_min`, here 10 ms, the length
/// of the deployment's windows. The simulator runs this workload the same
/// way.
pub fn testbed_smoke() -> ExperimentOptions {
    let mut o = testbed();
    o.trace = TraceConfig {
        users: 16,
        channels: 3,
        categories: 2,
        videos: 15,
        video_length_median_secs: 4.0,
        video_length_cap_secs: 8,
        bitrate_kbps: 64,
        subscriptions_mean: 2.0,
        ..TraceConfig::default()
    };
    o.workload = WorkloadConfig {
        sessions_per_node: 3,
        videos_per_session: 4,
        mean_off: SimDuration::from_secs(1),
        browse_delay: SimDuration::from_millis(40),
        login_stagger: SimDuration::from_millis(250),
        watch: WatchTime::Fixed(SimDuration::from_millis(120)),
        ..WorkloadConfig::default()
    };
    o.network.server_bandwidth_bps = 4_000_000;
    o.network.peer_upload_bps = 8_000_000;
    o
}

/// The paper's PlanetLab shape scaled to one machine: 60 peers,
/// 6 categories × 10 channels × 40 videos per the Section V layout,
/// 5 sessions of 5 videos and 150 ms watches, 58–96 s of protocol time
/// (seed 42). The peer count is reduced
/// from 250: a testbed daemon runs 2 OS threads plus one reader per
/// inbound connection, and SocialTube's overlay links almost every pair, so
/// this deployment already peaks near 3,600 threads (NetTube ~350, PA-VoD
/// ~260). Its videos and off periods are [`testbed_smoke`]'s.
pub fn testbed_planetlab() -> ExperimentOptions {
    let mut o = testbed_smoke();
    o.trace.users = 60;
    o.trace.channels = 60;
    o.trace.categories = 6;
    o.trace.videos = 2_400;
    o.trace.subscriptions_mean = TraceConfig::default().subscriptions_mean;
    o.workload.sessions_per_node = 5;
    o.workload.videos_per_session = 5;
    o.workload.browse_delay = SimDuration::from_millis(50);
    o.workload.login_stagger = SimDuration::from_millis(400);
    o.workload.watch = WatchTime::Fixed(SimDuration::from_millis(150));
    o.network.server_bandwidth_bps = 8_000_000;
    o.network.peer_upload_bps = 2_000_000;
    o
}

/// A throughput-oriented configuration for the benchmark's `sim-scale`
/// workload: `peers` nodes
/// with Table I's per-node ratios (videos and channels per node, server
/// bandwidth per node) but a deliberately short workload — one session of
/// three videos per node — so a 200k-peer run stays minutes, not hours,
/// while still exercising join, search, transfer and prefetch paths.
#[allow(clippy::field_reassign_with_default)] // config presets read best as deltas
pub fn scale_test(peers: usize) -> ExperimentOptions {
    let mut o = ExperimentOptions::default();
    // Table I ratios: ~1 video per user, ~18.6 videos per channel,
    // ≥ 4 channels and ≥ 1 category so small benches still validate.
    let videos = peers.max(300);
    let channels = (videos / 19).max(4);
    let categories = (channels / 36).clamp(1, 15);
    o.trace = TraceConfig {
        users: peers,
        channels,
        categories,
        videos,
        ..TraceConfig::default()
    };
    o.workload.sessions_per_node = 1;
    o.workload.videos_per_session = 3;
    o.workload.mean_off = SimDuration::from_secs(60);
    // Stagger logins across ten minutes so the event queue holds a scale-
    // dependent working set instead of one synchronized burst.
    o.workload.login_stagger = SimDuration::from_mins(10);
    // 100 kbps of server capacity per peer (the Table I 1 Gbps / 10k ratio).
    o.network.server_bandwidth_bps = (peers as u64) * 100_000;
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper_defaults() {
        let o = table1();
        assert_eq!(o.trace.users, 10_000);
        assert_eq!(o.trace.channels, 545);
        assert_eq!(o.workload.sessions_per_node, 25);
        assert_eq!(o.workload.videos_per_session, 10);
        assert_eq!(o.network.server_bandwidth_bps, 1_000_000_000);
        assert_eq!(o.socialtube.inner_links, 5);
        assert_eq!(o.socialtube.inter_links, 10);
    }

    #[test]
    fn figure_scale_preserves_operating_point() {
        let full = table1();
        let scaled = figure_scale();
        // Cache density: videos watched per node / catalog size.
        let density = |o: &ExperimentOptions| {
            f64::from(o.workload.sessions_per_node * o.workload.videos_per_session)
                / o.trace.videos as f64
        };
        assert!((density(&full) - density(&scaled)).abs() < 0.005);
        // Videos per channel (community catalog size).
        let vpc = |o: &ExperimentOptions| o.trace.videos as f64 / o.trace.channels as f64;
        assert!((vpc(&full) - vpc(&scaled)).abs() < 1.0);
        // Server budget per user.
        let full_bw = full.network.server_bandwidth_bps as f64 / full.trace.users as f64;
        let scaled_bw = scaled.network.server_bandwidth_bps as f64 / scaled.trace.users as f64;
        assert!((full_bw - scaled_bw).abs() < 1.0);
    }

    #[test]
    fn scale_test_keeps_table1_ratios() {
        let o = scale_test(200_000);
        assert_eq!(o.trace.users, 200_000);
        // Videos per channel stays near the paper's ~18.6.
        let vpc = o.trace.videos as f64 / o.trace.channels as f64;
        assert!((vpc - 18.6).abs() < 1.0, "videos/channel = {vpc}");
        // Server budget per user matches Table I's 100 kbps.
        assert_eq!(
            o.network.server_bandwidth_bps / o.trace.users as u64,
            100_000
        );
        // Tiny bench sizes still produce a valid catalog shape.
        let small = scale_test(100);
        assert!(small.trace.channels >= 4);
        assert!(small.trace.categories >= 1);
        assert!(small.trace.videos >= small.trace.users);
    }

    /// The simulator presets watch each video to its end; only the testbed
    /// presets shorten a watch.
    #[test]
    fn only_testbed_presets_fix_the_watch_time() {
        let sim = [
            table1(),
            figure_scale(),
            smoke_test(),
            smoke_test_long(),
            demo(),
            testbed(),
            scale_test(1_000),
        ];
        for o in &sim {
            assert_eq!(o.workload.watch, WatchTime::VideoLength);
        }
        for o in [testbed_smoke(), testbed_planetlab()] {
            assert!(matches!(o.workload.watch, WatchTime::Fixed(_)));
        }
    }

    #[test]
    fn smoke_test_is_tiny() {
        let o = smoke_test();
        assert!(o.trace.users <= 500);
        assert!(o.workload.sessions_per_node <= 3);
        // Community sizing: enough subscribers per channel for overlays.
        assert!(o.trace.users / o.trace.channels >= 10);
        assert!(smoke_test_long().workload.videos_per_session == 10);
    }
}
