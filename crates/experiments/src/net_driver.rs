//! Driving the TCP testbed (the PlanetLab experiment) with the paper's
//! workload, and folding its events into the common metrics.
//!
//! The workload here is the *same* [`SessionDirector`] the simulation
//! driver replays — sessions, churn, abrupt draws and video selection run
//! through one state machine on both platforms; only the scheduling medium
//! differs (a wall-clock action heap here, the virtual event queue there).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::Report;
use socialtube_model::NodeId;
use socialtube_net::testbed::{Deployment, NetOutcome, TestbedConfig};
use socialtube_sim::{SimDuration, SimRng};
use socialtube_trace::{generate_shared, SharedTrace, TraceConfig};

use crate::harness::{SessionDirector, SessionStep, StackBuilder};
use crate::metrics::{MetricsCollector, MetricsSummary};
use crate::workload::{SelectionMix, WorkloadConfig};
use crate::Protocol;

/// Parameters of one TCP-testbed experiment. `testbed.seed` is the one
/// seed: it roots the trace, the workload, the protocol stack and the
/// injected latencies.
#[derive(Clone, Debug)]
pub struct NetExperimentOptions {
    /// Trace parameters — keep videos *small* (short, low bitrate) so
    /// transfers complete at wall-clock speed.
    pub trace: TraceConfig,
    /// Real-time deployment parameters.
    pub testbed: TestbedConfig,
}

impl NetExperimentOptions {
    /// A seconds-scale deployment for tests and quick runs: 16 peers over a
    /// small, hot catalog (so caches overlap within a few sessions),
    /// 4-second 64 kbps videos, compressed session pacing, and a server
    /// pipe sized to be the bottleneck the P2P overlays relieve.
    pub fn smoke_test() -> Self {
        let trace = TraceConfig {
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
        let testbed = TestbedConfig {
            sessions_per_node: 3,
            videos_per_session: 4,
            watch_dwell: Duration::from_millis(120),
            browse_delay: Duration::from_millis(40),
            off_time: Duration::from_millis(250),
            server_bandwidth_bps: 4_000_000,
            peer_upload_bps: 8_000_000,
            ..TestbedConfig::default()
        };
        Self { trace, testbed }
    }

    /// The paper's PlanetLab shape scaled to one machine: 60 peers,
    /// 6 categories × 10 channels × 40 videos per the Section V layout
    /// (peer count reduced from 250 — at ~6 OS threads per daemon a larger
    /// deployment thrashes a laptop), 5 sessions of 5 videos.
    pub fn planetlab_style() -> Self {
        let trace = TraceConfig {
            users: 60,
            channels: 60,
            categories: 6,
            videos: 2_400,
            video_length_median_secs: 4.0,
            video_length_cap_secs: 8,
            bitrate_kbps: 64,
            ..TraceConfig::default()
        };
        let testbed = TestbedConfig {
            sessions_per_node: 5,
            videos_per_session: 5,
            watch_dwell: Duration::from_millis(150),
            browse_delay: Duration::from_millis(50),
            off_time: Duration::from_millis(400),
            server_bandwidth_bps: 8_000_000,
            peer_upload_bps: 2_000_000,
            ..TestbedConfig::default()
        };
        Self { trace, testbed }
    }
}

/// Outcome of one testbed run, reduced to the common metrics.
#[derive(Debug)]
pub struct NetRun {
    /// The evaluation metrics (same structure as the simulation's).
    pub metrics: MetricsSummary,
    /// Raw testbed outcome.
    pub outcome: NetOutcome,
}

/// The session workload a [`TestbedConfig`] implies, expressed in the
/// shared [`WorkloadConfig`] vocabulary (durations land on the protocol
/// time axis 1:1 — one wall-clock second is one protocol second).
fn testbed_workload(config: &TestbedConfig) -> WorkloadConfig {
    let to_sim = |d: Duration| SimDuration::from_micros(d.as_micros() as u64);
    WorkloadConfig {
        sessions_per_node: config.sessions_per_node,
        videos_per_session: config.videos_per_session,
        mean_off: to_sim(config.off_time),
        browse_delay: to_sim(config.browse_delay),
        mix: SelectionMix::paper(),
        login_stagger: to_sim(config.off_time),
        abrupt_departure_prob: 0.0,
    }
}

/// Wall-clock actions on the real-time heap: the testbed analogues of the
/// sim driver's workload events.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Login(usize),
    NextVideo(usize),
    /// The dwell after a playback ended (stands in for watching the video).
    WatchEnd(usize),
    Logout(usize),
    /// Safety net if a playback never starts; the sequence number guards
    /// against a stale timeout abandoning a newer watch.
    WatchTimeout(usize, u64),
}

/// Runs `protocol` on the real TCP testbed and reduces the events to the
/// common metrics.
///
/// # Panics
///
/// Panics if the deployment cannot bind localhost sockets.
pub fn run_net(protocol: Protocol, options: &NetExperimentOptions) -> NetRun {
    let shared = generate_shared(&options.trace, options.testbed.seed);
    run_net_on(&shared, protocol, options)
}

/// Runs `protocol` over an existing shared trace on the TCP testbed.
///
/// The stack comes from [`StackBuilder::for_testbed`] and the workload from
/// the same [`SessionDirector`] the simulation replays; this function owns
/// only the wall-clock action heap that fires the director's transitions.
///
/// # Panics
///
/// Panics if the deployment cannot bind localhost sockets.
pub fn run_net_on(
    shared: &SharedTrace,
    protocol: Protocol,
    options: &NetExperimentOptions,
) -> NetRun {
    let root = SimRng::seed(options.testbed.seed ^ 0x6e65_7462u64);
    let users = shared.graph.user_count();
    let stack = StackBuilder::for_testbed(protocol, Arc::clone(shared.catalog()))
        .build(shared.trace(), &root);
    let mut director = SessionDirector::new(users, testbed_workload(&options.testbed), &root);
    let deployment = Deployment::spawn(
        Arc::clone(shared.catalog()),
        stack.peers,
        stack.server,
        &options.testbed,
    )
    .expect("testbed deployment binds localhost sockets");

    // Due time first, then insertion order; the action never decides.
    let mut heap: BinaryHeap<Reverse<(Instant, u64, Action)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<_>, due: Instant, action| {
        seq += 1;
        heap.push(Reverse((due, seq, action)));
    };
    let start = Instant::now();
    for u in 0..users {
        let node = NodeId::new(u as u32);
        let offset = Duration::from_micros(director.login_offset(node).as_micros());
        schedule(&mut heap, start + offset, Action::Login(u));
    }

    let mut watch_seq = vec![0u64; users];
    let mut done = vec![false; users];
    let mut remaining = users;
    let mut events = Vec::new();
    while remaining > 0 {
        // Wait for either the next scheduled action or a report.
        let next_due = match heap.peek() {
            Some(Reverse((due, ..))) => *due,
            None => Instant::now() + Duration::from_millis(50),
        };
        if let Some(event) = deployment.recv_until(next_due) {
            if let Report::PlaybackStarted { node, video, .. } = event.report {
                if node.index() < users && director.on_playback_started(node, video).is_some() {
                    schedule(
                        &mut heap,
                        Instant::now() + options.testbed.watch_dwell,
                        Action::WatchEnd(node.index()),
                    );
                }
            }
            events.push(event);
            continue;
        }
        // Execute every due action.
        let now = Instant::now();
        while matches!(heap.peek(), Some(Reverse((due, ..))) if *due <= now) {
            let Reverse((_, _, action)) = heap.pop().expect("peeked entry");
            let next_step = |step: SessionStep| match step {
                SessionStep::Continue(browse) => (
                    Duration::from_micros(browse.as_micros()),
                    Action::NextVideo as fn(usize) -> Action,
                ),
                SessionStep::EndSession => (Duration::ZERO, Action::Logout as fn(usize) -> Action),
            };
            match action {
                Action::Login(i) => {
                    if done[i] {
                        continue;
                    }
                    director.on_login(NodeId::new(i as u32));
                    deployment.login(NodeId::new(i as u32));
                    schedule(
                        &mut heap,
                        now + options.testbed.browse_delay,
                        Action::NextVideo(i),
                    );
                }
                Action::NextVideo(i) => {
                    if done[i] {
                        continue;
                    }
                    let node = NodeId::new(i as u32);
                    let Some(video) = director.next_video(shared, node) else {
                        continue;
                    };
                    watch_seq[i] += 1;
                    deployment.watch(node, video);
                    schedule(
                        &mut heap,
                        now + options.testbed.watch_timeout,
                        Action::WatchTimeout(i, watch_seq[i]),
                    );
                }
                Action::WatchEnd(i) => {
                    if done[i] {
                        continue;
                    }
                    let (delay, make) = next_step(director.on_watch_end(NodeId::new(i as u32)));
                    schedule(&mut heap, now + delay, make(i));
                }
                Action::WatchTimeout(i, at_seq) => {
                    // Playback never started: move on rather than hang.
                    if done[i] || watch_seq[i] != at_seq {
                        continue;
                    }
                    if let Some(step) = director.abandon_watch(NodeId::new(i as u32)) {
                        let (delay, make) = next_step(step);
                        schedule(&mut heap, now + delay, make(i));
                    }
                }
                Action::Logout(i) => {
                    if done[i] {
                        continue;
                    }
                    let node = NodeId::new(i as u32);
                    deployment.logout(node);
                    if let Some(off) = director.on_logout(node) {
                        let off = Duration::from_micros(off.as_micros());
                        schedule(&mut heap, now + off, Action::Login(i));
                    } else {
                        done[i] = true;
                        remaining -= 1;
                    }
                }
            }
        }
    }
    let outcome = deployment.finish(events, Duration::from_millis(300));

    // Reduce events to the common metrics.
    let mut collector = MetricsCollector::new(users);
    let mut watched = vec![0u32; users];
    for event in &outcome.events {
        collector.on_report(event.time, event.report);
        if let Report::PlaybackStarted { node, .. } = event.report {
            let i = node.index();
            if i < users {
                watched[i] += 1;
                collector.sample_links(watched[i], event.links);
            }
        }
    }
    NetRun {
        metrics: collector.summary(),
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socialtube_testbed_run_produces_metrics() {
        let options = NetExperimentOptions::smoke_test();
        let run = run_net(Protocol::SocialTube, &options);
        // 12 peers × 2 sessions × 3 videos = 72 expected playbacks; allow
        // generous slack for watch timeouts under load.
        assert!(
            run.metrics.playbacks >= 50,
            "playbacks {}",
            run.metrics.playbacks
        );
        assert!(run.metrics.total_server_bits + run.metrics.total_peer_bits > 0);
        assert!(!run.metrics.maintenance_curve.is_empty());
    }

    #[test]
    fn pavod_testbed_leans_on_server() {
        let options = NetExperimentOptions::smoke_test();
        let run = run_net(Protocol::PaVod, &options);
        assert!(
            run.metrics.playbacks >= 50,
            "playbacks {}",
            run.metrics.playbacks
        );
        assert!(
            run.metrics.total_server_bits >= run.metrics.total_peer_bits,
            "PA-VoD should be server-heavy: server {} peer {}",
            run.metrics.total_server_bits,
            run.metrics.total_peer_bits
        );
    }
}
