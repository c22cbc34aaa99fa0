//! Driving the TCP testbed (the PlanetLab experiment) with the paper's
//! workload, and folding its events into the common metrics.
//!
//! A run is described by the *same* [`ExperimentOptions`] the simulation
//! driver reads, rooted at the same [`configs::root_rng`]: the stack, the
//! [`SessionDirector`] and the injected latencies draw what they would draw
//! in the simulator. Sessions, off times, abrupt exits and video selection
//! run through one state machine on both platforms; only the scheduling
//! medium differs (a wall-clock action heap here, the virtual event queue
//! there). One wall-clock second is one protocol second. A scripted
//! workload ([`WorkloadConfig::script`]) pre-fills the action heap with its
//! steps instead.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::Report;
use socialtube_model::NodeId;
use socialtube_net::testbed::{Deployment, NetOutcome};
use socialtube_sim::SimDuration;
use socialtube_trace::{generate_shared, SharedTrace, TraceConfig};

use crate::configs::{self, ExperimentOptions};
use crate::harness::{SessionDirector, SessionStep, StackBuilder};
use crate::metrics::{MetricsCollector, MetricsSummary};
use crate::workload::{ScriptAction, WorkloadConfig};
use crate::Protocol;

/// Quiet period after a script's last step during which a scripted run
/// still collects reports. Every transfer chain the scripts trigger
/// completes within a fraction of it.
const SETTLE: Duration = Duration::from_millis(1500);

/// One TCP-testbed experiment: the run's [`ExperimentOptions`], which the
/// simulator would read the same way, plus the two wall-clock pacing
/// durations the simulator has no counterpart for.
#[derive(Clone, Debug)]
pub struct NetExperimentOptions {
    /// The run's description: seed, trace, workload, network and protocol
    /// parameters. Keep videos *small* (short, low bitrate) so transfers
    /// complete at wall-clock speed; `max_events` has no meaning here.
    pub experiment: ExperimentOptions,
    /// Real time between a playback start and the next request (stands in
    /// for the playback duration).
    pub watch_dwell: Duration,
    /// Give up waiting for a playback after this long (dead-provider or
    /// lost-message safety net; generous relative to injected latencies).
    pub watch_timeout: Duration,
}

impl NetExperimentOptions {
    /// A seconds-scale deployment for tests and quick runs: 16 peers over a
    /// small, hot catalog (so caches overlap within a few sessions),
    /// 4-second 64 kbps videos, compressed session pacing, and a server
    /// pipe sized to be the bottleneck the P2P overlays relieve. Off
    /// periods are the 1 s minimum the Poisson draw allows.
    pub fn smoke_test() -> Self {
        let mut experiment = configs::testbed();
        experiment.trace = TraceConfig {
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
        experiment.workload = WorkloadConfig {
            sessions_per_node: 3,
            videos_per_session: 4,
            mean_off: SimDuration::from_secs(1),
            browse_delay: SimDuration::from_millis(40),
            login_stagger: SimDuration::from_millis(250),
            ..WorkloadConfig::default()
        };
        experiment.network.server_bandwidth_bps = 4_000_000;
        experiment.network.peer_upload_bps = 8_000_000;
        Self {
            experiment,
            watch_dwell: Duration::from_millis(120),
            watch_timeout: Duration::from_secs(5),
        }
    }

    /// The paper's PlanetLab shape scaled to one machine: 60 peers,
    /// 6 categories × 10 channels × 40 videos per the Section V layout,
    /// 5 sessions of 5 videos. The peer count is reduced from 250: a daemon
    /// runs 2 OS threads plus one reader per inbound connection, and
    /// SocialTube's overlay links almost every pair, so this deployment
    /// already peaks near 3,600 threads (NetTube ~350, PA-VoD ~260).
    /// Its videos, off periods and watch timeout are [`Self::smoke_test`]'s.
    pub fn planetlab_style() -> Self {
        let mut o = Self::smoke_test();
        let experiment = &mut o.experiment;
        experiment.trace.users = 60;
        experiment.trace.channels = 60;
        experiment.trace.categories = 6;
        experiment.trace.videos = 2_400;
        experiment.trace.subscriptions_mean = TraceConfig::default().subscriptions_mean;
        experiment.workload.sessions_per_node = 5;
        experiment.workload.videos_per_session = 5;
        experiment.workload.browse_delay = SimDuration::from_millis(50);
        experiment.workload.login_stagger = SimDuration::from_millis(400);
        experiment.network.server_bandwidth_bps = 8_000_000;
        experiment.network.peer_upload_bps = 2_000_000;
        o.watch_dwell = Duration::from_millis(150);
        o
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

/// Wall-clock actions on the real-time heap, each for one node: the
/// testbed analogues of the sim driver's workload events.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    Login,
    NextVideo,
    /// The dwell after a playback ended (stands in for watching the video).
    WatchEnd,
    Logout,
    /// Safety net if a playback never starts; the sequence number guards
    /// against a stale timeout abandoning a newer watch.
    WatchTimeout(u64),
    /// A scripted step: only the deployment acts, the director is not
    /// consulted.
    Script(ScriptAction),
    /// The settle window after a script's last step is over: the run ends.
    Settled,
}

/// A director duration on the wall clock.
fn wall(d: SimDuration) -> Duration {
    Duration::from_micros(d.as_micros())
}

/// What a concluded watch leads to, and after how long.
fn after(step: SessionStep) -> (Duration, Action) {
    match step {
        SessionStep::Continue(browse) => (wall(browse), Action::NextVideo),
        SessionStep::EndSession => (Duration::ZERO, Action::Logout),
    }
}

/// [`run_net_on`] over the trace `options.experiment` describes.
///
/// # Errors
///
/// As [`run_net_on`].
pub fn run_net(protocol: Protocol, options: &NetExperimentOptions) -> io::Result<NetRun> {
    let experiment = &options.experiment;
    let shared = generate_shared(&experiment.trace, experiment.seed);
    run_net_on(&shared, protocol, options)
}

/// Runs `protocol` over an existing shared trace on the TCP testbed.
///
/// The stack comes from [`StackBuilder::from_options`] and the workload
/// from the same [`SessionDirector`] the simulation replays, both rooted
/// at [`configs::root_rng`] as in the simulator; this function owns only
/// the wall-clock action heap that fires the director's transitions, as
/// the sim driver's loop does. A scripted workload fires its steps instead
/// and ends a 1.5 s settle window after the last one; `watch_dwell` and
/// `watch_timeout` then go unused.
///
/// # Errors
///
/// Returns any error [`Deployment::spawn`] returns: invalid network
/// options, or localhost sockets that cannot be bound.
pub fn run_net_on(
    shared: &SharedTrace,
    protocol: Protocol,
    options: &NetExperimentOptions,
) -> io::Result<NetRun> {
    let experiment = &options.experiment;
    let root = configs::root_rng(experiment.seed);
    let users = shared.graph.user_count();
    let (peers, server) =
        StackBuilder::from_options(protocol, Arc::clone(shared.catalog()), experiment)
            .build_peers(shared.trace(), &root);
    let mut director = SessionDirector::new(users, experiment.workload.clone(), &root);
    let deployment = Deployment::spawn(
        Arc::clone(shared.catalog()),
        peers,
        server,
        &experiment.network,
        &root,
    )?;

    // Due time first, then insertion order; node and action never decide.
    let mut heap: BinaryHeap<Reverse<(Instant, u64, usize, Action)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<_>, due: Instant, i: usize, action| {
        seq += 1;
        heap.push(Reverse((due, seq, i, action)));
    };
    let start = Instant::now();
    let script = &experiment.workload.script;
    if let Some(last) = script.last() {
        for step in script {
            let due = start + wall(step.at);
            schedule(&mut heap, due, 0, Action::Script(step.action));
        }
        let settled = start + wall(last.at) + SETTLE;
        schedule(&mut heap, settled, 0, Action::Settled);
    } else {
        for i in 0..users {
            let offset = wall(director.login_offset(NodeId::new(i as u32)));
            schedule(&mut heap, start + offset, i, Action::Login);
        }
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
                    let due = Instant::now() + options.watch_dwell;
                    schedule(&mut heap, due, node.index(), Action::WatchEnd);
                }
            }
            events.push(event);
            continue;
        }
        // Execute every due action.
        let now = Instant::now();
        while matches!(heap.peek(), Some(Reverse((due, ..))) if *due <= now) {
            let Reverse((_, _, i, action)) = heap.pop().expect("peeked entry");
            if done[i] {
                continue;
            }
            let node = NodeId::new(i as u32);
            match action {
                Action::Login => {
                    director.on_login(node);
                    deployment.login(node);
                    let browse = wall(director.workload().browse_delay);
                    schedule(&mut heap, now + browse, i, Action::NextVideo);
                }
                Action::NextVideo => {
                    if let Some(video) = director.next_video(shared, node) {
                        watch_seq[i] += 1;
                        deployment.watch(node, video);
                        let due = now + options.watch_timeout;
                        schedule(&mut heap, due, i, Action::WatchTimeout(watch_seq[i]));
                    }
                }
                Action::WatchEnd => {
                    let (delay, next) = after(director.on_watch_end(node));
                    schedule(&mut heap, now + delay, i, next);
                }
                Action::WatchTimeout(at_seq) => {
                    // Playback never started: move on rather than hang.
                    if watch_seq[i] == at_seq {
                        if let Some(step) = director.abandon_watch(node) {
                            let (delay, next) = after(step);
                            schedule(&mut heap, now + delay, i, next);
                        }
                    }
                }
                Action::Logout => {
                    // An abrupt exit sends no goodbyes, as in the sim loop.
                    deployment.logout(node, director.is_abrupt_exit(node));
                    if let Some(off) = director.on_logout(node) {
                        schedule(&mut heap, now + wall(off), i, Action::Login);
                    } else {
                        done[i] = true;
                        remaining -= 1;
                    }
                }
                Action::Script(ScriptAction::Login(node)) => deployment.login(node),
                Action::Script(ScriptAction::Watch(node, video)) => deployment.watch(node, video),
                Action::Script(ScriptAction::Logout(node)) => deployment.logout(node, false),
                Action::Settled => remaining = 0,
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
    Ok(NetRun {
        metrics: collector.summary(),
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pavod_testbed_leans_on_server() {
        let options = NetExperimentOptions::smoke_test();
        let run = run_net(Protocol::PaVod, &options).expect("testbed binds localhost");
        // At least 70 % of the planned playbacks: slack for watch timeouts.
        let o = &options.experiment;
        let per_user = o.workload.sessions_per_node * o.workload.videos_per_session;
        let planned = o.trace.users as u64 * u64::from(per_user);
        let played = run.metrics.playbacks;
        assert!(
            played * 10 >= planned * 7,
            "playbacks {played} of planned {planned}"
        );
        assert!(
            run.metrics.total_server_bits >= run.metrics.total_peer_bits,
            "PA-VoD should be server-heavy: server {} peer {}",
            run.metrics.total_server_bits,
            run.metrics.total_peer_bits
        );
    }

    /// The testbed builds its peers from the run's protocol parameters: a
    /// link budget of one inner and one inter link holds on live sockets.
    #[test]
    fn testbed_peers_keep_the_configured_link_budget() {
        let mut options = NetExperimentOptions::smoke_test();
        let experiment = &mut options.experiment;
        experiment.trace.users = 6;
        experiment.workload.sessions_per_node = 1;
        experiment.workload.videos_per_session = 2;
        experiment.socialtube.inner_links = 1;
        experiment.socialtube.inter_links = 1;
        let run = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
        assert!(run.metrics.playbacks > 0);
        assert!(!run.metrics.maintenance_curve.is_empty());
        for (_, links) in &run.metrics.maintenance_curve {
            assert!(*links <= 2.0 + 1e-9, "link budget 2 exceeded: {links}");
        }
    }
}
