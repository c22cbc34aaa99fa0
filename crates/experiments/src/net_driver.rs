//! Driving the TCP testbed (the PlanetLab experiment) with the paper's
//! workload, and folding its events into the common metrics.
//!
//! A run is described by the *same* [`ExperimentOptions`] the simulation
//! driver reads, rooted at the same [`configs::root_rng`]: the stack, the
//! [`SessionDirector`] and the injected latencies draw what they would draw
//! in the simulator. Sessions, off times, abrupt exits and video selection
//! run through one state machine on both platforms, and so does the end
//! of a watch ([`WorkloadConfig::watch`]: the testbed presets
//! [`configs::testbed_smoke`] and [`configs::testbed_planetlab`] fix it at
//! 120 and 150 ms). Only the scheduling medium differs (a wall-clock action
//! heap here, the virtual event queue there). One wall-clock second is one
//! protocol second, so keep videos *small* (short, low bitrate) for
//! transfers to complete at wall-clock speed; `max_events` has no meaning
//! here. A scripted workload ([`WorkloadConfig::script`]) pre-fills the
//! action heap with its steps instead.
//!
//! [`WorkloadConfig::watch`]: crate::WorkloadConfig::watch
//! [`WorkloadConfig::script`]: crate::WorkloadConfig::script

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::Report;
use socialtube_model::NodeId;
use socialtube_net::testbed::{Deployment, NetOutcome};
use socialtube_sim::SimDuration;
use socialtube_trace::{generate_shared, SharedTrace};

use crate::configs::{self, ExperimentOptions};
use crate::harness::{SessionDirector, SessionStep, StackBuilder};
use crate::metrics::{MetricsCollector, MetricsSummary};
use crate::workload::ScriptAction;
use crate::Protocol;

/// Quiet period after a script's last step during which a scripted run
/// still collects reports. Every transfer chain the scripts trigger
/// completes within a fraction of it.
const SETTLE: Duration = Duration::from_millis(1500);

/// How long a watch may wait for its playback to start before the node
/// gives up and moves on: a safety net for a dead provider or a lost
/// message, generous against the testbed's 10–60 ms injected latencies.
const WATCH_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// The watch time after a playback started is over.
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

/// [`run_net_on`] over the trace `options` describes.
///
/// # Errors
///
/// As [`run_net_on`].
pub fn run_net(protocol: Protocol, options: &ExperimentOptions) -> io::Result<NetRun> {
    let shared = generate_shared(&options.trace, options.seed);
    run_net_on(&shared, protocol, options)
}

/// Runs `protocol` over an existing shared trace on the TCP testbed.
///
/// The stack comes from [`StackBuilder::from_options`] and the workload
/// from the same [`SessionDirector`] the simulation replays, both rooted
/// at [`configs::root_rng`] as in the simulator; this function owns only
/// the wall-clock action heap that fires the director's transitions, as
/// the sim driver's loop does. A watch ends
/// [`SessionDirector::watch_time`] after its playback starts, as in the
/// simulator. A watch whose playback has not started 5 s after the request
/// is abandoned and the node moves on: a safety net for lost messages on
/// live sockets, which the simulator needs no counterpart of, since every
/// protocol there falls back to the server. A scripted workload fires its
/// steps instead and ends a 1.5 s settle window after the last one; the
/// watch time and the watch timeout then go unused.
///
/// # Errors
///
/// Returns any error [`Deployment::spawn`] returns: invalid network
/// options, or localhost sockets that cannot be bound.
pub fn run_net_on(
    shared: &SharedTrace,
    protocol: Protocol,
    options: &ExperimentOptions,
) -> io::Result<NetRun> {
    let root = configs::root_rng(options.seed);
    let users = shared.graph.user_count();
    let (peers, server) =
        StackBuilder::from_options(protocol, Arc::clone(shared.catalog()), options)
            .build_peers(shared.trace(), &root);
    let mut director = SessionDirector::new(users, options.workload.clone(), &root);
    let deployment = Deployment::spawn(
        Arc::clone(shared.catalog()),
        peers,
        server,
        &options.network,
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
    let script = &options.workload.script;
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
                    let due = Instant::now() + wall(director.watch_time(shared, video));
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
                        let due = now + WATCH_TIMEOUT;
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

    /// The testbed builds its peers from the run's protocol parameters: a
    /// link budget of one inner and one inter link holds on live sockets.
    #[test]
    fn testbed_peers_keep_the_configured_link_budget() {
        let mut options = configs::testbed_smoke();
        options.trace.users = 6;
        options.workload.sessions_per_node = 1;
        options.workload.videos_per_session = 2;
        options.socialtube.inner_links = 1;
        options.socialtube.inter_links = 1;
        let run = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
        assert!(run.metrics.playbacks > 0);
        assert!(!run.metrics.maintenance_curve.is_empty());
        for (_, links) in &run.metrics.maintenance_curve {
            assert!(*links <= 2.0 + 1e-9, "link budget 2 exceeded: {links}");
        }
    }
}
