//! Driving the TCP testbed (the PlanetLab experiment) with the paper's
//! workload, and folding its events into the common metrics.
//!
//! A run is described by the *same* [`ExperimentOptions`] the simulation
//! driver reads, rooted at the same [`configs::root_rng`]: the stack, the
//! [`SessionDirector`] and the injected latencies draw what they would draw
//! in the simulator. Sessions, off times, abrupt exits and video selection
//! run through one state machine on both platforms, and so does the end
//! of a watch (the [`WorkloadConfig`] watch time: the testbed presets
//! [`configs::testbed_smoke`] and [`configs::testbed_planetlab`] fix it at
//! 120 and 150 ms), and so does the order of its calls
//! ([`SessionDirector::advance`]). Only the scheduling medium differs (an
//! action heap on the deployment's clock here, the virtual event queue
//! there); each action carries its protocol time to the daemon, which
//! handles it then. One wall-clock second is one protocol second, so keep
//! videos *small* (short, low bitrate) for transfers to complete at
//! wall-clock speed; `max_events` has no meaning here. A scripted workload
//! ([`WorkloadConfig::script`]) pre-fills the action heap with its steps
//! instead.
//!
//! [`WorkloadConfig`]: crate::WorkloadConfig
//! [`WorkloadConfig::script`]: crate::WorkloadConfig::script

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::sync::Arc;

use socialtube::Report;
use socialtube_model::NodeId;
use socialtube_net::testbed::{Deployment, NetOutcome};
use socialtube_sim::{SimDuration, SimTime};
use socialtube_trace::{generate_shared, SharedTrace};

use crate::configs::{self, ExperimentOptions};
use crate::harness::{SessionDirector, StackBuilder};
use crate::metrics::{MetricsCollector, MetricsSummary};
use crate::workload::{ScriptAction, SessionEvent};
use crate::Protocol;

/// Quiet period after a script's last step during which a scripted run
/// still collects reports. Every transfer chain the scripts trigger
/// completes within a fraction of it.
const SETTLE: SimDuration = SimDuration::from_millis(1500);

/// How long a watch may wait for its playback to start before the node
/// gives up and moves on: a safety net for a dead provider or a lost
/// message, generous against the testbed's 10–60 ms injected latencies.
const WATCH_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Outcome of one testbed run, reduced to the common metrics.
#[derive(Debug)]
pub struct NetRun {
    /// The evaluation metrics (same structure as the simulation's).
    pub metrics: MetricsSummary,
    /// Raw testbed outcome.
    pub outcome: NetOutcome,
}

/// Actions on the driver's heap, keyed by protocol time: the testbed
/// analogues of the sim driver's workload events.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Action {
    /// A transition of a node's session, which the director advances.
    Session(NodeId, SessionEvent),
    /// A scripted step: only the deployment acts, the director is not
    /// consulted.
    Script(ScriptAction),
    /// Safety net if a playback never starts; the sequence number guards
    /// against a stale timeout abandoning a newer watch.
    WatchTimeout(NodeId, u64),
    /// The settle window after a script's last step is over: the run ends.
    Settled,
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
/// the action heap that fires the session events
/// [`SessionDirector::advance`] returns, and performs their user actions
/// on the [`Deployment`] at their protocol times, as the sim driver's loop
/// does on its peers. As in the simulator, a watch ends its
/// [`WorkloadConfig`](crate::WorkloadConfig) watch time after the report
/// of a playback the director accepts, and only such a playback samples
/// the links for Fig 18. A watch whose playback has not started 5 s after the
/// request is abandoned and the node moves on: a safety net for lost
/// messages on live sockets, which the simulator needs no counterpart of,
/// since every protocol there falls back to the server. A scripted
/// workload fires its steps instead and ends a 1.5 s settle window after
/// the last one; the director then accepts no playback.
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

    // Due time first, then insertion order; the action never decides.
    let mut heap: BinaryHeap<Reverse<(SimTime, u64, Action)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut schedule = |heap: &mut BinaryHeap<_>, due: SimTime, action| {
        seq += 1;
        heap.push(Reverse((due, seq, action)));
    };
    let script = &options.workload.script;
    if let Some(last) = script.last() {
        for step in script {
            let due = SimTime::ZERO + step.at;
            schedule(&mut heap, due, Action::Script(step.action));
        }
        let settled = SimTime::ZERO + last.at + SETTLE;
        schedule(&mut heap, settled, Action::Settled);
    } else {
        for i in 0..users {
            let node = NodeId::new(i as u32);
            let due = SimTime::ZERO + director.login_offset(node);
            schedule(&mut heap, due, Action::Session(node, SessionEvent::Login));
        }
    }

    let mut collector = MetricsCollector::new(users);
    let mut watch_seq = vec![0u64; users];
    let mut remaining = users;
    let mut events = Vec::new();
    while remaining > 0 {
        // Wait for either the next scheduled action or a report.
        let next_due = match heap.peek() {
            Some(Reverse((due, ..))) => *due,
            None => deployment.now() + SimDuration::from_millis(50),
        };
        if let Some(event) = deployment.recv_until(next_due) {
            if let Report::PlaybackStarted { node, video, .. } = event.report {
                if let Some((watched, watch)) = director.accept_playback(shared, node, video) {
                    collector.sample_links(watched, event.links);
                    let end = Action::Session(node, SessionEvent::WatchEnd);
                    schedule(&mut heap, event.time + watch, end);
                }
            }
            events.push(event);
            continue;
        }
        // Execute every due action at its protocol time.
        let now = deployment.now();
        while matches!(heap.peek(), Some(Reverse((due, ..))) if *due <= now) {
            let Reverse((due, _, action)) = heap.pop().expect("peeked entry");
            let mut advance = |node, event| {
                let (action, next) = director.advance(shared, node, event);
                match next {
                    Some((delay, next)) => {
                        schedule(&mut heap, due + delay, Action::Session(node, next));
                    }
                    // The node's last session is over.
                    None if event == SessionEvent::Logout => remaining -= 1,
                    None => {}
                }
                action
            };
            let action = match action {
                Action::Session(node, event) => advance(node, event),
                // Playback never started: move on rather than hang.
                Action::WatchTimeout(node, at) if watch_seq[node.index()] == at => {
                    advance(node, SessionEvent::AbandonWatch)
                }
                Action::WatchTimeout(..) => None,
                Action::Script(action) => Some(action),
                Action::Settled => {
                    remaining = 0;
                    None
                }
            };
            // The user's action, a session's or a script's.
            match action {
                Some(ScriptAction::Login(node)) => deployment.login(node, due),
                Some(ScriptAction::Watch(node, video)) => {
                    watch_seq[node.index()] += 1;
                    let timeout = Action::WatchTimeout(node, watch_seq[node.index()]);
                    schedule(&mut heap, due + WATCH_TIMEOUT, timeout);
                    deployment.watch(node, video, due);
                }
                Some(ScriptAction::Logout(node, abrupt)) => deployment.logout(node, abrupt, due),
                None => {}
            }
        }
    }
    let outcome = deployment.finish(events, SimDuration::from_millis(300));

    // Reduce events, in protocol-time order, to the common metrics.
    for event in &outcome.events {
        collector.on_report(event.time, event.report);
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
