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
//! ([`SessionDirector::advance`]). This driver schedules nothing: each user
//! action goes to its daemon as soon as the director decides it, stamped
//! with its protocol time, and waits in the daemon's due queue as a
//! simulator event waits in the virtual event queue; `max_events` has no
//! meaning here. A watch must last at least `latency_min`, the length of
//! the [`Deployment`]'s windows of protocol time. A scripted workload
//! ([`WorkloadConfig::script`]) hands every step to its daemon before the
//! run starts instead.
//!
//! [`WorkloadConfig`]: crate::WorkloadConfig
//! [`WorkloadConfig::script`]: crate::WorkloadConfig::script

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
/// at [`configs::root_rng`] as in the simulator. This function advances
/// each node's session with [`SessionDirector::advance`] through every
/// event that does not wait for a playback, and hands each user action to
/// the [`Deployment`] at once, stamped with its protocol time, as the sim
/// driver's loop performs it on its peers at that time. As in the
/// simulator, a watch ends its [`WorkloadConfig`](crate::WorkloadConfig)
/// watch time after the report of a playback the director accepts, and
/// only such a playback samples the links for Fig 18. A watch whose
/// playback has not started 5 s of protocol time after the request is
/// abandoned and the node moves on: a safety net for lost messages on live
/// sockets, which the simulator needs no counterpart of, since every
/// protocol there falls back to the server. A scripted workload hands its
/// steps over instead, and the director then accepts no playback. Either
/// run ends when nothing is pending anywhere.
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
    // The user's action at protocol time `at`, a session's or a script's.
    let perform = |action, at| match action {
        ScriptAction::Login(node) => deployment.login(node, at),
        ScriptAction::Watch(node, video) => deployment.watch(node, video, at),
        ScriptAction::Logout(node, abrupt) => deployment.logout(node, abrupt, at),
    };

    // Session events to fire, each with its due time; per node, when its
    // requested watch is given up if no accepted playback started.
    let mut fire = Vec::new();
    let mut deadline: Vec<Option<SimTime>> = vec![None; users];
    let script = &options.workload.script;
    for step in script {
        perform(step.action, SimTime::ZERO + step.at);
    }
    if script.is_empty() {
        for i in 0..users {
            let node = NodeId::new(i as u32);
            let at = SimTime::ZERO + director.login_offset(node);
            fire.push((node, SessionEvent::Login, at));
        }
    }

    let mut collector = MetricsCollector::new(users);
    let mut events = Vec::new();
    loop {
        // Run each session up to its next watch, or to its end.
        while let Some((node, event, at)) = fire.pop() {
            let (action, next) = director.advance(shared, node, event);
            if let Some(action) = action {
                if let ScriptAction::Watch(..) = action {
                    deadline[node.index()] = Some(at + WATCH_TIMEOUT);
                }
                perform(action, at);
            }
            if let Some((delay, next)) = next {
                fire.push((node, next, at + delay));
            }
        }
        // Wait for a playback, for the earliest watch to time out, or for
        // nothing to be pending anywhere.
        let pending = deadline.iter().enumerate();
        let first = pending.filter_map(|(i, due)| due.map(|due| (due, i))).min();
        let until = first.map_or(SimTime::from_micros(u64::MAX), |(due, _)| due);
        let Some(event) = deployment.recv_until(until) else {
            let Some((due, i)) = first else { break };
            // Playback never started: move on rather than hang.
            deadline[i] = None;
            fire.push((NodeId::new(i as u32), SessionEvent::AbandonWatch, due));
            continue;
        };
        if let Report::PlaybackStarted { node, video, .. } = event.report {
            if let Some((watched, watch)) = director.accept_playback(shared, node, video) {
                collector.sample_links(watched, event.links);
                deadline[node.index()] = None;
                fire.push((node, SessionEvent::WatchEnd, event.time + watch));
            }
        }
        events.push(event);
    }
    let outcome = deployment.finish(events, SimDuration::ZERO);

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

    /// A watch whose playback never starts is given up `WATCH_TIMEOUT` of
    /// protocol time after its request, and the node moves on: with a
    /// server link of 1 bit/s no chunk arrives, so each of a node's two
    /// watches times out, its second request fell back to the server
    /// exactly the timeout plus the browse delay after its first, and the
    /// run still ends.
    #[test]
    fn watches_that_never_start_time_out() {
        let mut options = configs::testbed_smoke();
        options.trace.users = 6;
        options.workload.sessions_per_node = 1;
        options.workload.videos_per_session = 2;
        options.network.server_bandwidth_bps = 1;
        let run = run_net(Protocol::PaVod, &options).expect("testbed binds localhost");
        assert_eq!(run.metrics.playbacks, 0);
        let gap = WATCH_TIMEOUT + options.workload.browse_delay;
        for i in 0..6 {
            let fallbacks: Vec<SimTime> = (run.outcome.events.iter())
                .filter(|e| matches!(e.report, Report::ServerFallback { node, .. } if node.index() == i))
                .map(|e| e.time)
                .collect();
            assert_eq!(fallbacks.len(), 2, "node {i}: {fallbacks:?}");
            assert_eq!(fallbacks[1], fallbacks[0] + gap, "node {i}");
        }
    }
}
