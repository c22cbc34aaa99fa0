//! Scripted deterministic workloads: the same fixed action sequence driven
//! through the simulator *and* the TCP testbed, reduced to an ordered
//! report-key sequence.
//!
//! The harness layer exists so one protocol stack runs on both platforms;
//! this module is the executable proof. A [`ScriptStep`] list replaces the
//! stochastic [`SessionDirector`](super::SessionDirector) with explicit
//! `Login`/`Watch`/`Logout` actions at fixed times, spaced far enough apart
//! that every search, fallback and transfer completes before the next
//! action fires. Both runners read one [`ExperimentOptions`] (in the tests,
//! [`configs::testbed`](crate::configs::testbed)): the stack comes from
//! [`StackBuilder::from_options`] and the pairwise delays from
//! [`NetworkOptions::latency_model`](crate::NetworkOptions::latency_model),
//! both under [`root_rng`], so the protocol observes identical inputs in
//! identical order — and must therefore emit the identical [`Report`]
//! sequence, captured as [`ReportKey`]s.

use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::harness::CommandInterpreter;
use socialtube::{Message, Outbox, PeerAddr, Report, ServerOutbox, TimerKind, TransferKind};
use socialtube_model::{Catalog, CatalogBuilder, NodeId, SocialGraph, VideoId};
use socialtube_net::testbed::Deployment;
use socialtube_obs::{NullRecorder, Recorder};
use socialtube_sim::{Engine, ServerQueue, SimDuration, SimTime, UploadScheduler};
use socialtube_trace::{Trace, TraceConfig};

use super::{SimEvent, SimSubstrate, StackBuilder};
use crate::configs::{root_rng, ExperimentOptions};
use crate::recording::record_report;
use crate::Protocol;

/// Quiet period after the last scripted action during which both runners
/// still collect reports. Every transfer chain the scripts trigger
/// completes within a fraction of this.
const SETTLE: SimDuration = SimDuration::from_millis(1500);

/// One user action in a scripted workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptAction {
    /// The node starts a session.
    Login(NodeId),
    /// The node selects a video to watch.
    Watch(NodeId, VideoId),
    /// The node ends its session gracefully.
    Logout(NodeId),
}

/// A scripted action with its firing time (offset from run start; the TCP
/// runner maps it 1:1 onto wall-clock time).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptStep {
    /// When the action fires, relative to run start.
    pub at: SimDuration,
    /// The action.
    pub action: ScriptAction,
}

/// A platform-independent fingerprint of one [`Report`]: what happened, to
/// whom, about which video — stripped of timestamps, byte counts and
/// sources, which legitimately differ between virtual and wall-clock runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportKey {
    /// Report kind (plus playback/prefetch for chunk arrivals).
    pub kind: &'static str,
    /// The node the report concerns.
    pub node: u32,
    /// The video the report concerns.
    pub video: u32,
}

impl ReportKey {
    /// The fingerprint of `report`.
    pub fn of(report: &Report) -> Self {
        let (kind, node, video) = match *report {
            Report::PlaybackStarted { node, video, .. } => ("playback", node, video),
            Report::ChunkReceived {
                node, video, kind, ..
            } => match kind {
                TransferKind::Playback => ("chunk-playback", node, video),
                TransferKind::Prefetch => ("chunk-prefetch", node, video),
            },
            Report::ServerFallback { node, video } => ("fallback", node, video),
            Report::ServedFromOrigin { node, video } => ("origin", node, video),
            Report::SearchResolved { node, video, .. } => ("resolved", node, video),
            Report::TtlExpired { node, video } => ("ttl-expired", node, video),
            Report::NeighborLost { node, neighbor } => {
                // No video concerned; record the lost neighbor instead.
                return Self {
                    kind: "neighbor-lost",
                    node: node.as_u32(),
                    video: neighbor.as_u32(),
                };
            }
            Report::PrefetchAbandoned { node, video } => ("prefetch-abandoned", node, video),
        };
        Self {
            kind,
            node: node.as_u32(),
            video: video.as_u32(),
        }
    }
}

/// A hand-built four-peer trace: one category, one channel everyone
/// subscribes to, three two-second videos (small enough that wall-clock
/// transfers finish in tens of milliseconds). Returns the trace and the
/// video ids in catalog order.
pub fn four_peer_trace() -> (Trace, Vec<VideoId>) {
    let mut b = CatalogBuilder::new();
    let cat = b.add_category("interest");
    let ch = b.add_channel("channel", [cat]);
    let mut vids = Vec::new();
    for i in 0..3u32 {
        let v = b.add_video(ch, 2, i);
        b.set_views(v, 100 - u64::from(i) * 10);
        vids.push(v);
    }
    let catalog = b.build();
    let mut graph = SocialGraph::new(4, 1);
    for u in 0..4u32 {
        graph.subscribe(NodeId::new(u), ch);
    }
    let config = TraceConfig {
        users: 4,
        channels: 1,
        categories: 1,
        videos: 3,
        ..TraceConfig::tiny()
    };
    let trace = Trace {
        catalog,
        graph,
        channel_owners: vec![NodeId::new(0)],
        config,
    };
    (trace, vids)
}

/// The standard equivalence script over [`four_peer_trace`]'s videos:
/// staggered logins, six watches alternating first-fetch (server path) and
/// community-hit (peer path), then graceful logouts. Actions sit 2 s apart
/// so even a full two-phase search timeout (2 × 400 ms) plus the transfer
/// resolves before the next action.
pub fn demo_script(videos: &[VideoId]) -> Vec<ScriptStep> {
    let n = |u: u32| NodeId::new(u);
    let at = |ms: u64, action| ScriptStep {
        at: SimDuration::from_millis(ms),
        action,
    };
    vec![
        at(0, ScriptAction::Login(n(0))),
        at(500, ScriptAction::Login(n(1))),
        at(1_000, ScriptAction::Login(n(2))),
        at(1_500, ScriptAction::Login(n(3))),
        // First fetch of each video misses the community; re-watches hit it.
        at(3_500, ScriptAction::Watch(n(0), videos[0])),
        at(5_500, ScriptAction::Watch(n(1), videos[0])),
        at(7_500, ScriptAction::Watch(n(2), videos[1])),
        at(9_500, ScriptAction::Watch(n(3), videos[1])),
        at(11_500, ScriptAction::Watch(n(1), videos[2])),
        at(13_500, ScriptAction::Watch(n(0), videos[2])),
        at(15_500, ScriptAction::Logout(n(0))),
        at(16_000, ScriptAction::Logout(n(1))),
        at(16_500, ScriptAction::Logout(n(2))),
        at(17_000, ScriptAction::Logout(n(3))),
    ]
}

/// Engine events of the scripted simulation runner.
#[derive(Debug)]
enum Ev {
    Step(usize),
    PeerMsg {
        to: NodeId,
        from: PeerAddr,
        msg: Message,
    },
    ServerMsg {
        from: NodeId,
        msg: Message,
    },
    PeerTimer {
        node: NodeId,
        kind: TimerKind,
    },
}

impl SimEvent for Ev {
    fn peer_msg(to: NodeId, from: PeerAddr, msg: Message) -> Self {
        Ev::PeerMsg { to, from, msg }
    }
    fn server_msg(from: NodeId, msg: Message) -> Self {
        Ev::ServerMsg { from, msg }
    }
    fn peer_timer(node: NodeId, kind: TimerKind) -> Self {
        Ev::PeerTimer { node, kind }
    }
}

/// Replays `script` under the discrete-event engine and returns the ordered
/// report keys. Reads the seed, network and protocol parameters of
/// `options` as [`run_script_tcp`] does; the trace and the script stand in
/// for its trace and workload.
pub fn run_script_sim(
    protocol: Protocol,
    trace: &Trace,
    script: &[ScriptStep],
    options: &ExperimentOptions,
) -> Vec<ReportKey> {
    run_script_sim_recorded(protocol, trace, script, options, &mut NullRecorder)
}

/// [`run_script_sim`] with a caller-owned [`Recorder`] attached. The key
/// sequence must be identical with any recorder — the golden-fixture tests
/// pin exactly that.
pub fn run_script_sim_recorded<R: Recorder>(
    protocol: Protocol,
    trace: &Trace,
    script: &[ScriptStep],
    options: &ExperimentOptions,
    rec: &mut R,
) -> Vec<ReportKey> {
    let catalog = Arc::new(trace.catalog.clone());
    let users = trace.graph.user_count();
    let root = root_rng(options.seed);
    let stack =
        StackBuilder::from_options(protocol, Arc::clone(&catalog), options).build(trace, &root);
    let mut peers = stack.peers;
    let mut server = stack.server;
    let interpreter = CommandInterpreter::new(Arc::clone(&catalog));
    // The very delays the Deployment injects.
    let latency = options.network.latency_model(&root);
    let mut uploads = UploadScheduler::new(users, options.network.peer_upload_bps);
    let mut server_queue = ServerQueue::new(options.network.server_bandwidth_bps);

    let mut engine: Engine<Ev> = Engine::new();
    for (i, step) in script.iter().enumerate() {
        engine.schedule_at(SimTime::ZERO + step.at, Ev::Step(i));
    }
    let horizon = script
        .last()
        .map(|s| SimTime::ZERO + s.at + SETTLE)
        .unwrap_or(SimTime::ZERO);

    let mut keys = Vec::new();
    let mut outbox = Outbox::new();
    let mut server_outbox = ServerOutbox::new();
    // Periodic probes re-arm forever, so the queue never drains on its own:
    // stop at the horizon instead, mirroring the TCP runner's settle window.
    while let Some((now, ev)) = engine.next_event() {
        if now > horizon {
            break;
        }
        let mut actor: Option<NodeId> = None;
        match ev {
            Ev::Step(i) => match script[i].action {
                ScriptAction::Login(node) => {
                    actor = Some(node);
                    peers[node.index()].on_login(now, &mut outbox);
                }
                ScriptAction::Watch(node, video) => {
                    actor = Some(node);
                    peers[node.index()].watch(now, video, &mut outbox);
                }
                ScriptAction::Logout(node) => {
                    actor = Some(node);
                    peers[node.index()].on_logout(now, &mut outbox);
                }
            },
            Ev::PeerMsg { to, from, msg } => {
                actor = Some(to);
                peers[to.index()].on_message(now, from, msg, &mut outbox);
            }
            Ev::ServerMsg { from, msg } => {
                server.on_message(now, from, msg, &mut server_outbox);
            }
            Ev::PeerTimer { node, kind } => {
                actor = Some(node);
                peers[node.index()].on_timer(now, kind, &mut outbox);
            }
        }
        let mut sub = SimSubstrate {
            now,
            engine: &mut engine,
            latency: &latency,
            uploads: &mut uploads,
            server_queue: &mut server_queue,
            recorder: &mut *rec,
            delay_memo: None,
        };
        let mut on_report = |sub: &mut SimSubstrate<'_, Engine<Ev>, R>, report: Report| {
            record_report(sub.recorder, now, &report);
            // Diagnostic reports come from intermediate forwarders and probe
            // races whose global order differs between virtual and
            // wall-clock time; the equivalence keys exclude them.
            if !report.is_diagnostic() {
                keys.push(ReportKey::of(&report));
            }
        };
        if let Some(actor) = actor {
            CommandInterpreter::flush_peer(actor, &mut outbox, &mut sub, &mut on_report);
        }
        interpreter.flush_server(&mut server_outbox, &mut sub, &mut on_report);
    }
    keys
}

/// Replays `script` on the live TCP testbed (one daemon per peer, real
/// sockets, injected latency) and returns the ordered report keys.
///
/// # Errors
///
/// Returns any error [`Deployment::spawn`] returns: invalid network
/// options, or localhost sockets that cannot be bound.
pub fn run_script_tcp(
    protocol: Protocol,
    trace: &Trace,
    script: &[ScriptStep],
    options: &ExperimentOptions,
) -> std::io::Result<Vec<ReportKey>> {
    let catalog: Arc<Catalog> = Arc::new(trace.catalog.clone());
    let root = root_rng(options.seed);
    let stack =
        StackBuilder::from_options(protocol, Arc::clone(&catalog), options).build(trace, &root);
    let deployment =
        Deployment::spawn(catalog, stack.peers, stack.server, &options.network, &root)?;

    let start = Instant::now();
    let mut events = Vec::new();
    for step in script {
        let due = start + Duration::from_micros(step.at.as_micros());
        events.extend(std::iter::from_fn(|| deployment.recv_until(due)));
        match step.action {
            ScriptAction::Login(node) => deployment.login(node),
            ScriptAction::Watch(node, video) => deployment.watch(node, video),
            ScriptAction::Logout(node) => deployment.logout(node, false),
        }
    }
    let settle_end = Instant::now() + Duration::from_micros(SETTLE.as_micros());
    events.extend(std::iter::from_fn(|| deployment.recv_until(settle_end)));
    let outcome = deployment.finish(events, Duration::from_millis(100));
    Ok(outcome
        .events
        .iter()
        .filter(|e| !e.report.is_diagnostic())
        .map(|e| ReportKey::of(&e.report))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    #[test]
    fn four_peer_trace_is_well_formed() {
        let (trace, vids) = four_peer_trace();
        assert_eq!(trace.graph.user_count(), 4);
        assert_eq!(vids.len(), 3);
        for v in &vids {
            let video = trace.catalog.video(*v).expect("video exists");
            assert_eq!(video.length_secs(), 2);
        }
        // Every peer subscribes to the single channel, so SocialTube puts
        // all four in one community.
        let ch = trace.catalog.channels().next().unwrap().id();
        assert_eq!(trace.graph.subscribers(ch).len(), 4);
    }

    #[test]
    fn scripted_sim_run_reaches_every_watch() {
        let (trace, vids) = four_peer_trace();
        let script = demo_script(&vids);
        let keys = run_script_sim(Protocol::SocialTube, &trace, &script, &configs::testbed());
        let playbacks = keys.iter().filter(|k| k.kind == "playback").count();
        assert_eq!(playbacks, 6, "keys: {keys:?}");
        // The very first fetch cannot be a community hit.
        let first = keys.first().expect("some report");
        assert!(
            first.kind == "fallback" || first.kind == "origin",
            "first report should be the server path, got {first:?}"
        );
    }

    #[test]
    fn recorded_script_replay_matches_plain_replay() {
        let (trace, vids) = four_peer_trace();
        let script = demo_script(&vids);
        let options = configs::testbed();
        for protocol in Protocol::ALL {
            let plain = run_script_sim(protocol, &trace, &script, &options);
            let mut rec =
                socialtube_obs::RunRecorder::new(socialtube_obs::RecorderConfig::metrics_only());
            let recorded = run_script_sim_recorded(protocol, &trace, &script, &options, &mut rec);
            assert_eq!(
                plain, recorded,
                "{protocol}: recorder changed the key stream"
            );
        }
    }

    #[test]
    fn scripted_sim_runs_are_deterministic() {
        let (trace, vids) = four_peer_trace();
        let script = demo_script(&vids);
        let options = configs::testbed();
        for protocol in Protocol::ALL {
            let a = run_script_sim(protocol, &trace, &script, &options);
            let b = run_script_sim(protocol, &trace, &script, &options);
            assert_eq!(a, b, "{protocol} script replay diverged");
        }
    }
}
