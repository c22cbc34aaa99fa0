//! `perf mix`: what a simulated run sends, counted from outside.
//!
//! `RunSpec::run` keeps its event type private, so message kinds cannot be
//! read off a run. This module replays the serial driver's loop out of the
//! same public parts — `StackBuilder`, `SessionDirector`, `SimSubstrate`,
//! `CommandInterpreter`, `Engine` — with an event type of its own, and
//! counts every delivery by `Message::tag()`. The replay is checked, not
//! trusted: it must dispatch exactly as many events as the program's own
//! run of the same spec, or the tally is refused.
//!
//! The wire probes' frame mix (`net::MIX`) is this tally of the
//! `sim-dense` SocialTube run at seed 42, committed with the command that
//! measured it, so the benchmark's input does not move when the program
//! does. Re-measure with `perf mix` after a protocol change and correct
//! the table in a benchmark change of its own.

use std::sync::Arc;

use socialtube::harness::CommandInterpreter;
use socialtube::{Message, Outbox, PeerAddr, Report, ServerOutbox, TimerKind};
use socialtube_experiments::harness::{
    ProtocolStack, SessionDirector, SessionStep, SimEvent, SimSubstrate, StackBuilder,
};
use socialtube_experiments::{ExperimentOptions, Protocol, RunSpec};
use socialtube_model::NodeId;
use socialtube_obs::NullRecorder;
use socialtube_sim::{
    Engine, LatencyModel, ServerQueue, SimDuration, SimRng, SimTime, UploadScheduler,
};
use socialtube_trace::{generate_shared, SharedTrace};

/// The driver's event type, rebuilt from its public description.
enum Ev {
    Login(NodeId),
    Logout(NodeId),
    NextVideo(NodeId),
    WatchEnd(NodeId),
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

/// Deliveries of one message kind.
#[derive(Clone, Debug, PartialEq)]
pub struct KindCount {
    pub tag: &'static str,
    pub count: u64,
    /// Ids carried in the kind's variable-length payload, summed (contact
    /// lists, digests, subscription lists); 0 for fixed-size kinds.
    pub items: u64,
}

/// What one replayed run delivered.
#[derive(Debug, Default)]
pub struct Tally {
    /// Events dispatched; equals `SimOutcome::events` of the same spec.
    pub events: u64,
    /// Peer timer expiries among them.
    pub timers: u64,
    pub playbacks: u64,
    /// Message deliveries (to peers and to the server) by kind, largest first.
    pub kinds: Vec<KindCount>,
}

impl Tally {
    pub fn messages(&self) -> u64 {
        self.kinds.iter().map(|k| k.count).sum()
    }

    fn count(&mut self, msg: &Message) {
        let items = match msg {
            Message::CacheDigest { videos } => videos.len(),
            Message::SubscriptionUpdate { subscribed } => subscribed.len(),
            Message::JoinResponse {
                channel_contacts,
                category_contacts,
                ..
            } => channel_contacts.len() + category_contacts.len(),
            Message::OverlayContacts { contacts, .. } => contacts.len(),
            Message::ProviderList { providers, .. } => providers.len(),
            Message::PopularityDigest { ranked, .. } => ranked.len(),
            _ => 0,
        } as u64;
        let tag = msg.tag();
        match self.kinds.iter_mut().find(|k| k.tag == tag) {
            Some(kind) => {
                kind.count += 1;
                kind.items += items;
            }
            None => self.kinds.push(KindCount {
                tag,
                count: 1,
                items,
            }),
        }
    }
}

/// Replays `protocol` over `shared` with `options` (serial, no recorder) and
/// tallies what it delivers. The root stream is derived from
/// `options.seed` the way the driver derives it.
pub fn tally(protocol: Protocol, shared: &SharedTrace, options: &ExperimentOptions) -> Tally {
    let root = SimRng::seed(options.seed ^ 0x50c1_a17b);
    let trace = &**shared;
    let catalog = Arc::clone(shared.catalog());
    let users = trace.graph.user_count();
    let ProtocolStack {
        mut peers,
        mut server,
    } = StackBuilder::from_options(protocol, Arc::clone(&catalog), options).build(shared, &root);
    let mut director = SessionDirector::new(users, options.workload.clone(), &root);
    let latency = LatencyModel::new(
        &root,
        options.network.latency_min,
        options.network.latency_max,
    );
    let interpreter = CommandInterpreter::new(Arc::clone(&catalog));
    let mut uploads = UploadScheduler::new(users, options.network.peer_upload_bps);
    let mut server_queue = ServerQueue::new(options.network.server_bandwidth_bps);
    let mut outbox = Outbox::new();
    let mut server_outbox = ServerOutbox::new();
    let mut engine: Engine<Ev> = Engine::new();
    engine.set_event_budget(options.max_events);
    for u in 0..users {
        let node = NodeId::new(u as u32);
        engine.schedule_at(SimTime::ZERO + director.login_offset(node), Ev::Login(node));
    }

    let mut tally = Tally::default();
    while let Some((now, ev)) = engine.next_event() {
        let mut actor = None;
        match ev {
            Ev::Login(node) => {
                actor = Some(node);
                director.on_login(node);
                peers[node.index()].on_login(now, &mut outbox);
                engine.schedule_in(director.workload().browse_delay, Ev::NextVideo(node));
            }
            Ev::Logout(node) => {
                actor = Some(node);
                peers[node.index()].on_logout(now, &mut outbox);
                if director.is_abrupt_exit(node) {
                    outbox.drain();
                    actor = None;
                }
                if let Some(off) = director.on_logout(node) {
                    engine.schedule_in(off, Ev::Login(node));
                }
            }
            Ev::NextVideo(node) => {
                actor = Some(node);
                if peers[node.index()].is_online() {
                    if let Some(video) = director.next_video(trace, node) {
                        peers[node.index()].watch(now, video, &mut outbox);
                    }
                }
            }
            Ev::WatchEnd(node) => {
                if peers[node.index()].is_online() {
                    match director.on_watch_end(node) {
                        SessionStep::Continue(browse) => {
                            engine.schedule_in(browse, Ev::NextVideo(node));
                        }
                        SessionStep::EndSession => engine.schedule_at(now, Ev::Logout(node)),
                    }
                }
            }
            Ev::PeerMsg { to, from, msg } => {
                actor = Some(to);
                tally.count(&msg);
                if peers[to.index()].is_online() {
                    peers[to.index()].on_message(now, from, msg, &mut outbox);
                }
            }
            Ev::ServerMsg { from, msg } => {
                tally.count(&msg);
                server.on_message(now, from, msg, &mut server_outbox);
            }
            Ev::PeerTimer { node, kind } => {
                actor = Some(node);
                tally.timers += 1;
                peers[node.index()].on_timer(now, kind, &mut outbox);
            }
        }
        let mut sub = SimSubstrate {
            now,
            engine: &mut engine,
            latency: &latency,
            uploads: &mut uploads,
            server_queue: &mut server_queue,
            recorder: &mut NullRecorder,
            delay_memo: None,
        };
        if let Some(actor) = actor {
            CommandInterpreter::flush_peer(actor, &mut outbox, &mut sub, |sub, report| {
                if let Report::PlaybackStarted { node, video, .. } = report {
                    if director.on_playback_started(node, video).is_some() {
                        tally.playbacks += 1;
                        let length = catalog
                            .video(video)
                            .map(|v| SimDuration::from_secs(u64::from(v.length_secs())))
                            .unwrap_or(SimDuration::from_secs(60));
                        sub.engine.schedule_in(length, Ev::WatchEnd(node));
                    }
                }
            });
        }
        interpreter.flush_server(&mut server_outbox, &mut sub, |_, _| {});
    }
    tally.events = engine.processed();
    tally.kinds.sort_by_key(|k| std::cmp::Reverse(k.count));
    tally
}

/// `perf mix`: tallies the `sim-dense` SocialTube run for `seed` and
/// renders the table `net::MIX` was copied from. Refuses when the replay
/// and the program's own run of the spec disagree.
pub fn report(seed: u64, smoke: bool) -> Result<String, String> {
    let mut options = crate::sim::dense_options(smoke);
    options.seed = seed;
    let shared = generate_shared(&options.trace, crate::sim::POPULATION_SEED);
    let run = RunSpec::new(Protocol::SocialTube)
        .options(options.clone())
        .trace(shared.clone())
        .run();
    let tally = tally(Protocol::SocialTube, &shared, &options);
    if (tally.events, tally.playbacks) != (run.events, run.metrics.playbacks) {
        return Err(format!(
            "the replay dispatched {} events and started {} playbacks, the program's run {} and {}: \
             the driver's loop changed, and src/mix.rs must follow it",
            tally.events, tally.playbacks, run.events, run.metrics.playbacks
        ));
    }
    let messages = tally.messages();
    let mut out = format!(
        "# perf mix: sim-dense SocialTube, population seed {}, run seed {seed}\n\
         # {} events (equal to the program's own run), {} playbacks, {} peer timers, {messages} messages\n\
         # tag  deliveries  per-mille  mean ids in the variable-length payload\n",
        crate::sim::POPULATION_SEED,
        tally.events,
        tally.playbacks,
        tally.timers,
    );
    for k in &tally.kinds {
        out.push_str(&format!(
            "{} {} {:.2} {:.2}\n",
            k.tag,
            k.count,
            k.count as f64 * 1000.0 / messages as f64,
            k.items as f64 / k.count as f64
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_experiments::configs;

    /// The replay is the driver's loop: same events, same playbacks.
    #[test]
    fn replay_dispatches_what_the_driver_dispatches() {
        let mut options = configs::smoke_test();
        options.trace.users = 60;
        options.seed = 11;
        let shared = generate_shared(&options.trace, 42);
        for protocol in [Protocol::SocialTube, Protocol::NetTube, Protocol::PaVod] {
            let run = RunSpec::new(protocol)
                .options(options.clone())
                .trace(shared.clone())
                .run();
            let tally = tally(protocol, &shared, &options);
            assert_eq!(tally.events, run.events, "{protocol}");
            assert_eq!(tally.playbacks, run.metrics.playbacks, "{protocol}");
            assert!(tally.messages() + tally.timers < tally.events);
        }
    }
}
