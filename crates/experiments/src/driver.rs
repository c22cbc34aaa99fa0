//! The discrete-event simulation driver (the PeerSim role).
//!
//! Owns the virtual clock and the event loop; everything else is the shared
//! harness layer. Stack construction is [`StackBuilder`]; which session
//! event follows which, and what the user does at each, is
//! [`SessionDirector::advance`] (or a script's fixed steps), and the loop
//! performs that action as it performs a script step. Queued protocol
//! commands become engine events through the core [`CommandInterpreter`]
//! over the [`SimSubstrate`]. Any [`VodPeer`]/[`VodServer`] pair runs
//! unmodified under it.
//!
//! Two executors share one event-handling core (`handle_event`, written
//! against the [`EventScheduler`] trait):
//!
//! * **Serial** — one [`Engine`], one thread, the reference order.
//! * **Sharded** — peers partitioned by interest community across worker
//!   threads, each draining its own calendar queue in conservative epochs
//!   ([`ShardEngine`]), with order-sensitive side effects replayed into
//!   canonical serial order at every epoch barrier ([`MergeState`]).
//!
//! Which one runs is chosen through [`RunSpec::execution`] — the single
//! selection point ([`Execution`]). Both produce bitwise-identical
//! [`SimOutcome`]s; the differential tests at the bottom of this file pin
//! that equivalence across protocols, seeds and shard counts.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;

use socialtube::harness::CommandInterpreter;
use socialtube::{Message, Outbox, PeerAddr, Report, ServerOutbox, TimerKind, VodPeer, VodServer};
use socialtube_baselines::Peer;
use socialtube_model::NodeId;
use socialtube_obs::{
    Counter, Dim, HistKind, NullRecorder, Recorder, RecorderConfig, RunRecorder, RunRecording,
    Track,
};
use socialtube_sim::{
    epoch_length, Delivery, Engine, EpochLog, EventScheduler, LatencyModel, MergeState,
    PeriodicSampler, ServerQueue, ShardEngine, SimDuration, SimTime, UploadScheduler,
};
use socialtube_trace::{generate_shared, SharedTrace, Trace};

use crate::configs::{root_rng, ExperimentOptions};
use crate::harness::{SessionDirector, SimEvent, SimSubstrate, StackBuilder};
use crate::metrics::{MetricsCollector, MetricsSummary};
use crate::recording::record_report_in;
use crate::workload::{ScriptAction, SessionEvent};
use crate::{Execution, Protocol};

/// Events the driver schedules on the engine.
#[derive(Debug)]
enum Ev {
    /// A transition of a node's session, which the director advances.
    Session(NodeId, SessionEvent),
    /// A message arrives at a peer.
    PeerMsg {
        to: NodeId,
        from: PeerAddr,
        msg: Message,
    },
    /// A message arrives at the server.
    ServerMsg { from: NodeId, msg: Message },
    /// A peer timer fires.
    PeerTimer { node: NodeId, kind: TimerKind },
    /// A step of a scripted workload: the peer acts, the director is not
    /// consulted.
    Script(ScriptAction),
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

/// What one shard of a run processed — the serial executor reports itself
/// as a single shard, so consumers (the scale bench, JSON emitters) never
/// branch on the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLoad {
    /// Shard index (0 for the serial executor; the server lives on 0).
    pub shard: usize,
    /// Events this shard processed.
    pub events: u64,
    /// High-water mark of this shard's pending-event queue — the working
    /// set its calendar queue had to hold at once.
    pub queue_peak: usize,
    /// Number of peers this shard owned.
    pub peers: usize,
}

/// Wall-clock self-profile of one sharded execution, carried in
/// [`SimOutcome::profile`]. Every field is a wall-time measurement or a
/// message count taken by the coordinator loop — diagnostics only, never
/// an input to the simulation, so a run's deterministic outputs are
/// identical whether or not anyone reads it.
#[derive(Clone, Debug, Default)]
pub struct ExecutionProfile {
    /// Conservative epochs the run advanced through.
    pub epochs: u64,
    /// Wall seconds shards spent computing epoch windows, summed across
    /// shards — can exceed the run's wall time, since shards compute in
    /// parallel.
    pub epoch_compute_s: f64,
    /// Wall seconds the coordinator waited at epoch barriers for the
    /// slowest worker after finishing its own (shard 0) window.
    pub barrier_stall_s: f64,
    /// Wall seconds spent in canonical merge replay (including draining
    /// the shards' queued metric notes).
    pub merge_s: f64,
    /// `cross_shard_msgs[from][to]` counts cross-epoch deliveries whose
    /// handler ran on shard `from` and whose target lives on shard `to`.
    /// The diagonal is a shard's own cross-epoch traffic; off-diagonal
    /// entries are the true cross-shard message load.
    pub cross_shard_msgs: Vec<Vec<u64>>,
    /// Mean over non-empty epochs of the per-epoch `max/mean` shard-event
    /// ratio: 1.0 is perfect balance, `shards` means one shard did all the
    /// work that epoch.
    pub imbalance_mean: f64,
}

impl ExecutionProfile {
    /// Total deliveries that crossed an epoch boundary between two
    /// *different* shards (the off-diagonal sum of the matrix).
    pub fn cross_shard_total(&self) -> u64 {
        self.cross_shard_msgs
            .iter()
            .enumerate()
            .map(|(from, row)| {
                row.iter()
                    .enumerate()
                    .filter(|(to, _)| *to != from)
                    .map(|(_, n)| n)
                    .sum::<u64>()
            })
            .sum()
    }
}

/// Result of one simulation run.
///
/// Time series live in the [`recording`](SimOutcome::recording), not here:
/// a recorded serial run samples the engine's queue depth and the server's
/// upload backlog once per simulated minute (`queue_depth` on
/// [`Track::Engine`], `backlog_ms` on [`Track::Server`]).
#[derive(Debug)]
pub struct SimOutcome {
    /// The evaluation metrics.
    pub metrics: MetricsSummary,
    /// Events processed across all shards.
    pub events: u64,
    /// Simulated time at which the run drained.
    pub sim_end: SimTime,
    /// Total bits the server's origin store uploaded.
    pub server_bits_served: u64,
    /// Peak number of entries the server tracked (SocialTube: channel
    /// memberships; NetTube: per-video overlay entries).
    pub server_tracked_peak: usize,
    /// Per-shard load figures, in shard order. A serial run reports one
    /// shard owning every peer; a sharded run reports one entry per
    /// worker. Event totals sum to [`events`](SimOutcome::events).
    pub shards: Vec<ShardLoad>,
    /// True if the run hit the `max_events` safety valve.
    pub truncated: bool,
    /// Metrics snapshot and optional timeline, when the spec asked for
    /// recording ([`RunSpec::with_recorder`]); `None` otherwise.
    pub recording: Option<RunRecording>,
    /// Wall-clock self-profile of the sharded executor; `None` for serial
    /// runs. Wall times never feed back into deterministic outputs.
    pub profile: Option<ExecutionProfile>,
    /// Every report a scripted run surfaced, in order: the simulator's
    /// counterpart of the testbed's `NetOutcome::events`. Empty for a
    /// session run, which keeps only the metrics.
    pub reports: Vec<Report>,
}

impl SimOutcome {
    /// Largest pending-event queue any shard held — the run's
    /// memory-pressure signal (see `socialtube_sim::EventQueue`).
    pub fn queue_peak(&self) -> usize {
        self.shards.iter().map(|s| s.queue_peak).max().unwrap_or(0)
    }
}

/// Builder-style specification of one simulation run — the single entry
/// point for simulating a protocol over a trace.
///
/// A spec owns everything a run needs: the protocol variant, the
/// [`ExperimentOptions`], an optional seed override, an optional
/// pre-built [`SharedTrace`], and the [`Execution`] mode. Supplying a
/// shared trace is how campaigns avoid regenerating (and deep-copying) the
/// trace for every variant and replicate; without one,
/// [`run`](RunSpec::run) generates the trace from the options — the two
/// paths are bitwise identical for the same `(trace config, seed)`.
///
/// # Examples
///
/// ```
/// use socialtube_experiments::{configs, Execution, Protocol, RunSpec};
///
/// let outcome = RunSpec::new(Protocol::SocialTube)
///     .options(configs::smoke_test())
///     .seed(7)
///     .execution(Execution::Sharded { workers: 2 })
///     .run();
/// assert!(outcome.metrics.playbacks > 0);
/// assert_eq!(outcome.shards.len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct RunSpec {
    protocol: Protocol,
    options: ExperimentOptions,
    seed: Option<u64>,
    trace: Option<SharedTrace>,
    recorder: RecorderConfig,
    execution: Execution,
}

impl RunSpec {
    /// Starts a spec for `protocol` with default options.
    pub fn new(protocol: Protocol) -> Self {
        Self {
            protocol,
            options: ExperimentOptions::default(),
            seed: None,
            trace: None,
            recorder: RecorderConfig::default(),
            execution: Execution::Serial,
        }
    }

    /// Sets the experiment options (trace shape, workload, network,
    /// protocol parameters).
    pub fn options(mut self, options: ExperimentOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the root seed (defaults to `options.seed`). Trace
    /// generation, workload, latencies and protocol randomness all derive
    /// from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Reuses a pre-built trace instead of generating one, sharing it
    /// read-only with every other run holding a clone.
    pub fn trace(mut self, trace: SharedTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Selects the executor ([`Execution::Serial`] by default). Sharded
    /// execution partitions peers by interest community across worker
    /// threads; the outcome is bitwise identical either way.
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Turns on instrumentation: the outcome's
    /// [`recording`](SimOutcome::recording) carries a
    /// [`MetricsSnapshot`](socialtube_obs::MetricsSnapshot) (and a
    /// timeline when `config.timeline` is set). Recording never perturbs
    /// the run: it draws no RNG and schedules nothing, so metrics and
    /// event counts are bitwise identical with it on or off.
    pub fn with_recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = config;
        self
    }

    /// The protocol this spec runs.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The seed the run will actually use.
    pub fn effective_seed(&self) -> u64 {
        self.seed.unwrap_or(self.options.seed)
    }

    /// Executes the run to completion under the selected [`Execution`].
    /// When [`with_recorder`](RunSpec::with_recorder) asked for capture,
    /// the outcome's `recording` is populated; otherwise the run goes
    /// through the zero-cost [`NullRecorder`] path.
    pub fn run(&self) -> SimOutcome {
        match self.execution {
            Execution::Serial => {
                let seed = self.effective_seed();
                let trace = self.resolve_trace(seed);
                let (protocol, options) = (self.protocol, &self.options);
                if self.recorder.enabled() {
                    let mut rec = RunRecorder::new(self.recorder);
                    let mut outcome = run_serial_with(&trace, protocol, options, seed, &mut rec);
                    outcome.recording = Some(rec.finish());
                    outcome
                } else {
                    run_serial_with(&trace, protocol, options, seed, &mut NullRecorder)
                }
            }
            Execution::Sharded { workers } => self.run_sharded(workers),
        }
    }

    /// The trace the run uses: the shared one when set, otherwise one
    /// generated from the options at `seed`.
    fn resolve_trace(&self, seed: u64) -> SharedTrace {
        self.trace
            .clone()
            .unwrap_or_else(|| generate_shared(&self.options.trace, seed))
    }

    /// The sharded path of [`run`](RunSpec::run): resolves the trace, then
    /// fans one recorder per shard and folds them back into one recording.
    fn run_sharded(&self, workers: usize) -> SimOutcome {
        let seed = self.effective_seed();
        let trace = self.resolve_trace(seed);
        if self.recorder.enabled() {
            let config = self.recorder;
            let (mut outcome, recs) =
                run_sharded_with(&trace, self.protocol, &self.options, seed, workers, |_| {
                    RunRecorder::new(config)
                });
            outcome.recording = recs
                .into_iter()
                .map(RunRecorder::finish)
                .reduce(|mut a, b| {
                    a.absorb(b);
                    a
                });
            outcome
        } else {
            run_sharded_with(&trace, self.protocol, &self.options, seed, workers, |_| {
                NullRecorder
            })
            .0
        }
    }
}

/// Where order-sensitive observations land during event handling.
///
/// The serial executor feeds the [`MetricsCollector`] directly; a shard
/// queues [`MetricNote`]s instead, which the coordinator drains into the
/// collector in canonical replay order — the collector only ever sees the
/// serial order either way.
trait ReportSink {
    /// A protocol report surfaced while flushing an outbox.
    fn on_report(&mut self, now: SimTime, report: Report);
    /// A maintenance-overhead sample taken at a real playback start.
    fn on_link_sample(&mut self, watched: u32, links: usize);
}

/// The serial executor's sink: straight into the collector, and into the
/// report stream when the run keeps one.
struct SerialSink<'a> {
    metrics: &'a mut MetricsCollector,
    reports: Option<&'a mut Vec<Report>>,
}

impl ReportSink for SerialSink<'_> {
    fn on_report(&mut self, now: SimTime, report: Report) {
        if let Some(reports) = self.reports.as_deref_mut() {
            reports.push(report);
        }
        self.metrics.on_report(now, report);
    }
    fn on_link_sample(&mut self, watched: u32, links: usize) {
        self.metrics.sample_links(watched, links);
    }
}

/// One order-sensitive side effect a shard queued during phase 1, replayed
/// by the coordinator in canonical order.
#[derive(Debug)]
enum MetricNote {
    /// [`MetricsCollector::on_report`] input.
    Report(Report),
    /// [`MetricsCollector::sample_links`] input.
    LinkSample { watched: u32, links: usize },
}

/// A shard's sink: every observation becomes a [`MetricNote`], bucketed
/// per processed event by the epoch loop (`note_ends`).
#[derive(Default)]
struct ShardSink {
    notes: Vec<MetricNote>,
}

impl ReportSink for ShardSink {
    fn on_report(&mut self, _now: SimTime, report: Report) {
        self.notes.push(MetricNote::Report(report));
    }
    fn on_link_sample(&mut self, watched: u32, links: usize) {
        self.notes.push(MetricNote::LinkSample { watched, links });
    }
}

/// Everything one executor (or one shard of it) owns besides the event
/// queue: the protocol stack, session logic, and network models. Peers sit
/// in full-length slot vectors so `NodeId` indexes directly; a shard holds
/// `Some` only for the nodes it owns, and a misrouted event fails loudly.
struct World<'a> {
    trace: &'a Trace,
    interpreter: CommandInterpreter,
    latency: LatencyModel,
    peers: Vec<Option<Peer>>,
    /// The origin server — present only on the serial executor and the
    /// server-owning shard 0.
    server: Option<Box<dyn VodServer + Send>>,
    director: SessionDirector,
    uploads: UploadScheduler,
    server_queue: ServerQueue,
    outbox: Outbox,
    server_outbox: ServerOutbox,
    tracked_peak: usize,
    /// Each node's interest-community key for dimensional metric
    /// attribution ([`crate::recording::record_report_in`]); empty when
    /// the recorder is disabled — attribution then skips every report.
    community_of: Arc<[u32]>,
}

/// Mutable access to an owned peer slot; panics on a routing bug.
fn peer(peers: &mut [Option<Peer>], node: NodeId) -> &mut Peer {
    peers[node.index()]
        .as_mut()
        .expect("event routed to a node owned by another shard")
}

/// The event-handling core both executors share, written against the
/// [`EventScheduler`] trait so protocol behaviour cannot observe which
/// executor is running it. Preserves the serial driver's exact operation
/// order: count, dispatch, flush the actor's outbox, flush the server
/// outbox — reports surfacing through `sink` as they happen.
fn handle_event<S, R, K>(
    world: &mut World<'_>,
    engine: &mut S,
    rec: &mut R,
    sink: &mut K,
    now: SimTime,
    ev: Ev,
) where
    S: EventScheduler<Event = Ev>,
    R: Recorder,
    K: ReportSink,
{
    let World {
        trace,
        interpreter,
        latency,
        peers,
        server,
        director,
        uploads,
        server_queue,
        outbox,
        server_outbox,
        tracked_peak,
        community_of,
    } = world;

    if R::ENABLED {
        rec.count(match &ev {
            Ev::Session(_, SessionEvent::Login) => Counter::EvLogin,
            Ev::Session(_, SessionEvent::Logout) => Counter::EvLogout,
            Ev::Session(_, SessionEvent::NextVideo) => Counter::EvNextVideo,
            Ev::Session(..) => Counter::EvWatchEnd, // a watch end, or an abandoned one
            Ev::Script(ScriptAction::Login(_)) => Counter::EvLogin,
            Ev::Script(ScriptAction::Logout(..)) => Counter::EvLogout,
            Ev::Script(ScriptAction::Watch(..)) => Counter::EvNextVideo,
            Ev::PeerMsg { .. } => Counter::EvPeerMsg,
            Ev::ServerMsg { .. } => Counter::EvServerMsg,
            Ev::PeerTimer { .. } => Counter::EvPeerTimer,
        });
    }
    // The peer whose commands the outbox will carry after this event.
    let mut actor: Option<NodeId> = None;
    let action = match ev {
        // A logged-off peer neither browses nor ends a watch; the check
        // comes before the director draws a pick.
        Ev::Session(node, SessionEvent::NextVideo | SessionEvent::WatchEnd)
            if !peer(peers, node).is_online() =>
        {
            None
        }
        Ev::Session(node, event) => {
            // The next session event is queued before the outbox flushes.
            let (action, next) = director.advance(trace, node, event);
            if let Some((delay, next)) = next {
                engine.schedule_in(delay, Ev::Session(node, next));
            }
            action
        }
        Ev::Script(action) => Some(action),
        Ev::PeerMsg { to, from, msg } => {
            actor = Some(to);
            // Offline peers drop messages themselves (`VodPeer::on_message`).
            peer(peers, to).on_message(now, from, msg, outbox);
            None
        }
        Ev::ServerMsg { from, msg } => {
            let server = server
                .as_mut()
                .expect("server event routed off the server-owning shard");
            server.on_message(now, from, msg, server_outbox);
            *tracked_peak = (*tracked_peak).max(server.tracked_entries());
            None
        }
        Ev::PeerTimer { node, kind } => {
            actor = Some(node);
            peer(peers, node).on_timer(now, kind, outbox);
            None
        }
    };

    // The user's action, a session's or a script's.
    match action {
        Some(ScriptAction::Login(node)) => {
            actor = Some(node);
            peer(peers, node).on_login(now, outbox);
            if R::ENABLED {
                rec.span_begin(Track::Peer(node.as_u32()), "session", now.as_micros());
            }
        }
        Some(ScriptAction::Watch(node, video)) => {
            actor = Some(node);
            peer(peers, node).watch(now, video, outbox);
        }
        Some(ScriptAction::Logout(node, abrupt)) => {
            actor = Some(node);
            if R::ENABLED {
                rec.span_end(Track::Peer(node.as_u32()), now.as_micros());
            }
            peer(peers, node).on_logout(now, outbox);
            if abrupt {
                // Abrupt failure: the process died before any goodbye
                // could leave the machine. Dropping the outbox models
                // exactly that — neighbors and the server only learn of
                // the departure through probe timeouts.
                outbox.drain();
                actor = None;
            }
        }
        None => {}
    }

    if let Some(actor) = actor {
        let mut sub = SimSubstrate {
            now,
            engine: &mut *engine,
            latency,
            uploads: &mut *uploads,
            server_queue: &mut *server_queue,
            recorder: &mut *rec,
            delay_memo: None,
        };
        CommandInterpreter::flush_peer(actor, outbox, &mut sub, |sub, report| {
            sink.on_report(now, report);
            record_report_in(sub.recorder, now, community_of, &report);
            if let Report::PlaybackStarted { node, video, .. } = report {
                if let Some((watched, watch)) = director.accept_playback(trace, node, video) {
                    // A real playback: sample maintenance overhead and
                    // schedule the end of the watch.
                    let links = peers[node.index()]
                        .as_ref()
                        .expect("playback on a node owned by another shard")
                        .link_count();
                    sink.on_link_sample(watched, links);
                    sub.engine
                        .schedule_in(watch, Ev::Session(node, SessionEvent::WatchEnd));
                }
            }
        });
    }
    {
        let mut sub = SimSubstrate {
            now,
            engine: &mut *engine,
            latency,
            uploads: &mut *uploads,
            server_queue: &mut *server_queue,
            recorder: &mut *rec,
            delay_memo: None,
        };
        interpreter.flush_server(server_outbox, &mut sub, |sub, report| {
            sink.on_report(now, report);
            record_report_in(sub.recorder, now, community_of, &report);
        });
    }
}

/// The serial run loop: all serial entry points funnel here with an
/// explicit root seed and a resolved trace.
///
/// The loop itself owns only the virtual clock and event dispatch; the
/// stack comes from [`StackBuilder`], session logic from
/// [`SessionDirector`], and command execution from the shared
/// [`CommandInterpreter`] over the [`SimSubstrate`]. The recorder is
/// monomorphized in: with [`NullRecorder`] every observation compiles to
/// nothing (`R::ENABLED` is a constant `false`).
fn run_serial_with<R: Recorder>(
    trace: &Trace,
    protocol: Protocol,
    options: &ExperimentOptions,
    seed: u64,
    rec: &mut R,
) -> SimOutcome {
    let root = root_rng(seed);
    let users = trace.graph.user_count();

    let (peers, server) = StackBuilder::from_options(protocol, Arc::clone(&trace.catalog), options)
        .build_peers(trace, &root);
    let director = SessionDirector::new(users, options.workload.clone(), &root);
    let latency = options.network.latency_model(&root);
    let interpreter = CommandInterpreter::new(Arc::clone(&trace.catalog));
    let mut world = World {
        trace,
        interpreter,
        latency,
        peers: peers.into_iter().map(Some).collect(),
        server: Some(server),
        director,
        uploads: UploadScheduler::new(users, options.network.peer_upload_bps),
        server_queue: ServerQueue::new(options.network.server_bandwidth_bps),
        outbox: Outbox::new(),
        server_outbox: ServerOutbox::new(),
        tracked_peak: 0,
        community_of: community_keys::<R>(trace),
    };
    let mut metrics = MetricsCollector::new(users);
    let mut engine: Engine<Ev> = Engine::new();
    engine.set_event_budget(options.max_events);

    let script = &options.workload.script;
    if script.is_empty() {
        // Staggered first logins, offsets drawn by the director.
        for u in 0..users {
            let node = NodeId::new(u as u32);
            engine.schedule_at(
                SimTime::ZERO + world.director.login_offset(node),
                Ev::Session(node, SessionEvent::Login),
            );
        }
    } else {
        // A script's steps, and nothing the director would draw. No
        // horizon: once the script has logged every peer out, no timer
        // re-arms and the queue drains.
        for step in script {
            engine.schedule_at(SimTime::ZERO + step.at, Ev::Script(step.action));
        }
    }
    let mut reports = Vec::new();

    let mut sampler = PeriodicSampler::new(SimDuration::from_mins(1));

    while let Some((now, ev)) = engine.next_event() {
        if R::ENABLED && sampler.due(now) > 0 {
            let depth = engine.pending() as u64;
            rec.observe(HistKind::QueueDepth, depth);
            rec.sample(Track::Engine, "queue_depth", now.as_micros(), depth);
            rec.sample(
                Track::Server,
                "backlog_ms",
                now.as_micros(),
                world.server_queue.backlog(now).as_millis(),
            );
            rec.observe_dim(Dim::Shard(0), HistKind::QueueDepth, depth);
        }
        let mut sink = SerialSink {
            metrics: &mut metrics,
            reports: (!script.is_empty()).then_some(&mut reports),
        };
        handle_event(&mut world, &mut engine, rec, &mut sink, now, ev);
    }
    if R::ENABLED {
        // The high-water mark complements the per-minute samples: a burst
        // between sampling points still shows up in the distribution.
        rec.observe(HistKind::QueueDepth, engine.peak_pending() as u64);
    }

    SimOutcome {
        metrics: metrics.summary(),
        events: engine.processed(),
        sim_end: engine.now(),
        server_bits_served: world.server_queue.bits_served(),
        server_tracked_peak: world.tracked_peak,
        shards: vec![ShardLoad {
            shard: 0,
            events: engine.processed(),
            queue_peak: engine.peak_pending(),
            peers: users,
        }],
        truncated: engine.budget_exhausted(),
        recording: None,
        profile: None,
        reports,
    }
}

/// Each node's interest-community key — the same key
/// [`partition_by_interest`] groups by (first subscription channel), or
/// [`NO_COMMUNITY`](crate::recording::NO_COMMUNITY) for nodes without
/// subscriptions. Only materialized when the recorder is enabled; the
/// [`NullRecorder`] path shares one empty slice and attribution skips
/// every report.
fn community_keys<R: Recorder>(trace: &Trace) -> Arc<[u32]> {
    if !R::ENABLED {
        return Arc::from(Vec::new());
    }
    let users = trace.graph.user_count();
    (0..users)
        .map(|u| {
            trace
                .graph
                .user(NodeId::new(u as u32))
                .ok()
                .and_then(|user| user.subscriptions().first().copied())
                .map_or(crate::recording::NO_COMMUNITY, |c| c.as_u32())
        })
        .collect()
}

/// Partitions nodes across `shards` by interest community: a node's
/// community key is its first subscription channel (the channel overlay it
/// will do most of its messaging inside), so community-internal traffic —
/// the bulk of SocialTube's message load — stays shard-local. Communities
/// larger than a fair share are split; the resulting chunks are packed
/// greedily onto the least-loaded shard, largest first. Deterministic by
/// construction (BTreeMap grouping, stable tie-breaks).
fn partition_by_interest(trace: &Trace, shards: usize) -> Vec<usize> {
    let users = trace.graph.user_count();
    let mut groups: BTreeMap<Option<socialtube_model::ChannelId>, Vec<usize>> = BTreeMap::new();
    for u in 0..users {
        let key = trace
            .graph
            .user(NodeId::new(u as u32))
            .ok()
            .and_then(|user| user.subscriptions().first().copied());
        groups.entry(key).or_default().push(u);
    }
    let cap = users.div_ceil(shards).max(1);
    let mut chunks: Vec<&[usize]> = Vec::new();
    for members in groups.values() {
        chunks.extend(members.chunks(cap));
    }
    chunks.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
    let mut load = vec![0usize; shards];
    let mut shard_of = vec![0usize; users];
    for chunk in chunks {
        let s = (0..shards)
            .min_by_key(|&s| (load[s], s))
            .expect("at least one shard");
        load[s] += chunk.len();
        for &u in chunk {
            shard_of[u] = s;
        }
    }
    shard_of
}

/// Which shard processes an event: node events go to the node's owner,
/// server messages to the server-owning shard 0.
fn route_shard(ev: &Ev, shard_of: &[usize]) -> usize {
    match ev {
        Ev::ServerMsg { .. } => 0,
        Ev::Session(n, _) => shard_of[n.index()],
        Ev::PeerMsg { to, .. } => shard_of[to.index()],
        Ev::PeerTimer { node, .. } => shard_of[node.index()],
        Ev::Script(_) => unreachable!("a sharded run refuses a script"),
    }
}

/// One epoch's work order for a worker.
enum ToWorker {
    /// Drain the window ending (exclusively) at `end`, after inserting the
    /// routed cross-epoch deliveries.
    Epoch {
        end: SimTime,
        deliveries: Vec<Delivery<Ev>>,
    },
    /// The run is over; return the shard's final figures.
    Finish,
}

/// What one shard hands the coordinator at an epoch barrier.
struct EpochOut {
    shard: usize,
    log: EpochLog<Ev>,
    /// Phase-1 metric notes, bucketed per processed event by `note_ends`.
    notes: Vec<MetricNote>,
    /// `notes` index after each processed event, aligned with the log's
    /// entries — the coordinator's replay cursor boundary.
    note_ends: Vec<u32>,
    /// Timestamp of the shard's earliest still-pending event.
    next: Option<SimTime>,
}

/// A shard's final figures, returned when the run finishes.
struct ShardFinal<R> {
    shard: usize,
    peers: usize,
    processed: u64,
    peak_pending: usize,
    pending: usize,
    /// Wall seconds this shard spent inside [`run_shard_epoch`], for the
    /// run's [`ExecutionProfile`].
    compute_s: f64,
    server_bits_served: u64,
    tracked_peak: usize,
    recorder: R,
}

/// Runs one epoch on one shard: insert deliveries, drain the window
/// (logging per-event note boundaries), then take a per-shard queue-depth
/// sample at most once per simulated minute.
#[allow(clippy::too_many_arguments)] // one call site; the args are the shard's whole state
fn run_shard_epoch<R: Recorder>(
    shard: usize,
    world: &mut World<'_>,
    engine: &mut ShardEngine<Ev>,
    rec: &mut R,
    sink: &mut ShardSink,
    sampler: &mut PeriodicSampler,
    end: SimTime,
    deliveries: Vec<Delivery<Ev>>,
) -> EpochOut {
    for d in deliveries {
        engine.deliver(d.at, d.seq, d.event);
    }
    engine.begin_epoch(end);
    let mut note_ends: Vec<u32> = Vec::new();
    while let Some((now, ev)) = engine.pop_epoch_event() {
        handle_event(world, engine, rec, sink, now, ev);
        note_ends.push(u32::try_from(sink.notes.len()).expect("notes fit in u32"));
    }
    let log = engine.take_epoch_log();
    if R::ENABLED && sampler.due(end) > 0 {
        let depth = engine.pending() as u64;
        rec.observe(HistKind::QueueDepth, depth);
        rec.sample(
            Track::Shard(shard as u32),
            "queue_depth",
            end.as_micros(),
            depth,
        );
        rec.sample(
            Track::Shard(shard as u32),
            "events",
            end.as_micros(),
            engine.processed(),
        );
        rec.observe_dim(Dim::Shard(shard as u32), HistKind::QueueDepth, depth);
    }
    EpochOut {
        shard,
        log,
        notes: std::mem::take(&mut sink.notes),
        note_ends,
        next: engine.peek_time(),
    }
}

/// Wraps up one shard at the end of the run.
fn finish_shard<R: Recorder>(
    shard: usize,
    world: World<'_>,
    engine: ShardEngine<Ev>,
    mut rec: R,
    compute_s: f64,
) -> ShardFinal<R> {
    if R::ENABLED {
        rec.observe(HistKind::QueueDepth, engine.peak_pending() as u64);
    }
    ShardFinal {
        shard,
        peers: world.peers.iter().flatten().count(),
        processed: engine.processed(),
        peak_pending: engine.peak_pending(),
        pending: engine.pending(),
        compute_s,
        server_bits_served: world.server_queue.bits_served(),
        tracked_peak: world.tracked_peak,
        recorder: rec,
    }
}

/// A worker thread's whole life: drain epochs on request, then report.
fn shard_worker<R: Recorder>(
    shard: usize,
    mut world: World<'_>,
    mut engine: ShardEngine<Ev>,
    mut rec: R,
    rx: mpsc::Receiver<ToWorker>,
    tx: mpsc::Sender<EpochOut>,
) -> ShardFinal<R> {
    let mut sink = ShardSink::default();
    let mut sampler = PeriodicSampler::new(SimDuration::from_mins(1));
    let mut compute_s = 0f64;
    while let Ok(msg) = rx.recv() {
        match msg {
            ToWorker::Epoch { end, deliveries } => {
                let t0 = std::time::Instant::now();
                let out = run_shard_epoch(
                    shard,
                    &mut world,
                    &mut engine,
                    &mut rec,
                    &mut sink,
                    &mut sampler,
                    end,
                    deliveries,
                );
                compute_s += t0.elapsed().as_secs_f64();
                if tx.send(out).is_err() {
                    break;
                }
            }
            ToWorker::Finish => break,
        }
    }
    finish_shard(shard, world, engine, rec, compute_s)
}

/// The sharded run loop: partitions the world by interest community,
/// advances every shard in conservative epochs on worker threads (shard 0
/// runs inline on the coordinator), and folds order-sensitive side effects
/// back into the canonical serial order at each barrier — producing a
/// [`SimOutcome`] bitwise identical to the serial executor's.
///
/// The epoch length is the largest 1024 µs bucket multiple not exceeding
/// the minimum pairwise latency (the conservative lookahead); every
/// sub-lookahead schedule the driver makes is same-node, hence same-shard,
/// which is what makes the window safe.
///
/// Returns the outcome plus each shard's recorder, in shard order.
///
/// # Panics
///
/// Panics if `shards` is 0 or the configured minimum latency is below one
/// calendar bucket (no conservative lookahead exists).
fn run_sharded_with<R, F>(
    trace: &Trace,
    protocol: Protocol,
    options: &ExperimentOptions,
    seed: u64,
    shards: usize,
    make_recorder: F,
) -> (SimOutcome, Vec<R>)
where
    R: Recorder + Send,
    F: Fn(usize) -> R,
{
    assert!(shards >= 1, "sharded execution needs at least one shard");
    assert!(
        options.workload.script.is_empty(),
        "a scripted workload runs only under Execution::Serial; the sharded \
         executor is pending deletion and takes no new workloads"
    );
    let epoch = epoch_length(options.network.latency_min).unwrap_or_else(|| {
        panic!(
            "sharded execution needs latency_min >= {} us (the calendar bucket) \
             for a conservative lookahead; got {} us",
            socialtube_sim::EPOCH_ALIGN_US,
            options.network.latency_min.as_micros()
        )
    });
    let epoch_us = epoch.as_micros();

    let root = root_rng(seed);
    let users = trace.graph.user_count();

    // Identical construction to the serial path: every RNG consumer draws
    // from an independent labelled stream off the root, so build order is
    // immaterial and both executors see the same randomness.
    let (peers, server) = StackBuilder::from_options(protocol, Arc::clone(&trace.catalog), options)
        .build_peers(trace, &root);
    let director = SessionDirector::new(users, options.workload.clone(), &root);
    let latency = options.network.latency_model(&root);
    let shard_of = partition_by_interest(trace, shards);
    let mut engines: Vec<ShardEngine<Ev>> = (0..shards).map(|_| ShardEngine::new()).collect();
    // The initial logins occupy canonical sequence numbers 0..users, in
    // node order — exactly the serial engine's assignment.
    for u in 0..users {
        let node = NodeId::new(u as u32);
        let (at, login) = (
            director.login_offset(node),
            Ev::Session(node, SessionEvent::Login),
        );
        engines[shard_of[u]].deliver(SimTime::ZERO + at, u as u64, login);
    }
    let directors = director.partition(&shard_of, shards);
    let community_of = community_keys::<R>(trace);

    // Deal the stack's peers into per-shard full-length slot vectors.
    let mut peer_slots: Vec<Vec<Option<Peer>>> = (0..shards)
        .map(|_| (0..users).map(|_| None).collect())
        .collect();
    for (u, p) in peers.into_iter().enumerate() {
        peer_slots[shard_of[u]][u] = Some(p);
    }

    let mut server = Some(server);
    let mut worlds: Vec<World<'_>> = Vec::with_capacity(shards);
    for (s, (slots, director)) in peer_slots.into_iter().zip(directors).enumerate() {
        worlds.push(World {
            trace,
            interpreter: CommandInterpreter::new(Arc::clone(&trace.catalog)),
            latency: latency.clone(),
            peers: slots,
            server: if s == 0 { server.take() } else { None },
            director,
            uploads: UploadScheduler::new(users, options.network.peer_upload_bps),
            server_queue: ServerQueue::new(options.network.server_bandwidth_bps),
            outbox: Outbox::new(),
            server_outbox: ServerOutbox::new(),
            tracked_peak: 0,
            community_of: Arc::clone(&community_of),
        });
    }

    let mut merge = MergeState::new(shards, users as u64);
    let mut metrics = MetricsCollector::new(users);
    let mut sim_end = SimTime::ZERO;
    let mut processed_total = 0u64;
    let budget = options.max_events;
    let mut budget_hit = false;
    let mut routed: Vec<Vec<Delivery<Ev>>> = (0..shards).map(|_| Vec::new()).collect();
    let mut next_times: Vec<Option<SimTime>> = engines.iter().map(|e| e.peek_time()).collect();

    // Self-profiling accumulators — wall-clock diagnostics for the
    // outcome's ExecutionProfile; nothing here feeds back into the run.
    let mut profile = ExecutionProfile {
        cross_shard_msgs: vec![vec![0u64; shards]; shards],
        ..ExecutionProfile::default()
    };
    let mut imbalance_sum = 0f64;
    let mut imbalance_epochs = 0u64;
    let mut compute0_s = 0f64;

    let mut worlds_iter = worlds.into_iter();
    let mut engines_iter = engines.into_iter();
    let mut world0 = worlds_iter.next().expect("shard 0 exists");
    let mut engine0 = engines_iter.next().expect("shard 0 exists");
    let mut rec0 = make_recorder(0);
    let mut sink0 = ShardSink::default();
    let mut sampler0 = PeriodicSampler::new(SimDuration::from_mins(1));

    let (finals, truncated) = std::thread::scope(|scope| {
        let (out_tx, out_rx) = mpsc::channel::<EpochOut>();
        let mut to_workers: Vec<mpsc::Sender<ToWorker>> = Vec::with_capacity(shards - 1);
        let mut handles = Vec::with_capacity(shards - 1);
        for (i, (world, engine)) in worlds_iter.zip(engines_iter).enumerate() {
            let shard = i + 1;
            let (tx, rx) = mpsc::channel::<ToWorker>();
            let out_tx = out_tx.clone();
            let rec = make_recorder(shard);
            to_workers.push(tx);
            handles.push(scope.spawn(move || shard_worker(shard, world, engine, rec, rx, out_tx)));
        }

        loop {
            // The earliest pending instant anywhere: shard queues plus
            // routed-but-undelivered cross-epoch traffic.
            let mut next: Option<SimTime> = None;
            let mut fold = |t: SimTime| next = Some(next.map_or(t, |n| n.min(t)));
            for t in next_times.iter().flatten() {
                fold(*t);
            }
            for q in &routed {
                for d in q {
                    fold(d.at);
                }
            }
            let Some(next) = next else {
                break;
            };
            if budget > 0 && processed_total >= budget {
                // The budget gate sits at epoch granularity: a sharded run
                // may overshoot `max_events` by up to one epoch's worth of
                // events before stopping (the serial engine stops exactly).
                budget_hit = true;
                break;
            }
            let end = SimTime::from_micros((next.as_micros() / epoch_us + 1) * epoch_us);

            for (i, tx) in to_workers.iter().enumerate() {
                let deliveries = std::mem::take(&mut routed[i + 1]);
                tx.send(ToWorker::Epoch { end, deliveries })
                    .expect("shard worker alive");
            }
            let t_compute = std::time::Instant::now();
            let out0 = run_shard_epoch(
                0,
                &mut world0,
                &mut engine0,
                &mut rec0,
                &mut sink0,
                &mut sampler0,
                end,
                std::mem::take(&mut routed[0]),
            );
            compute0_s += t_compute.elapsed().as_secs_f64();
            let mut outs: Vec<Option<EpochOut>> = (0..shards).map(|_| None).collect();
            outs[0] = Some(out0);
            let t_barrier = std::time::Instant::now();
            for _ in 1..shards {
                let out = out_rx.recv().expect("shard worker alive");
                let s = out.shard;
                outs[s] = Some(out);
            }
            profile.barrier_stall_s += t_barrier.elapsed().as_secs_f64();
            profile.epochs += 1;
            let mut logs: Vec<EpochLog<Ev>> = Vec::with_capacity(shards);
            let mut notes: Vec<Vec<MetricNote>> = Vec::with_capacity(shards);
            let mut note_ends: Vec<Vec<u32>> = Vec::with_capacity(shards);
            let mut epoch_max = 0u64;
            let mut epoch_total = 0u64;
            for (s, out) in outs.into_iter().enumerate() {
                let out = out.expect("one epoch result per shard");
                debug_assert_eq!(out.shard, s);
                next_times[s] = out.next;
                let count = out.log.processed() as u64;
                epoch_max = epoch_max.max(count);
                epoch_total += count;
                logs.push(out.log);
                notes.push(out.notes);
                note_ends.push(out.note_ends);
            }
            if epoch_total > 0 {
                let mean = epoch_total as f64 / shards as f64;
                let ratio = epoch_max as f64 / mean;
                imbalance_sum += ratio;
                imbalance_epochs += 1;
            }

            // Barrier: replay this epoch's events in canonical serial
            // order, folding each one's queued side effects into the
            // collector.
            let mut entry_cursor = vec![0usize; shards];
            let mut note_cursor = vec![0usize; shards];
            let t_merge = std::time::Instant::now();
            let replay = merge.replay(logs, |s, time| {
                let until = note_ends[s][entry_cursor[s]] as usize;
                entry_cursor[s] += 1;
                while note_cursor[s] < until {
                    match notes[s][note_cursor[s]] {
                        MetricNote::Report(report) => metrics.on_report(time, report),
                        MetricNote::LinkSample { watched, links } => {
                            metrics.sample_links(watched, links);
                        }
                    }
                    note_cursor[s] += 1;
                }
            });
            debug_assert!(
                (0..shards)
                    .all(|s| note_cursor[s] == notes[s].len()
                        && entry_cursor[s] == note_ends[s].len()),
                "replay left notes behind"
            );
            profile.merge_s += t_merge.elapsed().as_secs_f64();
            processed_total += replay.replayed;
            if let Some(t) = replay.last_time {
                sim_end = t;
            }
            for d in replay.deliveries {
                let s = route_shard(&d.event, &shard_of);
                profile.cross_shard_msgs[d.from][s] += 1;
                routed[s].push(d);
            }
        }

        for tx in &to_workers {
            let _ = tx.send(ToWorker::Finish);
        }
        let mut finals: Vec<ShardFinal<R>> = Vec::with_capacity(shards);
        finals.push(finish_shard(0, world0, engine0, rec0, compute0_s));
        for h in handles {
            finals.push(h.join().expect("shard worker panicked"));
        }
        finals.sort_by_key(|f| f.shard);
        let truncated = budget_hit
            && (finals.iter().any(|f| f.pending > 0) || routed.iter().any(|q| !q.is_empty()));
        (finals, truncated)
    });

    profile.epoch_compute_s = finals.iter().map(|f| f.compute_s).sum();
    profile.imbalance_mean = if imbalance_epochs > 0 {
        imbalance_sum / imbalance_epochs as f64
    } else {
        0.0
    };
    let shard_loads: Vec<ShardLoad> = finals
        .iter()
        .map(|f| ShardLoad {
            shard: f.shard,
            events: f.processed,
            queue_peak: f.peak_pending,
            peers: f.peers,
        })
        .collect();
    let outcome = SimOutcome {
        metrics: metrics.summary(),
        events: processed_total,
        sim_end,
        server_bits_served: finals[0].server_bits_served,
        server_tracked_peak: finals[0].tracked_peak,
        shards: shard_loads,
        truncated,
        recording: None,
        profile: Some(profile),
        reports: Vec::new(),
    };
    let recorders = finals.into_iter().map(|f| f.recorder).collect();
    (outcome, recorders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn run(protocol: Protocol, options: &ExperimentOptions) -> SimOutcome {
        RunSpec::new(protocol).options(options.clone()).run()
    }

    fn smoke(protocol: Protocol) -> SimOutcome {
        run(protocol, &configs::smoke_test())
    }

    /// Pins the driver's event layout: `Ev` wraps `Message` plus addressing,
    /// so it tracks the message size budget (see the core layout test). Every
    /// pending event in the calendar queue holds one of these inline.
    #[test]
    fn event_stays_within_size_budget() {
        // PeerMsg is the ceiling: a 40-byte Message plus addressing.
        assert_eq!(std::mem::size_of::<Ev>(), 56);
        // The queue's slab keeps each one in an `Option`, which must fit in
        // the enum's spare tag values.
        assert_eq!(std::mem::size_of::<Option<Ev>>(), 56);
    }

    #[test]
    fn recording_is_invisible_to_the_run() {
        // The bitwise-determinism contract: a run with full recording on
        // is indistinguishable (metrics, event count, drain time) from a
        // plain run for every protocol.
        for p in [Protocol::SocialTube, Protocol::NetTube, Protocol::PaVod] {
            let options = configs::smoke_test();
            let plain = RunSpec::new(p).options(options.clone()).run();
            let recorded = RunSpec::new(p)
                .options(options)
                .with_recorder(socialtube_obs::RecorderConfig::full())
                .run();
            assert_eq!(plain.metrics, recorded.metrics, "{p}: metrics diverged");
            assert_eq!(plain.events, recorded.events, "{p}: event count diverged");
            assert_eq!(plain.sim_end, recorded.sim_end, "{p}: drain time diverged");
            assert!(plain.recording.is_none());
            let recording = recorded.recording.expect("recording requested");
            assert!(recording.snapshot.counter("ev_login") > 0);
            assert!(!recording
                .timeline
                .expect("timeline requested")
                .events()
                .is_empty());
        }
    }

    #[test]
    fn metrics_snapshot_carries_the_resolution_split() {
        let outcome = RunSpec::new(Protocol::SocialTube)
            .options(configs::smoke_test_long())
            .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
            .run();
        let snap = outcome.recording.expect("recording requested").snapshot;
        let (channel, _category, server) = snap.resolution_split().expect("searches resolved");
        // SocialTube's point: most lookups resolve inside the community,
        // not at the server.
        assert!(channel > 0.0, "no channel-overlay resolutions");
        assert!(server < 1.0, "everything fell back to the server");
        let hops = snap.histogram("search_hops").expect("hop histogram");
        assert!(hops.count() > 0);
        assert!(hops.max() >= 1);
    }

    #[test]
    fn recorded_runs_attribute_metrics_per_community() {
        let outcome = RunSpec::new(Protocol::SocialTube)
            .options(configs::smoke_test_long())
            .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
            .run();
        let snap = outcome.recording.expect("recording requested").snapshot;
        let communities: Vec<_> = snap.communities().collect();
        assert!(!communities.is_empty(), "no community slices attributed");
        // Community slices partition the attributed subset of the run-wide
        // totals: their cache-hit sum can never exceed the global counter.
        let sliced_hits: u64 = communities
            .iter()
            .map(|(_, d)| d.counter("cache_hit"))
            .sum();
        assert!(sliced_hits > 0, "no cache hits attributed to a community");
        assert!(sliced_hits <= snap.counter("cache_hit"));
        // At least one community resolved searches and has a hop histogram.
        assert!(
            communities
                .iter()
                .any(|(_, d)| d.histogram("search_hops").is_some_and(|h| h.count() > 0)),
            "no community carries a search-hop histogram"
        );
    }

    #[test]
    fn per_community_slices_agree_between_executors() {
        // Community attribution rides the merge/absorb machinery in the
        // sharded executor; the folded slices must equal the serial ones.
        let options = configs::smoke_test();
        let serial = RunSpec::new(Protocol::SocialTube)
            .options(options.clone())
            .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
            .run();
        let sharded = RunSpec::new(Protocol::SocialTube)
            .options(options)
            .execution(Execution::Sharded { workers: 3 })
            .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
            .run();
        let ss = serial.recording.expect("serial recording").snapshot;
        let hs = sharded.recording.expect("sharded recording").snapshot;
        let serial_slices: Vec<_> = ss.communities().collect();
        let sharded_slices: Vec<_> = hs.communities().collect();
        assert_eq!(serial_slices, sharded_slices, "community slices diverged");
    }

    #[test]
    fn sharded_runs_carry_an_execution_profile() {
        let workers = 3;
        let out = RunSpec::new(Protocol::SocialTube)
            .options(configs::smoke_test())
            .execution(Execution::Sharded { workers })
            .run();
        let profile = out.profile.expect("sharded runs self-profile");
        assert!(profile.epochs > 0, "no epochs counted");
        assert_eq!(profile.cross_shard_msgs.len(), workers);
        assert!(profile.cross_shard_msgs.iter().all(|r| r.len() == workers));
        // Peers talk across communities (inter-cluster links), so some
        // traffic must cross shards.
        assert!(profile.cross_shard_total() > 0, "no cross-shard messages");
        assert!(profile.imbalance_mean >= 1.0, "max/mean ratio below 1");
        assert!(profile.epoch_compute_s >= 0.0);

        let serial = RunSpec::new(Protocol::SocialTube)
            .options(configs::smoke_test())
            .run();
        assert!(serial.profile.is_none(), "serial runs do not self-profile");
    }

    #[test]
    #[should_panic(expected = "sharded executor is pending deletion")]
    fn sharded_runs_refuse_a_script() {
        let (trace, vids) = crate::harness::script::four_peer_trace();
        let mut options = configs::testbed();
        options.workload.script = crate::harness::script::demo_script(&vids);
        RunSpec::new(Protocol::SocialTube)
            .options(options)
            .trace(SharedTrace::new(trace))
            .execution(Execution::Sharded { workers: 2 })
            .run();
    }

    #[test]
    fn shared_trace_run_matches_generated_trace_run() {
        let options = configs::smoke_test();
        let shared = socialtube_trace::generate_shared(&options.trace, options.seed);
        let with_shared = RunSpec::new(Protocol::SocialTube)
            .options(options.clone())
            .trace(shared)
            .run();
        let generated = RunSpec::new(Protocol::SocialTube)
            .options(options.clone())
            .run();
        assert_eq!(with_shared.metrics, generated.metrics);
        assert_eq!(with_shared.events, generated.events);
        assert_eq!(with_shared.sim_end, generated.sim_end);
    }

    #[test]
    fn seed_override_beats_options_seed() {
        let mut options = configs::smoke_test();
        let spec = RunSpec::new(Protocol::PaVod)
            .options(options.clone())
            .seed(7);
        assert_eq!(spec.effective_seed(), 7);
        assert_eq!(spec.protocol(), Protocol::PaVod);
        options.seed = 7;
        let via_override = spec.run();
        let via_options = RunSpec::new(Protocol::PaVod).options(options).run();
        assert_eq!(via_override.metrics, via_options.metrics);
    }

    #[test]
    fn socialtube_smoke_run_completes() {
        let out = smoke(Protocol::SocialTube);
        assert!(!out.truncated, "run hit the event safety valve");
        assert!(out.metrics.playbacks > 0);
        assert!(out.events > 0);
        // Every node watched sessions × videos (smoke config: 2 × 4 = 8).
        let expected = 200 * 2 * 4;
        let got = out.metrics.playbacks;
        assert!(
            (expected as f64 * 0.9..=expected as f64 * 1.01).contains(&(got as f64)),
            "playbacks {got} vs expected {expected}"
        );
        // A session run keeps only the metrics: no report stream, not even
        // an allocated one.
        assert_eq!(out.reports.capacity(), 0);
    }

    #[test]
    fn all_protocols_complete_under_churn() {
        for p in Protocol::ALL {
            let out = smoke(p);
            assert!(out.metrics.playbacks > 0, "{p} produced no playbacks");
            assert!(!out.truncated, "{p} truncated");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = smoke(Protocol::SocialTube);
        let b = smoke(Protocol::SocialTube);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.events, b.events);
        assert_eq!(a.sim_end, b.sim_end);
    }

    /// The tentpole's contract: the sharded executor reconstructs the
    /// serial run bit for bit — every outcome field, not statistically —
    /// across protocols, seeds and shard counts.
    #[test]
    fn sharded_runs_are_bitwise_identical_to_serial() {
        let options = configs::smoke_test();
        for p in [Protocol::SocialTube, Protocol::NetTube, Protocol::PaVod] {
            for seed in [1u64, 7, 1234] {
                let serial = RunSpec::new(p).options(options.clone()).seed(seed).run();
                for workers in [1usize, 2, 4] {
                    let tag = format!("{p} seed={seed} workers={workers}");
                    let sharded = RunSpec::new(p)
                        .options(options.clone())
                        .seed(seed)
                        .execution(Execution::Sharded { workers })
                        .run();
                    assert_eq!(serial.metrics, sharded.metrics, "{tag}: metrics");
                    assert_eq!(serial.events, sharded.events, "{tag}: events");
                    assert_eq!(serial.sim_end, sharded.sim_end, "{tag}: sim_end");
                    assert_eq!(
                        serial.server_bits_served, sharded.server_bits_served,
                        "{tag}: server bits"
                    );
                    assert_eq!(
                        serial.server_tracked_peak, sharded.server_tracked_peak,
                        "{tag}: tracked peak"
                    );
                    assert_eq!(serial.truncated, sharded.truncated, "{tag}: truncated");
                    assert_eq!(sharded.shards.len(), workers, "{tag}: shard count");
                    assert_eq!(
                        sharded.shards.iter().map(|s| s.events).sum::<u64>(),
                        sharded.events,
                        "{tag}: per-shard events sum"
                    );
                    assert_eq!(
                        sharded.shards.iter().map(|s| s.peers).sum::<usize>(),
                        serial.shards[0].peers,
                        "{tag}: per-shard peers sum"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_recording_is_invisible_to_the_run() {
        let options = configs::smoke_test();
        let exec = Execution::Sharded { workers: 2 };
        let plain = RunSpec::new(Protocol::SocialTube)
            .options(options.clone())
            .execution(exec)
            .run();
        let recorded = RunSpec::new(Protocol::SocialTube)
            .options(options)
            .execution(exec)
            .with_recorder(socialtube_obs::RecorderConfig::full())
            .run();
        assert_eq!(plain.metrics, recorded.metrics, "metrics diverged");
        assert_eq!(plain.events, recorded.events, "event count diverged");
        assert_eq!(plain.sim_end, recorded.sim_end, "drain time diverged");
        assert!(plain.recording.is_none());
        let recording = recorded.recording.expect("recording requested");
        assert!(recording.snapshot.counter("ev_login") > 0);
        assert!(!recording
            .timeline
            .expect("timeline requested")
            .events()
            .is_empty());
    }

    #[test]
    fn interest_partition_covers_every_node_and_balances() {
        let options = configs::smoke_test();
        let shared = socialtube_trace::generate_shared(&options.trace, options.seed);
        let users = shared.trace().graph.user_count();
        for shards in [1usize, 2, 4, 7] {
            let shard_of = partition_by_interest(shared.trace(), shards);
            assert_eq!(shard_of.len(), users);
            let mut load = vec![0usize; shards];
            for &s in &shard_of {
                assert!(s < shards, "shard index out of range");
                load[s] += 1;
            }
            assert_eq!(load.iter().sum::<usize>(), users, "every node assigned");
            // Greedy packing of ≤fair-share chunks never puts more than
            // two fair shares on one shard.
            let cap = users.div_ceil(shards).max(1);
            assert!(
                load.iter().all(|&l| l <= 2 * cap),
                "{shards} shards: unbalanced loads {load:?}"
            );
        }
    }

    #[test]
    fn socialtube_beats_pavod_on_peer_bandwidth() {
        let st = smoke(Protocol::SocialTube);
        let pv = smoke(Protocol::PaVod);
        assert!(
            st.metrics.mean_peer_bandwidth > pv.metrics.mean_peer_bandwidth,
            "SocialTube {} <= PA-VoD {}",
            st.metrics.mean_peer_bandwidth,
            pv.metrics.mean_peer_bandwidth
        );
    }

    #[test]
    fn nettube_accumulates_more_links_than_socialtube() {
        // The crossover needs long viewing histories (Fig 15: NetTube is
        // *cheaper* for small m and overtakes SocialTube as m grows).
        let options = configs::smoke_test_long();
        let st = run(Protocol::SocialTube, &options);
        let nt = run(Protocol::NetTube, &options);
        assert!(
            nt.metrics.steady_state_links() > st.metrics.steady_state_links(),
            "NetTube links {} <= SocialTube links {}",
            nt.metrics.steady_state_links(),
            st.metrics.steady_state_links()
        );
    }

    #[test]
    fn pavod_maintains_essentially_no_links() {
        let pv = smoke(Protocol::PaVod);
        assert!(pv.metrics.steady_state_links() < 2.0);
    }

    #[test]
    fn abrupt_failures_do_not_stall_the_system() {
        // Half of all sessions end in crashes: no Leave, no LogOff. The
        // overlays must repair through probing and the runs must still
        // complete every playback.
        let mut options = configs::smoke_test_long();
        options.workload.abrupt_departure_prob = 0.5;
        for p in [Protocol::SocialTube, Protocol::NetTube, Protocol::PaVod] {
            let out = run(p, &options);
            let expected = 150 * 3 * 10;
            assert!(
                out.metrics.playbacks as f64 >= f64::from(expected) * 0.95,
                "{p}: only {} of {expected} playbacks under abrupt churn",
                out.metrics.playbacks
            );
            assert!(!out.truncated, "{p} truncated");
        }
    }

    #[test]
    fn abrupt_failures_leave_link_budget_intact() {
        let mut options = configs::smoke_test_long();
        options.workload.abrupt_departure_prob = 0.7;
        let out = run(Protocol::SocialTube, &options);
        let bound = (options.socialtube.inner_links + options.socialtube.inter_links) as f64;
        for (k, links) in &out.metrics.maintenance_curve {
            assert!(
                *links <= bound + 1e-9,
                "link bound violated after {k} videos: {links}"
            );
        }
        // Crashed providers must not sink peer bandwidth to zero: probing
        // repairs the overlay between sessions.
        assert!(
            out.metrics.mean_peer_bandwidth > 0.3,
            "peer bandwidth collapsed under churn: {}",
            out.metrics.mean_peer_bandwidth
        );
    }

    #[test]
    fn server_backlog_is_recorded_once_per_minute() {
        let out = RunSpec::new(Protocol::PaVod)
            .options(configs::smoke_test())
            .with_recorder(socialtube_obs::RecorderConfig::full())
            .run();
        let timeline = out.recording.expect("recording requested").timeline;
        let samples: Vec<_> = timeline
            .expect("timeline requested")
            .events()
            .iter()
            .filter(|e| e.track == Track::Server && e.name == "backlog_ms")
            .map(|e| (e.ts_us / 60_000_000, e.value))
            .collect();
        assert!(!samples.is_empty(), "no backlog samples taken");
        for w in samples.windows(2) {
            assert!(w[0].0 < w[1].0, "two samples in one minute: {w:?}");
        }
        // PA-VoD stresses the server: some backlog must be visible.
        assert!(
            samples.iter().any(|&(_, ms)| ms > 0),
            "PA-VoD never queued at the server"
        );
    }

    #[test]
    fn server_serves_all_bits_peers_do_not() {
        let out = smoke(Protocol::PaVod);
        // PA-VoD leans on the server heavily: server bits dominate.
        assert!(out.server_bits_served > 0);
        assert!(out.metrics.total_server_bits > out.metrics.total_peer_bits / 2);
    }
}
