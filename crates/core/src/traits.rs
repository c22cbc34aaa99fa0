//! Sans-IO driver interface: peers and servers as pure state machines.
//!
//! Every protocol implementation (SocialTube here, PA-VoD and NetTube in
//! `socialtube-baselines`) reacts to inputs and emits [`Command`]s into an
//! [`Outbox`]. The *driver* — the discrete-event simulator or the TCP
//! daemons — owns time, delivery, latency and bandwidth. This is what lets
//! one protocol implementation serve both of the paper's evaluation
//! platforms.

use socialtube_model::{ChunkIndex, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimTime};

use crate::messages::{Message, PeerAddr, RequestId};

/// Why a chunk transfer exists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TransferKind {
    /// The user asked to watch this video now.
    Playback,
    /// Speculative first-chunk prefetch (Section IV-B).
    Prefetch,
}

/// Where a chunk (or an instant playback start) came from.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ChunkSource {
    /// Served out of the local cache (full video already present).
    Cache,
    /// Playback started instantly from a prefetched first chunk.
    Prefetched,
    /// Downloaded from another peer.
    Peer,
    /// Downloaded from the central server.
    Server,
}

/// Phase of a SocialTube search (Algorithm 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SearchPhase {
    /// Flooding the channel overlay over inner-links.
    Channel,
    /// Flooding the category cluster over inter-links.
    Category,
    /// Falling back to the server.
    Server,
}

/// Timers a peer can arm; the driver echoes them back at expiry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TimerKind {
    /// Periodic neighbor probing (structure maintenance, Section IV-A).
    ProbeTick,
    /// A probe to `neighbor` went unanswered long enough to declare failure.
    ProbeDeadline {
        /// The probed neighbor.
        neighbor: NodeId,
        /// Nonce carried by the probe.
        nonce: u64,
    },
    /// No query hit arrived in time for this search phase.
    SearchDeadline {
        /// The request being searched.
        id: RequestId,
        /// The phase the deadline belongs to.
        phase: SearchPhase,
    },
    /// A chunk transfer stalled (provider died mid-transfer).
    ChunkDeadline {
        /// The stalled request.
        id: RequestId,
    },
    /// Start prefetching: playback is underway and bandwidth is idle.
    PrefetchKick,
}

/// Effects a peer asks its driver to perform.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Send `msg` to another peer.
    ToPeer {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Send `msg` to the server.
    ToServer {
        /// Payload.
        msg: Message,
    },
    /// Arm `kind` to fire after `delay`.
    Timer {
        /// Delay until expiry.
        delay: SimDuration,
        /// Which timer.
        kind: TimerKind,
    },
    /// Emit a metrics/observability event.
    Report(Report),
}

/// Effects the server asks its driver to perform.
#[derive(Clone, PartialEq, Debug)]
pub enum ServerCommand {
    /// Send a control message to a peer.
    ToPeer {
        /// Destination node.
        to: NodeId,
        /// Payload.
        msg: Message,
    },
    /// Serve video chunks from the origin store through the server's
    /// bounded upload pipe (the driver applies [`ServerQueue`] delays).
    ///
    /// [`ServerQueue`]: socialtube_sim::ServerQueue
    ServeChunks {
        /// Destination node.
        to: NodeId,
        /// Request these chunks answer.
        id: RequestId,
        /// The video to serve.
        video: VideoId,
        /// First chunk to send.
        from_chunk: ChunkIndex,
        /// Playback or prefetch (single chunk).
        kind: TransferKind,
    },
    /// Emit a metrics/observability event.
    Report(Report),
}

/// Observability events consumed by the metrics pipeline.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Report {
    /// Playback of `video` began.
    PlaybackStarted {
        /// The watching node.
        node: NodeId,
        /// The video.
        video: VideoId,
        /// When the user selected the video.
        requested_at: SimTime,
        /// Where the first chunk came from.
        source: ChunkSource,
    },
    /// A chunk finished arriving at `node`.
    ChunkReceived {
        /// The receiving node.
        node: NodeId,
        /// The video.
        video: VideoId,
        /// Payload size in bits.
        bits: u64,
        /// Peer or server origin.
        source: ChunkSource,
        /// Playback or prefetch traffic.
        kind: TransferKind,
    },
    /// A search ran out of P2P options and fell back to the server.
    ServerFallback {
        /// The requesting node.
        node: NodeId,
        /// The video.
        video: VideoId,
    },
    /// The server satisfied a request from its own store.
    ServedFromOrigin {
        /// The requesting node.
        node: NodeId,
        /// The video.
        video: VideoId,
    },
    /// A P2P search found a provider: which tier answered and how many
    /// overlay hops the winning query travelled (the paper's
    /// resolution-split / hop-count quantities).
    SearchResolved {
        /// The searching node.
        node: NodeId,
        /// The video.
        video: VideoId,
        /// The tier that produced the hit (never `Server`; server
        /// resolutions are [`Report::ServerFallback`]).
        phase: SearchPhase,
        /// Hops from the searcher to the provider (direct neighbor = 1).
        hops: u8,
    },
    /// A flooded query arrived with TTL exhausted at a node that could
    /// neither answer nor forward it. Emitted by the *forwarding* node.
    TtlExpired {
        /// The node the query died at.
        node: NodeId,
        /// The video.
        video: VideoId,
    },
    /// A probe deadline expired: `node` declared `neighbor` dead and
    /// evicted it (the overlay-repair event).
    NeighborLost {
        /// The probing node.
        node: NodeId,
        /// The evicted neighbor.
        neighbor: NodeId,
    },
    /// A speculative prefetch search missed the community and was dropped
    /// (prefetches never escalate to the server).
    PrefetchAbandoned {
        /// The prefetching node.
        node: NodeId,
        /// The video.
        video: VideoId,
    },
}

impl Report {
    /// Whether this report is diagnostic instrumentation rather than part
    /// of the playback path.
    ///
    /// Playback-path reports are strictly ordered by the request they
    /// belong to and therefore arrive in the same global order on every
    /// platform; diagnostics can be emitted by *intermediate* nodes
    /// (forwarders, probers), whose activations interleave differently
    /// under wall-clock scheduling. Cross-platform equivalence checks
    /// compare only the non-diagnostic sequence.
    pub fn is_diagnostic(&self) -> bool {
        matches!(
            self,
            Report::SearchResolved { .. }
                | Report::TtlExpired { .. }
                | Report::NeighborLost { .. }
                | Report::PrefetchAbandoned { .. }
        )
    }
}

/// Buffer collecting a peer's commands during one activation.
///
/// # Examples
///
/// ```
/// use socialtube::{Command, Outbox, TimerKind};
/// use socialtube_sim::SimDuration;
///
/// let mut out = Outbox::new();
/// out.timer(SimDuration::from_secs(1), TimerKind::ProbeTick);
/// assert_eq!(out.commands().len(), 1);
/// let drained: Vec<Command> = out.drain().collect();
/// assert!(matches!(drained[0], Command::Timer { .. }));
/// ```
#[derive(Debug, Default)]
pub struct Outbox {
    commands: Vec<Command>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a peer-to-peer message.
    pub fn to_peer(&mut self, to: NodeId, msg: Message) {
        self.commands.push(Command::ToPeer { to, msg });
    }

    /// Queues a message to the server.
    pub fn to_server(&mut self, msg: Message) {
        self.commands.push(Command::ToServer { msg });
    }

    /// Arms a timer.
    pub fn timer(&mut self, delay: SimDuration, kind: TimerKind) {
        self.commands.push(Command::Timer { delay, kind });
    }

    /// Emits a report.
    pub fn report(&mut self, report: Report) {
        self.commands.push(Command::Report(report));
    }

    /// The commands queued so far.
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Drains all queued commands, leaving the outbox empty.
    ///
    /// The backing buffer's capacity is kept: one outbox is reused across
    /// every event of a run, so draining must not hand the allocation back.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Command> {
        self.commands.drain(..)
    }
}

/// Buffer collecting the server's commands during one activation.
#[derive(Debug, Default)]
pub struct ServerOutbox {
    commands: Vec<ServerCommand>,
}

impl ServerOutbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a control message to a peer.
    pub fn to_peer(&mut self, to: NodeId, msg: Message) {
        self.commands.push(ServerCommand::ToPeer { to, msg });
    }

    /// Queues chunk service through the origin store.
    pub fn serve_chunks(
        &mut self,
        to: NodeId,
        id: RequestId,
        video: VideoId,
        from_chunk: ChunkIndex,
        kind: TransferKind,
    ) {
        self.commands.push(ServerCommand::ServeChunks {
            to,
            id,
            video,
            from_chunk,
            kind,
        });
    }

    /// Emits a report.
    pub fn report(&mut self, report: Report) {
        self.commands.push(ServerCommand::Report(report));
    }

    /// The commands queued so far.
    pub fn commands(&self) -> &[ServerCommand] {
        &self.commands
    }

    /// Drains all queued commands, leaving the outbox empty (capacity kept,
    /// as for [`Outbox::drain`]).
    pub fn drain(&mut self) -> std::vec::Drain<'_, ServerCommand> {
        self.commands.drain(..)
    }
}

/// A P2P VoD peer as a pure state machine.
///
/// Implemented by [`SocialTubePeer`](crate::SocialTubePeer) and by the
/// PA-VoD/NetTube peers in `socialtube-baselines`. Drivers must:
///
/// 1. call [`on_login`](VodPeer::on_login) / [`on_logout`](VodPeer::on_logout)
///    at session boundaries,
/// 2. call [`watch`](VodPeer::watch) when the user selects a video,
/// 3. deliver network messages via [`on_message`](VodPeer::on_message) and
///    echo armed timers via [`on_timer`](VodPeer::on_timer),
/// 4. execute every command the peer leaves in the outbox.
pub trait VodPeer {
    /// This peer's node identifier.
    fn node(&self) -> NodeId;

    /// The session begins: rebuild overlay links.
    fn on_login(&mut self, now: SimTime, out: &mut Outbox);

    /// The session ends gracefully: notify neighbors, clear volatile state.
    fn on_logout(&mut self, now: SimTime, out: &mut Outbox);

    /// The user selects `video` to watch.
    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox);

    /// A message arrived from `from`. An offline peer drops it: drivers
    /// deliver without asking [`VodPeer::is_online`] first.
    fn on_message(&mut self, now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox);

    /// A previously armed timer fired.
    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox);

    /// Number of overlay links currently maintained (the Fig 15/18
    /// maintenance-overhead metric).
    fn link_count(&self) -> usize;

    /// Whether the peer is in an online session.
    fn is_online(&self) -> bool;

    /// Whether the peer's cache holds every chunk of `video`.
    fn has_cached(&self, video: VideoId) -> bool;
}

/// The centralized server (tracker + origin store) as a pure state machine.
pub trait VodServer {
    /// A message arrived from peer `from`.
    fn on_message(&mut self, now: SimTime, from: NodeId, msg: Message, out: &mut ServerOutbox);

    /// Number of peers the server currently tracks (scalability metric:
    /// SocialTube tracks channel membership, NetTube per-video overlays).
    fn tracked_entries(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outbox_collects_and_drains() {
        let mut out = Outbox::new();
        out.to_server(Message::LogOff);
        out.report(Report::ServerFallback {
            node: NodeId::new(1),
            video: VideoId::new(2),
        });
        assert_eq!(out.commands().len(), 2);
        assert_eq!(out.drain().count(), 2);
        assert!(out.commands().is_empty());
    }

    #[test]
    fn server_outbox_serves_chunks() {
        let mut out = ServerOutbox::new();
        out.serve_chunks(
            NodeId::new(1),
            RequestId::new(NodeId::new(1), 0),
            VideoId::new(3),
            0,
            TransferKind::Playback,
        );
        assert!(matches!(
            out.commands()[0],
            ServerCommand::ServeChunks { to, .. } if to == NodeId::new(1)
        ));
        out.drain();
        assert!(out.commands().is_empty());
    }

    #[test]
    fn timer_kinds_are_comparable() {
        let a = TimerKind::SearchDeadline {
            id: RequestId::new(NodeId::new(0), 1),
            phase: SearchPhase::Channel,
        };
        let b = TimerKind::SearchDeadline {
            id: RequestId::new(NodeId::new(0), 1),
            phase: SearchPhase::Category,
        };
        assert_ne!(a, b);
    }
}
