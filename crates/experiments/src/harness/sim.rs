//! The simulator's substrate: command effects as engine events.

use socialtube::harness::{PeerSubstrate, ServerSubstrate};
use socialtube::{Message, PeerAddr, TimerKind};
use socialtube_model::NodeId;
use socialtube_obs::{HistKind, NullRecorder, Recorder};
use socialtube_sim::{
    EventScheduler, LatencyModel, ServerQueue, SimDuration, SimTime, UploadScheduler,
};

/// Constructors for the engine-event enum a simulation driver schedules.
///
/// [`SimSubstrate`] is generic over the driver's own event type, so the
/// substrate schedules deliveries and timers without knowing the driver's
/// workload events (session transitions and script steps).
pub trait SimEvent: Sized {
    /// A message arriving at a peer.
    fn peer_msg(to: NodeId, from: PeerAddr, msg: Message) -> Self;
    /// A message arriving at the server.
    fn server_msg(from: NodeId, msg: Message) -> Self;
    /// A peer timer firing.
    fn peer_timer(node: NodeId, kind: TimerKind) -> Self;
}

/// The discrete-event implementation of the substrate traits: delivery
/// becomes a scheduled engine event, bandwidth is the fluid approximation.
///
/// * control messages pay propagation delay only;
/// * bulk data first serializes through the sender's
///   [`UploadScheduler`] link (peers) or the server's bounded
///   [`ServerQueue`] pipe (origin chunks), then pays propagation delay;
/// * timers become future engine events.
///
/// Borrows the driver's engine and network models for the duration of one
/// outbox flush; construct it fresh per event with the current virtual
/// `now`.
///
/// The substrate also carries the run's [`Recorder`] so bandwidth-queue
/// waits are observed where they happen and report handlers (which receive
/// the substrate) can feed protocol counters. With the default
/// [`NullRecorder`] every observation compiles away.
///
/// The scheduler is any [`EventScheduler`] — the serial
/// [`Engine`](socialtube_sim::Engine) (the default) or one shard of the
/// sharded executor — so protocol behaviour is a pure function of the
/// scheduling trait and cannot observe which executor is running it.
pub struct SimSubstrate<'a, S, R = NullRecorder> {
    /// The virtual time of the event being processed.
    pub now: SimTime,
    /// The scheduler deliveries are scheduled onto.
    pub engine: &'a mut S,
    /// Pairwise propagation delays.
    pub latency: &'a LatencyModel,
    /// Per-peer fluid upload links.
    pub uploads: &'a mut UploadScheduler,
    /// The server's bounded upload pipe.
    pub server_queue: &'a mut ServerQueue,
    /// The run's observation sink.
    pub recorder: &'a mut R,
    /// One-entry memo over [`LatencyModel::delay`]. Chunk bursts schedule
    /// dozens of deliveries to one destination per flush, and the model's
    /// delay is a pure function of the pair — construct the substrate with
    /// `None` and the first lookup warms it.
    pub delay_memo: Option<(u32, u32, SimDuration)>,
}

impl<S, R> std::fmt::Debug for SimSubstrate<'_, S, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSubstrate")
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<S, R> SimSubstrate<'_, S, R> {
    /// Pairwise delay through the one-entry memo (pairs are symmetric).
    fn pair_delay(&mut self, a: u32, b: u32) -> SimDuration {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some((ca, cb, d)) = self.delay_memo {
            if (ca, cb) == key {
                return d;
            }
        }
        let d = self.latency.delay(key.0, key.1);
        self.delay_memo = Some((key.0, key.1, d));
        d
    }
}

impl<S, R> PeerSubstrate for SimSubstrate<'_, S, R>
where
    S: EventScheduler,
    S::Event: SimEvent,
    R: Recorder,
{
    fn peer_control(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let arrival = self.now + self.pair_delay(from.as_u32(), to.as_u32());
        self.engine
            .schedule_at(arrival, S::Event::peer_msg(to, PeerAddr::Peer(from), msg));
    }

    fn peer_bulk(&mut self, from: NodeId, to: NodeId, bits: u64, msg: Message) {
        let (ready, waited) = self.uploads.upload_timed(from.index(), self.now, bits);
        if R::ENABLED {
            self.recorder
                .observe(HistKind::PeerUploadWaitUs, waited.as_micros());
        }
        let arrival = ready + self.pair_delay(from.as_u32(), to.as_u32());
        self.engine
            .schedule_at(arrival, S::Event::peer_msg(to, PeerAddr::Peer(from), msg));
    }

    fn to_server(&mut self, from: NodeId, msg: Message) {
        let arrival = self.now + self.pair_delay(from.as_u32(), LatencyModel::SERVER);
        self.engine
            .schedule_at(arrival, S::Event::server_msg(from, msg));
    }

    fn arm_timer(&mut self, node: NodeId, delay: SimDuration, kind: TimerKind) {
        self.engine
            .schedule_in(delay, S::Event::peer_timer(node, kind));
    }
}

impl<S, R> ServerSubstrate for SimSubstrate<'_, S, R>
where
    S: EventScheduler,
    S::Event: SimEvent,
    R: Recorder,
{
    fn server_control(&mut self, to: NodeId, msg: Message) {
        let arrival = self.now + self.pair_delay(to.as_u32(), LatencyModel::SERVER);
        self.engine
            .schedule_at(arrival, S::Event::peer_msg(to, PeerAddr::Server, msg));
    }

    fn server_chunk(&mut self, to: NodeId, bits: u64, msg: Message) {
        let (ready, waited) = self.server_queue.serve_timed(self.now, bits);
        if R::ENABLED {
            self.recorder
                .observe(HistKind::ServerQueueWaitUs, waited.as_micros());
        }
        let arrival = ready + self.pair_delay(to.as_u32(), LatencyModel::SERVER);
        self.engine
            .schedule_at(arrival, S::Event::peer_msg(to, PeerAddr::Server, msg));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::harness::CommandInterpreter;
    use socialtube::Outbox;
    use socialtube_sim::Engine;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Peer(NodeId, PeerAddr),
        Server(NodeId),
        Timer(NodeId, TimerKind),
    }

    impl SimEvent for Ev {
        fn peer_msg(to: NodeId, from: PeerAddr, _msg: Message) -> Self {
            Ev::Peer(to, from)
        }
        fn server_msg(from: NodeId, _msg: Message) -> Self {
            Ev::Server(from)
        }
        fn peer_timer(node: NodeId, kind: TimerKind) -> Self {
            Ev::Timer(node, kind)
        }
    }

    struct Fixture {
        engine: Engine<Ev>,
        latency: LatencyModel,
        uploads: UploadScheduler,
        server_queue: ServerQueue,
        recorder: NullRecorder,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                engine: Engine::new(),
                latency: LatencyModel::new(
                    &socialtube_sim::SimRng::seed(0),
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(10),
                ),
                uploads: UploadScheduler::new(4, 1_000_000),
                server_queue: ServerQueue::new(1_000_000),
                recorder: NullRecorder,
            }
        }

        fn substrate(&mut self) -> SimSubstrate<'_, Engine<Ev>> {
            SimSubstrate {
                now: SimTime::ZERO,
                engine: &mut self.engine,
                latency: &self.latency,
                uploads: &mut self.uploads,
                server_queue: &mut self.server_queue,
                recorder: &mut self.recorder,
                delay_memo: None,
            }
        }
    }

    #[test]
    fn control_messages_pay_latency_only() {
        let mut fx = Fixture::new();
        let mut out = Outbox::new();
        out.to_peer(NodeId::new(1), Message::LogOff);
        CommandInterpreter::flush_peer(NodeId::new(0), &mut out, &mut fx.substrate(), |_, _| {});
        let (t, ev) = fx.engine.next_event().expect("delivery scheduled");
        assert_eq!(t, SimTime::ZERO + SimDuration::from_millis(10));
        assert_eq!(ev, Ev::Peer(NodeId::new(1), PeerAddr::Peer(NodeId::new(0))));
    }

    #[test]
    fn bulk_serializes_through_the_upload_link() {
        let mut fx = Fixture::new();
        let mut out = Outbox::new();
        let id = socialtube::RequestId::new(NodeId::new(0), 0);
        // 1 Mbit over a 1 Mbps link = 1 s of serialization + 10 ms latency.
        out.to_peer(
            NodeId::new(1),
            Message::ChunkData {
                id,
                video: socialtube_model::VideoId::new(0),
                chunk: 0,
                bits: 1_000_000,
                kind: socialtube::TransferKind::Playback,
            },
        );
        CommandInterpreter::flush_peer(NodeId::new(0), &mut out, &mut fx.substrate(), |_, _| {});
        let (t, _) = fx.engine.next_event().expect("delivery scheduled");
        assert_eq!(
            t,
            SimTime::ZERO + SimDuration::from_secs(1) + SimDuration::from_millis(10)
        );
    }

    #[test]
    fn timers_become_future_engine_events() {
        let mut fx = Fixture::new();
        let mut out = Outbox::new();
        out.timer(SimDuration::from_secs(5), TimerKind::ProbeTick);
        CommandInterpreter::flush_peer(NodeId::new(2), &mut out, &mut fx.substrate(), |_, _| {});
        let (t, ev) = fx.engine.next_event().expect("timer scheduled");
        assert_eq!(t, SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(ev, Ev::Timer(NodeId::new(2), TimerKind::ProbeTick));
    }
}
