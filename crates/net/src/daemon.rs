//! The daemon: OS threads wrapping one sans-IO state machine. A peer and
//! the tracker/origin server run the same listener, readers and event
//! loop; the server is simply the daemon whose index is [`SERVER_INDEX`].
//! The event loop is the one thread that calls the actor, keeps the
//! daemon's pending inputs and writes its outbound sockets.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use socialtube::harness::{CommandInterpreter, PeerSubstrate, ServerSubstrate};
use socialtube::{Message, Outbox, PeerAddr, ServerOutbox, TimerKind, VodPeer, VodServer};
use socialtube_baselines::Peer;
use socialtube_model::{NodeId, VideoId};
use socialtube_sim::{LatencyModel, ServerQueue, SimDuration, SimTime};

use crate::clock::TestbedClock;
use crate::testbed::NetEvent;
use crate::transport::{read_frame, AddressBook, ConnectionPool, SERVER_INDEX};
use crate::wire::Frame;

/// The state machine a daemon runs.
#[allow(clippy::large_enum_variant)] // one per daemon, moved once into its loop
pub(crate) enum Actor {
    Peer(Peer),
    /// The interpreter expands the server's `ServeChunks` out of the catalog.
    Server(Box<dyn VodServer + Send>, CommandInterpreter),
}

/// Everything a daemon shares with the rest of its deployment.
#[derive(Clone)]
pub(crate) struct Fabric {
    pub(crate) book: Arc<AddressBook>,
    pub(crate) latency: Arc<LatencyModel>,
    pub(crate) clock: TestbedClock,
    pub(crate) events: Sender<NetEvent>,
    /// Inputs that reached a loop after it had handled a later-due one.
    pub(crate) late: Arc<AtomicU64>,
}

/// Control and network inputs to a daemon's event loop, each due at a
/// protocol time: a user action at the time its driver scheduled it, a
/// delivery the injected latency after its sender's link finished sending
/// it, a timer its delay after the handler that armed it. Timers never
/// cross the channel; the loop queues them itself. The user actions
/// (`Login`, `Logout`, `Watch`) and timers address peers; a server daemon
/// ignores them. An `abrupt` logout sends nothing the peer queued on its
/// way out. `Shutdown` is due when it is sent.
#[derive(Debug)]
pub(crate) enum Input {
    Deliver { from: u32, msg: Message },
    Timer(TimerKind),
    Login,
    Logout { abrupt: bool },
    Watch(VideoId),
    Shutdown,
}

/// A daemon's pending inputs, fired in order of due time and, among equal
/// due times, of insertion. What is still pending when the loop stops is
/// dropped with it.
#[derive(Debug)]
struct DueQueue<T> {
    pending: BTreeMap<(SimTime, u64), T>,
    next_seq: u64,
}

impl<T> DueQueue<T> {
    fn new() -> Self {
        Self {
            pending: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Queues `item` to fire at `due` (at once if that has passed).
    fn push(&mut self, due: SimTime, item: T) {
        self.pending.insert((due, self.next_seq), item);
        self.next_seq += 1;
    }

    /// Waits until `clock` reaches the earliest pending item's due time and
    /// returns the item with it, moving whatever arrives on `inputs`
    /// meanwhile into the queue first; `None` once every sender is gone.
    fn next(
        &mut self,
        inputs: &Receiver<(SimTime, T)>,
        clock: &TestbedClock,
    ) -> Option<(SimTime, T)> {
        loop {
            let arrived = match self.pending.first_key_value() {
                Some((&(due, _), _)) => inputs.recv_timeout(clock.until(due)),
                None => inputs.recv().map_err(|_| RecvTimeoutError::Disconnected),
            };
            match arrived {
                Ok((due, item)) => self.push(due, item),
                Err(RecvTimeoutError::Timeout) => {
                    return self.pending.pop_first().map(|((due, _), item)| (due, item))
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// Handle to a running daemon.
#[derive(Debug)]
pub(crate) struct Daemon {
    inputs: Sender<(SimTime, Input)>,
    clock: TestbedClock,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns a daemon around `actor`, accepting on `listener` (the one the
    /// address book lists for the actor's index): the accept thread with a
    /// reader per inbound connection, and the event loop, whose upload link
    /// runs at `upload_bps`.
    pub(crate) fn spawn(
        actor: Actor,
        listener: TcpListener,
        upload_bps: u64,
        fabric: Fabric,
    ) -> io::Result<Daemon> {
        let (me, name) = match &actor {
            Actor::Peer(peer) => (
                peer.node().as_u32(),
                format!("peer-{}", peer.node().index()),
            ),
            Actor::Server(..) => (SERVER_INDEX, "server".to_owned()),
        };
        let addr = listener.local_addr()?;
        let (inputs, input_rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));

        let reader = Reader {
            me,
            book: Arc::clone(&fabric.book),
            latency: Arc::clone(&fabric.latency),
            inputs: inputs.clone(),
        };
        let stop = Arc::clone(&shutdown);
        let accept = std::thread::Builder::new()
            .name(format!("{name}-listener"))
            .spawn(move || accept_loop(&listener, &stop, &reader))?;

        let net = TcpSubstrate {
            pool: ConnectionPool::new(me, Arc::clone(&fabric.book)),
            link: ServerQueue::new(upload_bps),
            due: DueQueue::new(),
            now: SimTime::ZERO,
        };
        let clock = fabric.clock;
        let event_loop = std::thread::Builder::new()
            .name(format!("{name}-loop"))
            .spawn(move || event_loop(actor, input_rx, net, &fabric))?;

        Ok(Daemon {
            inputs,
            clock,
            shutdown,
            addr,
            threads: vec![accept, event_loop],
        })
    }

    /// Queues `input` for the event loop, due at protocol time `due` (a
    /// no-op once the loop has exited).
    pub(crate) fn send(&self, due: SimTime, input: Input) {
        let _ = self.inputs.send((due, input));
    }

    /// Stops the daemon, once it has handled what is due by now. Threads
    /// exit asynchronously.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.send(self.clock.now(), Input::Shutdown);
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
    }

    /// Stops the daemon and waits for its accept and event-loop threads.
    pub(crate) fn join(self) {
        self.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// What a reader thread needs to turn one inbound connection into delayed
/// [`Input::Deliver`]s.
#[derive(Clone)]
struct Reader {
    me: u32,
    book: Arc<AddressBook>,
    latency: Arc<LatencyModel>,
    inputs: Sender<(SimTime, Input)>,
}

/// Accepts connections until shutdown, one reader thread per connection.
fn accept_loop(listener: &TcpListener, shutdown: &AtomicBool, reader: &Reader) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let reader = reader.clone();
        // A reader ends with its connection: when the remote writer hangs
        // up, or here, when the remote sends something this daemon must not
        // act on. Neither touches the daemon's other connections.
        let _ = std::thread::Builder::new()
            .name(format!("reader-{}", reader.me))
            .spawn(move || {
                if let Err(e) = reader.run(stream) {
                    eprintln!("daemon {}: dropped an inbound connection: {e}", reader.me);
                }
            });
    }
}

impl Reader {
    /// Reads one connection to its end. The first frame must be a `Hello`
    /// from another index of the address book; every later frame must be
    /// `Paced`, and its message goes to the event loop due the link's
    /// propagation delay (the PlanetLab geography stand-in) after the
    /// sender's link finished sending it, so the socket never waits on the
    /// loop. The reader ends early once the loop has exited.
    ///
    /// # Errors
    ///
    /// Socket errors, malformed or truncated frames, a missing or
    /// unacceptable `Hello`, any later frame but `Paced`: each ends the
    /// connection.
    fn run(&self, mut stream: TcpStream) -> io::Result<()> {
        let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
        let from = match read_frame(&mut stream)? {
            None => return Ok(()),
            Some(Frame::Hello { sender })
                if sender != self.me && self.book.lookup(sender).is_some() =>
            {
                sender
            }
            Some(other) => {
                return Err(invalid(format!(
                    "expected a Hello from a known index, got {other:?}"
                )))
            }
        };
        // `SERVER_INDEX == LatencyModel::SERVER` and delays are symmetric,
        // so one lookup covers peer↔peer and both directions of peer↔server.
        let delay = self.latency.delay(self.me, from);
        while let Some(frame) = read_frame(&mut stream)? {
            let Frame::Paced { done, msg } = frame else {
                return Err(invalid(format!("{frame:?} after the handshake")));
            };
            let due = SimTime::from_micros(done) + delay;
            if self
                .inputs
                .send((due, Input::Deliver { from, msg }))
                .is_err()
            {
                break;
            }
        }
        Ok(())
    }
}

/// The TCP implementation of [`PeerSubstrate`] and [`ServerSubstrate`],
/// at the protocol time `now` of the input being handled, as the
/// simulator's substrate is: every frame goes straight to the connection
/// pool, and timers wait in the loop's due queue, due `now` plus their
/// delay. Each frame carries the time its sender finished sending it:
/// `now` for a control message, and for a bulk one (a peer or origin
/// chunk) its completion on the daemon's upload link, the simulator's
/// FIFO pipe. The receiver delivers it a propagation delay after that —
/// wherever either loop's scheduling lag puts the socket write and read.
struct TcpSubstrate {
    pool: ConnectionPool,
    link: ServerQueue,
    due: DueQueue<Input>,
    now: SimTime,
}

impl TcpSubstrate {
    fn send(&mut self, to: u32, done: SimTime, msg: Message) {
        let done = done.as_micros();
        self.pool.send(to, &Frame::Paced { done, msg });
    }

    fn bulk(&mut self, to: u32, bits: u64, msg: Message) {
        let done = self.link.serve(self.now, bits);
        self.send(to, done, msg);
    }
}

impl PeerSubstrate for TcpSubstrate {
    fn peer_control(&mut self, _from: NodeId, to: NodeId, msg: Message) {
        self.send(to.as_u32(), self.now, msg);
    }

    fn peer_bulk(&mut self, _from: NodeId, to: NodeId, bits: u64, msg: Message) {
        self.bulk(to.as_u32(), bits, msg);
    }

    fn to_server(&mut self, _from: NodeId, msg: Message) {
        self.send(SERVER_INDEX, self.now, msg);
    }

    fn arm_timer(&mut self, _node: NodeId, delay: SimDuration, kind: TimerKind) {
        self.due.push(self.now + delay, Input::Timer(kind));
    }
}

impl ServerSubstrate for TcpSubstrate {
    fn server_control(&mut self, to: NodeId, msg: Message) {
        self.send(to.as_u32(), self.now, msg);
    }

    fn server_chunk(&mut self, to: NodeId, bits: u64, msg: Message) {
        self.bulk(to.as_u32(), bits, msg);
    }
}

/// Feeds inputs to the actor as they fall due and drains what it queued,
/// until `Shutdown`; inputs still pending then are dropped. Each input is
/// handled at its due time, or at the last one handled if that is later:
/// the daemon's protocol clock never runs backwards, and such a late input
/// is counted.
fn event_loop(
    mut actor: Actor,
    inputs: Receiver<(SimTime, Input)>,
    mut net: TcpSubstrate,
    fabric: &Fabric,
) {
    let mut out = Outbox::new();
    let mut server_out = ServerOutbox::new();
    while let Some((due, input)) = net.due.next(&inputs, &fabric.clock) {
        if due < net.now && !matches!(input, Input::Shutdown) {
            fabric.late.fetch_add(1, Ordering::Relaxed);
        }
        net.now = std::cmp::max(net.now, due);
        let now = net.now;
        match (&mut actor, input) {
            (_, Input::Shutdown) => return,
            (Actor::Peer(peer), Input::Deliver { from, msg }) => {
                let from = match from {
                    SERVER_INDEX => PeerAddr::Server,
                    index => PeerAddr::Peer(NodeId::new(index)),
                };
                peer.on_message(now, from, msg, &mut out);
            }
            (Actor::Peer(peer), Input::Timer(kind)) => peer.on_timer(now, kind, &mut out),
            (Actor::Peer(peer), Input::Login) => peer.on_login(now, &mut out),
            (Actor::Peer(peer), Input::Logout { abrupt }) => {
                peer.on_logout(now, &mut out);
                if abrupt {
                    // The process died before any goodbye left the machine.
                    out.drain();
                    continue;
                }
            }
            (Actor::Peer(peer), Input::Watch(video)) => peer.watch(now, video, &mut out),
            (Actor::Server(server, _), Input::Deliver { from, msg }) => {
                server.on_message(now, NodeId::new(from), msg, &mut server_out);
            }
            (Actor::Server(..), _) => continue,
        }
        let emit = |report, links| {
            let _ = fabric.events.send(NetEvent {
                time: now,
                report,
                links,
            });
        };
        match &actor {
            Actor::Peer(peer) => {
                CommandInterpreter::flush_peer(peer.node(), &mut out, &mut net, |_, report| {
                    emit(report, peer.link_count());
                });
            }
            Actor::Server(_, interpreter) => {
                interpreter.flush_server(&mut server_out, &mut net, |_, report| emit(report, 0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Bulk sends queue FIFO behind one another on the upload link, go out
    /// at once, and each carries its completion in protocol time.
    #[test]
    fn bulk_sends_are_paced_fifo_on_the_testbed_clock() {
        let (book, mut listeners) = AddressBook::bind(1).expect("bind localhost");
        let server = listeners.pop().expect("server listener");
        let mut net = TcpSubstrate {
            pool: ConnectionPool::new(0, book),
            link: ServerQueue::new(1_000_000), // 1 Mbps
            due: DueQueue::new(),
            now: SimTime::ZERO,
        };
        for _ in 0..2 {
            net.bulk(SERVER_INDEX, 100_000, Message::Leave); // 100 ms each
        }
        assert!(net.due.pending.is_empty(), "nothing waits at the sender");
        let (mut stream, _) = server.accept().expect("the sends went out");
        let mut frame = || read_frame(&mut stream).unwrap().expect("a frame");
        assert_eq!(frame(), Frame::Hello { sender: 0 });
        let mut done = || match frame() {
            Frame::Paced {
                done,
                msg: Message::Leave,
            } => done,
            other => panic!("expected a paced Leave, got {other:?}"),
        };
        let first = done();
        assert!(first >= 100_000);
        assert!(done() >= first + 100_000);
    }

    #[test]
    fn due_queue_fires_in_due_order_and_not_before() {
        let (tx, rx) = mpsc::channel();
        let mut queue = DueQueue::new();
        let clock = TestbedClock::start();
        let now = clock.now();
        let at = |ms| now + SimDuration::from_millis(ms);
        queue.push(at(30), 3);
        tx.send((at(10), 1)).unwrap();
        queue.push(at(20), 2);
        let fired: Vec<_> = (0..3).map(|_| queue.next(&rx, &clock).unwrap()).collect();
        assert_eq!(fired, [(at(10), 1), (at(20), 2), (at(30), 3)]);
        assert!(clock.now() >= at(30), "fired early");
    }

    #[test]
    fn due_queue_keeps_insertion_order_among_equal_due_times() {
        let (tx, rx) = mpsc::channel();
        let mut queue = DueQueue::new();
        let clock = TestbedClock::start();
        let now = clock.now();
        // Five due times, a hundred entries each, half pushed by the loop
        // and half arriving on the channel.
        for i in 0..500u32 {
            let due = now + SimDuration::from_millis(u64::from(i / 100));
            if i % 100 < 50 {
                queue.push(due, i);
            } else {
                tx.send((due, i)).unwrap();
            }
        }
        let fired: Vec<u32> = (0..500)
            .map(|_| queue.next(&rx, &clock).unwrap().1)
            .collect();
        assert_eq!(fired, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn due_queue_fires_a_past_due_entry_at_once() {
        let (_tx, rx) = mpsc::channel();
        let mut queue = DueQueue::new();
        let clock = TestbedClock::start();
        std::thread::sleep(Duration::from_millis(2));
        let now = clock.now();
        queue.push(now + SimDuration::from_secs(60), "later");
        queue.push(SimTime::ZERO, "late");
        assert_eq!(queue.next(&rx, &clock), Some((SimTime::ZERO, "late")));
        assert!(clock.now() < now + SimDuration::from_secs(1));
    }
}

#[cfg(test)]
mod daemon_tests {
    use super::*;
    use std::io::Write;
    use std::time::{Duration, Instant};

    use socialtube::{
        LinkKind, Report, RequestId, SocialTubeConfig, SocialTubePeer, SocialTubeServer,
        TransferKind,
    };
    use socialtube_model::{CatalogBuilder, ChannelId};
    use socialtube_sim::SimRng;

    use crate::wire::encode_frame;

    /// Every link, the server's included, takes 5 ms.
    fn constant_latency() -> LatencyModel {
        let d = SimDuration::from_millis(5);
        LatencyModel::new(&SimRng::seed(0), d, d)
    }

    /// An index the one-peer address book does not hold.
    const STRANGER: u32 = 7;

    impl Daemon {
        /// Queues `input` due at the current protocol time.
        fn send_now(&self, input: Input) {
            self.send(self.clock.now(), input);
        }
    }

    fn fabric(book: Arc<AddressBook>, events: Sender<NetEvent>) -> Fabric {
        Fabric {
            book,
            latency: Arc::new(constant_latency()),
            clock: TestbedClock::start(),
            events,
            late: Arc::default(),
        }
    }

    /// One peer + the server over real sockets, 5 ms apart.
    struct OriginAndPeer {
        server: Daemon,
        peer: Daemon,
        events: Receiver<NetEvent>,
        late: Arc<AtomicU64>,
        video: VideoId,
        channel: ChannelId,
    }

    fn origin_and_peer() -> OriginAndPeer {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let channel = b.add_channel([cat]);
        let video = b.add_video(channel, 2, 0); // 2 s × 320 kbps
        let catalog = Arc::new(b.build());

        let (book, mut listeners) = AddressBook::bind(1).expect("bind localhost");
        let (events_tx, events) = mpsc::channel();
        let fabric = fabric(book, events_tx);
        let late = Arc::clone(&fabric.late);
        let server = Daemon::spawn(
            Actor::Server(
                Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(1))),
                CommandInterpreter::new(Arc::clone(&catalog)),
            ),
            listeners.pop().expect("server listener"),
            10_000_000,
            fabric.clone(),
        )
        .expect("server spawns");
        let peer = Daemon::spawn(
            Actor::Peer(Peer::SocialTube(SocialTubePeer::new(
                NodeId::new(0),
                catalog,
                vec![channel],
                SocialTubeConfig {
                    search_phase_timeout: SimDuration::from_millis(100),
                    ..SocialTubeConfig::default()
                },
            ))),
            listeners.pop().expect("peer listener"),
            10_000_000,
            fabric,
        )
        .expect("peer spawns");
        OriginAndPeer {
            server,
            peer,
            events,
            late,
            video,
            channel,
        }
    }

    impl OriginAndPeer {
        /// The peer watches the video: it must produce a PlaybackStarted
        /// report fed entirely by origin chunks, each arriving exactly once.
        /// Tears both daemons down and returns every event seen.
        fn fetch_and_join(self) -> Vec<NetEvent> {
            self.peer.send_now(Input::Watch(self.video));
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut seen = Vec::new();
            let (mut playback, mut chunks) = (None, 0);
            while playback.is_none() || chunks < 8 {
                let left = deadline.saturating_duration_since(Instant::now());
                let Ok(event) = self.events.recv_timeout(left) else {
                    break;
                };
                match event.report {
                    Report::PlaybackStarted { video, .. } => playback = Some(video),
                    Report::ChunkReceived { .. } => chunks += 1,
                    _ => {}
                }
                seen.push(event);
            }
            // A duplicate chunk would trail the eighth.
            seen.extend(self.events.recv_timeout(Duration::from_millis(200)));
            self.peer.send_now(Input::Logout { abrupt: false });
            self.peer.join();
            self.server.join();

            assert_eq!(
                playback,
                Some(self.video),
                "playback never started over TCP"
            );
            let chunks = seen
                .iter()
                .filter(|e| matches!(e.report, Report::ChunkReceived { .. }))
                .count();
            assert_eq!(chunks, 8, "all chunks must arrive exactly once");
            seen
        }
    }

    #[test]
    fn single_peer_fetches_from_origin_over_tcp() {
        let net = origin_and_peer();
        net.peer.send_now(Input::Login);
        net.fetch_and_join();
    }

    /// An input whose due time has passed is handled at that due time, not
    /// when the loop gets to it; one due before an input already handled
    /// is handled at that input's time instead, and counted late.
    #[test]
    fn a_past_due_input_is_handled_at_its_due_time() {
        let net = origin_and_peer();
        std::thread::sleep(Duration::from_millis(20));
        let served_at = |due_ms, request| {
            let msg = Message::VideoRequest {
                id: RequestId::new(NodeId::new(0), request),
                video: net.video,
                from_chunk: 0,
                kind: TransferKind::Playback,
            };
            let due = SimTime::ZERO + SimDuration::from_millis(due_ms);
            net.server.send(due, Input::Deliver { from: 0, msg });
            let mut events =
                std::iter::from_fn(|| net.events.recv_timeout(Duration::from_secs(5)).ok());
            let served = events.find(|e| matches!(e.report, Report::ServedFromOrigin { .. }));
            served.expect("the server reports the serve").time
        };
        let first = SimTime::ZERO + SimDuration::from_millis(3);
        assert_eq!(served_at(3, 0), first);
        assert_eq!(net.late.load(Ordering::Relaxed), 0);
        assert_eq!(served_at(1, 1), first, "the server's clock ran backwards");
        assert_eq!(net.late.load(Ordering::Relaxed), 1);
        net.peer.join();
        net.server.join();
    }

    /// What a socket can carry that a daemon must not act on: each blob goes
    /// over its own connection to `target`. The last two are a well-formed
    /// `message`: unpaced behind a `Hello` from `known`, an index of the
    /// address book, and paced behind one from [`STRANGER`].
    fn abuse(target: SocketAddr, known: u32, message: Message) {
        let hello = encode_frame(&Frame::Hello { sender: known });
        let paced = encode_frame(&Frame::Paced {
            done: 0,
            msg: message.clone(),
        });
        let msg = encode_frame(&Frame::Msg(message));
        let blobs: [Vec<u8>; 6] = [
            vec![0, 0, 0, 3, 0xff, 0xff, 0xff], // garbage payload
            hello[..hello.len() - 1].to_vec(),  // truncated frame
            u32::MAX.to_be_bytes().to_vec(),    // absurd length prefix
            msg.clone(),                        // message before any Hello
            [hello, msg].concat(),              // unpaced message
            [encode_frame(&Frame::Hello { sender: STRANGER }), paced].concat(),
        ];
        for blob in blobs {
            let mut stream = TcpStream::connect(target).expect("daemon accepts");
            stream.write_all(&blob).expect("daemon reads");
        }
    }

    /// The read-loop counterpart of the codec's arbitrary-bytes proptest,
    /// against a peer-role and a server-role daemon: malformed input costs
    /// the connection it arrived on and nothing else, and neither an
    /// unpaced message nor one from an index outside the address book is
    /// ever delivered.
    #[test]
    fn malformed_and_unknown_sender_input_is_dropped_by_both_roles() {
        // Peer role: delivered, the stranger's ConnectRequest would be
        // accepted and show as a link in every later event of the peer.
        let net = origin_and_peer();
        net.peer.send_now(Input::Login);
        let request = Message::ConnectRequest {
            kind: LinkKind::Inner,
            channel: Some(net.channel),
            video: None,
        };
        abuse(net.peer.addr, SERVER_INDEX, request);
        let events = net.fetch_and_join();
        assert!(
            events.iter().all(|e| e.links == 0),
            "the peer linked to an index outside the address book"
        );

        // Server role: delivered, either VideoRequest would be served and
        // reported, under the stranger's node id or peer 0's.
        let net = origin_and_peer();
        net.peer.send_now(Input::Login);
        let stranger = NodeId::new(STRANGER);
        let request = Message::VideoRequest {
            id: RequestId::new(stranger, 0),
            video: net.video,
            from_chunk: 0,
            kind: TransferKind::Playback,
        };
        abuse(net.server.addr, 0, request);
        let events = net.fetch_and_join();
        let served = |n| {
            let served = events
                .iter()
                .filter(|e| matches!(e.report, Report::ServedFromOrigin { node, .. } if node == n));
            served.count()
        };
        assert_eq!(
            served(stranger),
            0,
            "the server served an index outside the address book"
        );
        assert_eq!(
            served(NodeId::new(0)),
            1,
            "the server served an unpaced request"
        );
    }

    /// Every message that reaches `listener`, standing in for a daemon: it
    /// reads one connection's frames until the sender hangs up.
    fn sink(listener: TcpListener) -> (Receiver<Message>, JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("the peer connects");
            while let Ok(Some(frame)) = read_frame(&mut stream) {
                if let Frame::Paced { msg, .. } = frame {
                    let _ = tx.send(msg);
                }
            }
        });
        (rx, reader)
    }

    /// Peer 0 logs in, accepts a link from neighbor 1 and logs out,
    /// `abrupt`ly or not. Returns everything the server and the neighbor
    /// received after that login and link.
    fn goodbyes(abrupt: bool) -> (Vec<Message>, Vec<Message>) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let channel = b.add_channel([cat]);
        let catalog = Arc::new(b.build());
        let (book, mut listeners) = AddressBook::bind(2).expect("bind localhost");
        let (server, server_reader) = sink(listeners.pop().expect("server listener"));
        let (neighbor, neighbor_reader) = sink(listeners.pop().expect("neighbor listener"));
        let first = |end: &Receiver<Message>| end.recv_timeout(Duration::from_secs(5));
        let fabric = fabric(book, mpsc::channel().0);
        let peer = Daemon::spawn(
            Actor::Peer(Peer::SocialTube(SocialTubePeer::new(
                NodeId::new(0),
                catalog,
                vec![channel],
                SocialTubeConfig::default(),
            ))),
            listeners.pop().expect("peer listener"),
            10_000_000,
            fabric,
        )
        .expect("peer spawns");
        peer.send_now(Input::Login);
        assert!(
            matches!(first(&server), Ok(Message::SubscriptionUpdate { .. })),
            "the login never reached the server"
        );
        let mut link = TcpStream::connect(peer.addr).expect("peer accepts");
        let request = Message::ConnectRequest {
            kind: LinkKind::Inner,
            channel: Some(channel),
            video: None,
        };
        let request = Frame::Paced {
            done: 0,
            msg: request,
        };
        for frame in [Frame::Hello { sender: 1 }, request] {
            link.write_all(&encode_frame(&frame)).expect("peer reads");
        }
        assert!(
            matches!(first(&neighbor), Ok(Message::ConnectAccept { .. })),
            "the peer never accepted the link"
        );
        peer.send_now(Input::Logout { abrupt });
        // The stopped daemon closes both connections, so each reader ends
        // once it has read everything the logout sent.
        peer.join();
        for reader in [server_reader, neighbor_reader] {
            reader.join().expect("reader ends at the hang-up");
        }
        (server.try_iter().collect(), neighbor.try_iter().collect())
    }

    /// A `Shutdown` stops the loop at once: a login due in a minute is
    /// dropped, and the subscription update it would send never leaves.
    #[test]
    fn shutdown_drops_pending_inputs() {
        let catalog = Arc::new(CatalogBuilder::new().build());
        let peer = SocialTubePeer::new(NodeId::new(0), catalog, Vec::new(), Default::default());
        let (book, mut listeners) = AddressBook::bind(1).expect("bind localhost");
        let server = listeners.pop().expect("server listener");
        let fabric = fabric(book, mpsc::channel().0);
        let pool = ConnectionPool::new(0, Arc::clone(&fabric.book));
        let mut due = DueQueue::new();
        due.push(SimTime::ZERO + SimDuration::from_secs(60), Input::Login);
        let (inputs, input_rx) = mpsc::channel();
        inputs.send((fabric.clock.now(), Input::Shutdown)).unwrap();
        let start = Instant::now();
        let net = TcpSubstrate {
            pool,
            link: ServerQueue::new(1_000_000),
            due,
            now: SimTime::ZERO,
        };
        event_loop(Actor::Peer(Peer::SocialTube(peer)), input_rx, net, &fabric);
        assert!(start.elapsed() < Duration::from_secs(1), "the loop waited");
        server.set_nonblocking(true).unwrap();
        assert!(server.accept().is_err(), "the pending send went out");
    }

    /// An abrupt logout is a crash: the server sees no `LogOff` and a
    /// linked neighbor no `Leave`. A graceful one sends both.
    #[test]
    fn abrupt_logout_sends_no_goodbyes() {
        let (server, neighbor) = goodbyes(false);
        assert!(server.contains(&Message::LogOff), "server got {server:?}");
        assert!(
            neighbor.contains(&Message::Leave),
            "neighbor got {neighbor:?}"
        );

        let (server, neighbor) = goodbyes(true);
        assert!(!server.contains(&Message::LogOff), "server got {server:?}");
        assert!(
            !neighbor.contains(&Message::Leave),
            "neighbor got {neighbor:?}"
        );
    }
}
