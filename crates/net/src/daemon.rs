//! The daemon: OS threads wrapping one sans-IO state machine. A peer and
//! the tracker/origin server run the same listener, readers and event
//! loop; the server is simply the daemon whose index is [`SERVER_INDEX`].
//! The event loop is the one thread that calls the actor, keeps the
//! daemon's pending inputs and writes its outbound sockets. It handles
//! inputs only inside the windows of protocol time the deployment opens,
//! and then exactly those due in the window (see [`crate::testbed`]).

use std::any::Any;
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use socialtube::harness::{CommandInterpreter, PeerSubstrate, ServerSubstrate};
use socialtube::{Message, Outbox, PeerAddr, ServerOutbox, TimerKind, VodPeer, VodServer};
use socialtube_baselines::Peer;
use socialtube_model::{NodeId, VideoId};
use socialtube_sim::{LatencyModel, ServerQueue, SimDuration, SimTime};

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
    pub(crate) notes: Sender<Note>,
}

/// Control and network inputs to a daemon's event loop, each due at a
/// protocol time: a user action at the time its driver scheduled it, a
/// delivery the injected latency after its sender's link finished sending
/// it, a timer its delay after the handler that armed it. Timers never
/// cross the channel; the loop queues them itself. The user actions
/// (`Login`, `Logout`, `Watch`) and timers address peers; a server daemon
/// ignores them. An `abrupt` logout sends nothing the peer queued on its
/// way out.
#[derive(Debug)]
pub(crate) enum Input {
    Deliver { from: u32, msg: Message },
    Timer(TimerKind),
    Login,
    Logout { abrupt: bool },
    Watch(VideoId),
}

/// What a daemon's event loop is told, in the order it is told it.
#[derive(Debug)]
pub(crate) enum Command {
    /// Queue an input, due at a protocol time.
    Queue(SimTime, Input),
    /// Handle every queued input due before this time, then report
    /// [`Note::Done`].
    Window(SimTime),
    /// Stop, dropping whatever is still queued.
    Shutdown,
}

/// What a daemon's threads tell the deployment.
#[derive(Debug)]
pub(crate) enum Note {
    /// A reader queued a delivery at daemon `daemon`, due at `due`.
    Landed { daemon: usize, due: SimTime },
    /// Daemon `daemon` handled every input of a window: the reports it
    /// made, in order, the frames it sent, and when its earliest input
    /// still queued falls due.
    Done {
        daemon: usize,
        reports: Vec<NetEvent>,
        sent: i64,
        next: Option<SimTime>,
    },
    /// A daemon's event loop panicked with this payload.
    Panicked(Box<dyn Any + Send>),
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

    /// Queues `item` to fire at `due`.
    fn push(&mut self, due: SimTime, item: T) {
        self.pending.insert((due, self.next_seq), item);
        self.next_seq += 1;
    }

    /// Removes and returns the earliest pending item with its due time, if
    /// that is before `end`.
    fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, T)> {
        let first = self.pending.first_entry().filter(|e| e.key().0 < end)?;
        let ((due, _), item) = first.remove_entry();
        Some((due, item))
    }

    /// When the earliest pending item falls due.
    fn first_due(&self) -> Option<SimTime> {
        self.pending.first_key_value().map(|(&(due, _), _)| due)
    }
}

/// Handle to a running daemon.
#[derive(Debug)]
pub(crate) struct Daemon {
    commands: Sender<Command>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns a daemon around `actor`, the deployment's daemon number
    /// `slot`, accepting on `listener` (the one the address book lists for
    /// the actor's index): the accept thread with a reader per inbound
    /// connection, and the event loop, whose upload link runs at
    /// `upload_bps`.
    pub(crate) fn spawn(
        actor: Actor,
        slot: usize,
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
        let (commands, command_rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));

        let reader = Reader {
            me,
            slot,
            book: Arc::clone(&fabric.book),
            latency: Arc::clone(&fabric.latency),
            commands: commands.clone(),
            notes: fabric.notes.clone(),
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
            sent: 0,
        };
        let event_loop = std::thread::Builder::new()
            .name(format!("{name}-loop"))
            .spawn(move || {
                let run = || event_loop(actor, slot, &command_rx, net, &fabric);
                // A deployment waits on every daemon it runs: tell it.
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(run)) {
                    let _ = fabric.notes.send(Note::Panicked(payload));
                }
            })?;

        Ok(Daemon {
            commands,
            shutdown,
            addr,
            threads: vec![accept, event_loop],
        })
    }

    /// Hands `command` to the event loop (a no-op once the loop has
    /// exited).
    pub(crate) fn send(&self, command: Command) {
        let _ = self.commands.send(command);
    }

    /// Stops the daemon; what is still queued is dropped. Threads exit
    /// asynchronously.
    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.send(Command::Shutdown);
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
    slot: usize,
    book: Arc<AddressBook>,
    latency: Arc<LatencyModel>,
    commands: Sender<Command>,
    notes: Sender<Note>,
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
    /// `Paced`, and its message is queued at the event loop due the link's
    /// propagation delay (the PlanetLab geography stand-in) after the
    /// sender's link finished sending it, and the deployment is told it
    /// landed; so the socket never waits on the loop. The reader ends early
    /// once the loop has exited.
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
            let input = Input::Deliver { from, msg };
            if self.commands.send(Command::Queue(due, input)).is_err() {
                break;
            }
            let daemon = self.slot;
            let _ = self.notes.send(Note::Landed { daemon, due });
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
/// FIFO pipe. The receiver delivers it a propagation delay after that, so
/// no frame falls due sooner than `latency_min` after `now`. `sent` counts
/// the frames handed to a socket since the last window's report.
struct TcpSubstrate {
    pool: ConnectionPool,
    link: ServerQueue,
    due: DueQueue<Input>,
    now: SimTime,
    sent: i64,
}

impl TcpSubstrate {
    fn send(&mut self, to: u32, done: SimTime, msg: Message) {
        let done = done.as_micros();
        self.sent += i64::from(self.pool.send(to, &Frame::Paced { done, msg }));
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

/// Queues inputs as they come and, for each window, feeds the actor every
/// input due in it, in due order and each at its due time, and drains
/// what it queued; then tells the deployment, as daemon `slot`, what the
/// window made. Stops at `Shutdown`, dropping what is still queued.
///
/// # Panics
///
/// If an input arrives due before the last one handled: the deployment
/// opens a window only once nothing due in it can still arrive, so such an
/// input is a bug, not lag.
fn event_loop(
    mut actor: Actor,
    slot: usize,
    commands: &Receiver<Command>,
    mut net: TcpSubstrate,
    fabric: &Fabric,
) {
    let mut out = Outbox::new();
    let mut server_out = ServerOutbox::new();
    let mut reports = Vec::new();
    for command in commands {
        let end = match command {
            Command::Queue(due, input) => {
                assert!(
                    due >= net.now,
                    "an input due at {due} reached daemon {slot}, whose clock reads {}",
                    net.now
                );
                net.due.push(due, input);
                continue;
            }
            Command::Window(end) => end,
            Command::Shutdown => return,
        };
        while let Some((now, input)) = net.due.pop_before(end) {
            net.now = now;
            match (&mut actor, input) {
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
            let mut emit = |report, links| {
                reports.push(NetEvent {
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
                    interpreter
                        .flush_server(&mut server_out, &mut net, |_, report| emit(report, 0));
                }
            }
        }
        let done = Note::Done {
            daemon: slot,
            reports: std::mem::take(&mut reports),
            sent: std::mem::take(&mut net.sent),
            next: net.due.first_due(),
        };
        if fabric.notes.send(done).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            sent: 0,
        };
        for _ in 0..2 {
            net.bulk(SERVER_INDEX, 100_000, Message::Leave); // 100 ms each
        }
        assert!(net.due.pending.is_empty(), "nothing waits at the sender");
        assert_eq!(net.sent, 2, "both frames counted as sent");
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
        assert_eq!(first, 100_000);
        assert_eq!(done(), first + 100_000);
    }

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// A window fires what is due in it, in due order, and nothing due at
    /// or after its end.
    #[test]
    fn due_queue_fires_in_due_order_and_not_before() {
        let mut queue = DueQueue::new();
        queue.push(at(30), 3);
        queue.push(at(10), 1);
        queue.push(at(20), 2);
        let mut window = |end| std::iter::from_fn(|| queue.pop_before(end)).collect::<Vec<_>>();
        assert_eq!(window(at(30)), [(at(10), 1), (at(20), 2)]);
        assert_eq!(window(at(30)), [], "fired early");
        assert_eq!(window(at(30) + SimDuration::from_micros(1)), [(at(30), 3)]);
        assert_eq!(queue.first_due(), None);
    }

    #[test]
    fn due_queue_keeps_insertion_order_among_equal_due_times() {
        let mut queue = DueQueue::new();
        // Five due times, a hundred entries each.
        for i in 0..500u32 {
            queue.push(at(u64::from(i / 100)), i);
        }
        let fired: Vec<u32> = std::iter::from_fn(|| queue.pop_before(at(5)))
            .map(|(_, i)| i)
            .collect();
        assert_eq!(fired, (0..500).collect::<Vec<_>>());
    }

    /// An entry queued after a later-due one fires first.
    #[test]
    fn due_queue_fires_a_past_due_entry_at_once() {
        let mut queue = DueQueue::new();
        queue.push(at(60_000), "later");
        queue.push(SimTime::ZERO, "late");
        assert_eq!(queue.pop_before(at(1)), Some((SimTime::ZERO, "late")));
        assert_eq!(queue.pop_before(at(1)), None);
    }
}

#[cfg(test)]
mod daemon_tests {
    use super::*;
    use std::io::Write;
    use std::time::Duration;

    use socialtube::{
        LinkKind, Report, RequestId, SocialTubeConfig, SocialTubePeer, SocialTubeServer,
        TransferKind,
    };
    use socialtube_model::{CatalogBuilder, ChannelId};
    use socialtube_sim::{NetworkOptions, SimRng};

    use crate::testbed::Deployment;
    use crate::wire::encode_frame;

    /// An index the one-peer address book does not hold.
    const STRANGER: u32 = 7;

    /// The server's daemon in a one-peer deployment.
    const SERVER: usize = 1;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// One peer + the server over real sockets, 5 ms apart.
    struct OriginAndPeer {
        deployment: Deployment,
        video: VideoId,
        channel: ChannelId,
    }

    fn origin_and_peer() -> OriginAndPeer {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let channel = b.add_channel([cat]);
        let video = b.add_video(channel, 2, 0); // 2 s × 320 kbps
        let catalog = Arc::new(b.build());
        let server = SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(1));
        let peer = Peer::SocialTube(SocialTubePeer::new(
            NodeId::new(0),
            Arc::clone(&catalog),
            vec![channel],
            SocialTubeConfig {
                search_phase_timeout: SimDuration::from_millis(100),
                ..SocialTubeConfig::default()
            },
        ));
        let five = SimDuration::from_millis(5);
        let network = NetworkOptions {
            server_bandwidth_bps: 10_000_000,
            peer_upload_bps: 10_000_000,
            latency_min: five,
            latency_max: five,
        };
        let root = SimRng::seed(0);
        let deployment = Deployment::spawn(catalog, vec![peer], Box::new(server), &network, &root)
            .expect("spawn");
        OriginAndPeer {
            deployment,
            video,
            channel,
        }
    }

    impl OriginAndPeer {
        fn addr(&self, daemon: usize) -> SocketAddr {
            self.deployment.daemons[daemon].addr
        }

        /// The peer watches the video: it must produce a PlaybackStarted
        /// report fed entirely by origin chunks, each arriving exactly once.
        /// Watches at time zero, logs the peer out at ten protocol seconds,
        /// runs one more, tears both daemons down and returns every event
        /// of the run.
        fn fetch_and_join(self) -> Vec<NetEvent> {
            let node = NodeId::new(0);
            let deployment = self.deployment;
            let end = SimTime::ZERO + SimDuration::from_secs(10);
            deployment.watch(node, self.video, SimTime::ZERO);
            deployment.logout(node, false, end);
            let until = end + SimDuration::from_secs(1);
            let seen = std::iter::from_fn(|| deployment.recv_until(until)).collect();
            let seen = deployment.finish(seen).events;

            let playback = seen.iter().find_map(|e| match e.report {
                Report::PlaybackStarted { video, .. } => Some(video),
                _ => None,
            });
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
        net.deployment.login(NodeId::new(0), SimTime::ZERO);
        net.fetch_and_join();
    }

    /// An input is handled at its due time exactly: the server's report of
    /// a request due at 3 ms carries 3 ms.
    #[test]
    fn a_past_due_input_is_handled_at_its_due_time() {
        let net = origin_and_peer();
        let msg = Message::VideoRequest {
            id: RequestId::new(NodeId::new(0), 0),
            video: net.video,
            from_chunk: 0,
            kind: TransferKind::Playback,
        };
        let deployment = net.deployment;
        deployment.queue(SERVER, at(3), Input::Deliver { from: 0, msg });
        let mut events = std::iter::from_fn(|| deployment.recv_until(at(1_000)));
        let served = events.find(|e| matches!(e.report, Report::ServedFromOrigin { .. }));
        assert_eq!(served.expect("the server reports the serve").time, at(3));
        deployment.finish(Vec::new());
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
        net.deployment.login(NodeId::new(0), SimTime::ZERO);
        let request = Message::ConnectRequest {
            kind: LinkKind::Inner,
            channel: Some(net.channel),
            video: None,
        };
        abuse(net.addr(0), SERVER_INDEX, request);
        let events = net.fetch_and_join();
        assert!(
            events.iter().all(|e| e.links == 0),
            "the peer linked to an index outside the address book"
        );

        // Server role: delivered, either VideoRequest would be served and
        // reported, under the stranger's node id or peer 0's.
        let net = origin_and_peer();
        net.deployment.login(NodeId::new(0), SimTime::ZERO);
        let stranger = NodeId::new(STRANGER);
        let request = Message::VideoRequest {
            id: RequestId::new(stranger, 0),
            video: net.video,
            from_chunk: 0,
            kind: TransferKind::Playback,
        };
        abuse(net.addr(SERVER), 0, request);
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

    /// Every link, the server's included, takes 5 ms.
    fn fabric(book: Arc<AddressBook>, notes: Sender<Note>) -> Fabric {
        let d = SimDuration::from_millis(5);
        Fabric {
            book,
            latency: Arc::new(LatencyModel::new(&SimRng::seed(0), d, d)),
            notes,
        }
    }

    /// Peer 0 logs in, accepts a link from neighbor 1 and logs out,
    /// `abrupt`ly or not, each step in a window of its own, run as a
    /// deployment runs one. Returns everything the server and the neighbor
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
        let (notes_tx, notes) = mpsc::channel();
        let peer = Daemon::spawn(
            Actor::Peer(Peer::SocialTube(SocialTubePeer::new(
                NodeId::new(0),
                catalog,
                vec![channel],
                SocialTubeConfig::default(),
            ))),
            0,
            listeners.pop().expect("peer listener"),
            10_000_000,
            fabric(book, notes_tx),
        )
        .expect("peer spawns");
        let window = |end| {
            peer.send(Command::Window(end));
            let done = notes.recv().expect("the peer reports");
            assert!(matches!(done, Note::Done { .. }), "{done:?}");
        };
        peer.send(Command::Queue(SimTime::ZERO, Input::Login));
        window(at(1));
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
            done: at(1).as_micros(),
            msg: request,
        };
        for frame in [Frame::Hello { sender: 1 }, request] {
            link.write_all(&encode_frame(&frame)).expect("peer reads");
        }
        let landed = notes.recv().expect("the request lands");
        assert!(
            matches!(landed, Note::Landed { daemon: 0, due } if due == at(6)),
            "{landed:?}"
        );
        window(at(7));
        assert!(
            matches!(first(&neighbor), Ok(Message::ConnectAccept { .. })),
            "the peer never accepted the link"
        );
        peer.send(Command::Queue(at(7), Input::Logout { abrupt }));
        window(at(8));
        // The stopped daemon closes both connections, so each reader ends
        // once it has read everything the logout sent.
        peer.join();
        for reader in [server_reader, neighbor_reader] {
            reader.join().expect("reader ends at the hang-up");
        }
        (server.try_iter().collect(), neighbor.try_iter().collect())
    }

    /// A `Shutdown` stops the loop at once: a login already due but reached
    /// by no window is dropped, and the subscription update it would send
    /// never leaves.
    #[test]
    fn shutdown_drops_pending_inputs() {
        let catalog = Arc::new(CatalogBuilder::new().build());
        let peer = SocialTubePeer::new(NodeId::new(0), catalog, Vec::new(), Default::default());
        let (book, mut listeners) = AddressBook::bind(1).expect("bind localhost");
        let server = listeners.pop().expect("server listener");
        let fabric = fabric(book, mpsc::channel().0);
        let (commands, command_rx) = mpsc::channel();
        commands
            .send(Command::Queue(SimTime::ZERO, Input::Login))
            .unwrap();
        commands.send(Command::Shutdown).unwrap();
        let net = TcpSubstrate {
            pool: ConnectionPool::new(0, Arc::clone(&fabric.book)),
            link: ServerQueue::new(1_000_000),
            due: DueQueue::new(),
            now: SimTime::ZERO,
            sent: 0,
        };
        event_loop(
            Actor::Peer(Peer::SocialTube(peer)),
            0,
            &command_rx,
            net,
            &fabric,
        );
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
