//! Peer and server daemons: OS threads wrapping the sans-IO state machines.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::harness::{CommandInterpreter, PeerSubstrate, ServerSubstrate};
use socialtube::{Message, Outbox, PeerAddr, Report, ServerOutbox, TimerKind, VodPeer, VodServer};
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{LatencyModel, SimDuration};

use crate::clock::TestbedClock;
use crate::delay::DelayQueue;
use crate::transport::{read_frame, ConnectionPool, Registry, SERVER_INDEX};
use crate::wire::Frame;
use socialtube_sim::SimTime;

/// A protocol observation emitted by a daemon: the report, when it
/// happened, and the emitting peer's link count at that moment (the Fig 18
/// sample).
#[derive(Clone, Copy, Debug)]
pub struct NetEvent {
    /// Protocol time of the event.
    pub time: SimTime,
    /// The report.
    pub report: Report,
    /// Links the emitting peer maintained (0 for server reports).
    pub links: usize,
}

/// Control and network inputs to a peer daemon's event loop.
#[derive(Debug)]
enum PeerInput {
    Deliver { from: PeerAddr, msg: Message },
    Transmit { to: u32, frame: Frame },
    Timer(TimerKind),
    Login,
    Logout,
    Watch(VideoId),
    Shutdown,
}

/// Real-time FIFO link: the wall-clock analogue of the simulator's fluid
/// bandwidth model, used to pace chunk sends.
#[derive(Debug)]
struct RealTimeLink {
    capacity_bps: u64,
    busy_until: Instant,
}

impl RealTimeLink {
    fn new(capacity_bps: u64) -> Self {
        assert!(capacity_bps > 0, "link capacity must be positive");
        Self {
            capacity_bps,
            busy_until: Instant::now(),
        }
    }

    /// Enqueues `bits`; returns when the transfer completes.
    fn transfer(&mut self, now: Instant, bits: u64) -> Instant {
        let start = self.busy_until.max(now);
        let service = Duration::from_secs_f64(bits as f64 / self.capacity_bps as f64);
        self.busy_until = start + service;
        self.busy_until
    }
}

/// Handle to a running peer daemon.
#[derive(Debug)]
pub struct PeerDaemon {
    node: NodeId,
    inputs: Sender<PeerInput>,
    shutdown: Arc<AtomicBool>,
    local_port: u16,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl PeerDaemon {
    /// Spawns a daemon around `peer`: a listener on an ephemeral localhost
    /// port, per-connection reader threads, and the event-loop thread.
    /// Registers the daemon's address in `registry`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        peer: Box<dyn VodPeer + Send>,
        registry: Arc<Registry>,
        latency: Arc<LatencyModel>,
        clock: TestbedClock,
        upload_bps: u64,
        events: Sender<NetEvent>,
    ) -> std::io::Result<PeerDaemon> {
        let node = peer.node();
        let me = node.as_u32();
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        registry.register(me, local_addr);

        let (input_tx, input_rx) = mpsc::channel::<PeerInput>();
        let delays = Arc::new(DelayQueue::spawn(input_tx.clone()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        // Listener: accept connections, spawn a reader per connection.
        // Incoming messages are fed through the delay queue to emulate the
        // link's propagation delay (the PlanetLab geography stand-in)
        // without blocking the socket.
        {
            let delays = Arc::clone(&delays);
            let shutdown = Arc::clone(&shutdown);
            let latency = Arc::clone(&latency);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("peer-{me}-listener"))
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            let Ok(mut stream) = stream else { continue };
                            let _ = stream.set_nodelay(true);
                            let delays = Arc::clone(&delays);
                            let latency = Arc::clone(&latency);
                            std::thread::Builder::new()
                                .name(format!("peer-{me}-reader"))
                                .spawn(move || {
                                    let Ok(Some(Frame::Hello { sender })) = read_frame(&mut stream)
                                    else {
                                        return;
                                    };
                                    let from = if sender == SERVER_INDEX {
                                        PeerAddr::Server
                                    } else {
                                        PeerAddr::Peer(NodeId::new(sender))
                                    };
                                    let delay = Duration::from_micros(
                                        latency.delay(me, sender).as_micros(),
                                    );
                                    while let Ok(Some(frame)) = read_frame(&mut stream) {
                                        if let Frame::Msg(msg) = frame {
                                            delays.schedule(
                                                Instant::now() + delay,
                                                PeerInput::Deliver { from, msg },
                                            );
                                        }
                                    }
                                })
                                .ok();
                        }
                    })?,
            );
        }

        // Event loop.
        {
            let events = events;
            let registry = Arc::clone(&registry);
            let input_tx_loop = input_tx.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("peer-{me}-loop"))
                    .spawn(move || {
                        peer_event_loop(
                            peer,
                            input_rx,
                            input_tx_loop,
                            delays,
                            registry,
                            clock,
                            upload_bps,
                            events,
                            me,
                        );
                    })?,
            );
        }

        Ok(PeerDaemon {
            node,
            inputs: input_tx,
            shutdown,
            local_port: local_addr.port(),
            threads,
        })
    }

    /// This daemon's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The localhost port the daemon listens on.
    pub fn port(&self) -> u16 {
        self.local_port
    }

    /// Starts a session.
    pub fn login(&self) {
        let _ = self.inputs.send(PeerInput::Login);
    }

    /// Ends the session.
    pub fn logout(&self) {
        let _ = self.inputs.send(PeerInput::Logout);
    }

    /// The user selects a video.
    pub fn watch(&self, video: VideoId) {
        let _ = self.inputs.send(PeerInput::Watch(video));
    }

    /// Stops the daemon. Threads exit asynchronously.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.inputs.send(PeerInput::Shutdown);
        // Unblock the accept loop.
        let _ = std::net::TcpStream::connect(("127.0.0.1", self.local_port));
    }

    /// Waits for the event loop to finish (after [`shutdown`]).
    ///
    /// [`shutdown`]: PeerDaemon::shutdown
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The TCP implementation of [`PeerSubstrate`]: control frames go straight
/// to the connection pool; bulk frames are paced through the real-time
/// upload link first; timers ride the daemon's delay queue.
struct TcpPeerSubstrate<'a> {
    pool: &'a ConnectionPool,
    delays: &'a DelayQueue<PeerInput>,
    upload: &'a mut RealTimeLink,
}

impl PeerSubstrate for TcpPeerSubstrate<'_> {
    fn peer_control(&mut self, _from: NodeId, to: NodeId, msg: Message) {
        self.pool.send(to.as_u32(), Frame::Msg(msg));
    }

    fn peer_bulk(&mut self, _from: NodeId, to: NodeId, bits: u64, msg: Message) {
        let due = self.upload.transfer(Instant::now(), bits);
        self.delays.schedule(
            due,
            PeerInput::Transmit {
                to: to.as_u32(),
                frame: Frame::Msg(msg),
            },
        );
    }

    fn to_server(&mut self, _from: NodeId, msg: Message) {
        self.pool.send(SERVER_INDEX, Frame::Msg(msg));
    }

    fn arm_timer(&mut self, _node: NodeId, delay: SimDuration, kind: TimerKind) {
        let due = Instant::now() + Duration::from_micros(delay.as_micros());
        self.delays.schedule(due, PeerInput::Timer(kind));
    }
}

#[allow(clippy::too_many_arguments)]
fn peer_event_loop(
    mut peer: Box<dyn VodPeer + Send>,
    inputs: Receiver<PeerInput>,
    _loopback: Sender<PeerInput>,
    delays: Arc<DelayQueue<PeerInput>>,
    registry: Arc<Registry>,
    clock: TestbedClock,
    upload_bps: u64,
    events: Sender<NetEvent>,
    me: u32,
) {
    let pool = ConnectionPool::new(me, registry);
    let mut upload = RealTimeLink::new(upload_bps);
    let mut out = Outbox::new();
    for input in inputs {
        let now = clock.now();
        match input {
            PeerInput::Deliver { from, msg } => peer.on_message(now, from, msg, &mut out),
            PeerInput::Timer(kind) => peer.on_timer(now, kind, &mut out),
            PeerInput::Login => peer.on_login(now, &mut out),
            PeerInput::Logout => peer.on_logout(now, &mut out),
            PeerInput::Watch(video) => peer.watch(now, video, &mut out),
            PeerInput::Transmit { to, frame } => {
                pool.send(to, frame);
                continue;
            }
            PeerInput::Shutdown => return,
        }
        let mut sub = TcpPeerSubstrate {
            pool: &pool,
            delays: &delays,
            upload: &mut upload,
        };
        CommandInterpreter::flush_peer(peer.node(), &mut out, &mut sub, |_, report| {
            let _ = events.send(NetEvent {
                time: clock.now(),
                report,
                links: peer.link_count(),
            });
        });
    }
}

/// Inputs to the server daemon's event loop.
#[derive(Debug)]
enum ServerInput {
    Deliver { from: NodeId, msg: Message },
    Transmit { to: u32, frame: Frame },
    Shutdown,
}

/// Handle to the running tracker/origin server daemon.
#[derive(Debug)]
pub struct ServerDaemon {
    inputs: Sender<ServerInput>,
    shutdown: Arc<AtomicBool>,
    local_port: u16,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerDaemon {
    /// Spawns the server daemon, registering it as [`SERVER_INDEX`].
    pub fn spawn(
        server: Box<dyn VodServer + Send>,
        catalog: Arc<Catalog>,
        registry: Arc<Registry>,
        latency: Arc<LatencyModel>,
        clock: TestbedClock,
        bandwidth_bps: u64,
        events: Sender<NetEvent>,
    ) -> std::io::Result<ServerDaemon> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        registry.register(SERVER_INDEX, local_addr);

        let (input_tx, input_rx) = mpsc::channel::<ServerInput>();
        let delays = Arc::new(DelayQueue::spawn(input_tx.clone()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let delays_in = Arc::clone(&delays);
            let shutdown = Arc::clone(&shutdown);
            let latency = Arc::clone(&latency);
            threads.push(
                std::thread::Builder::new()
                    .name("server-listener".into())
                    .spawn(move || {
                        for stream in listener.incoming() {
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            let Ok(mut stream) = stream else { continue };
                            let _ = stream.set_nodelay(true);
                            let delays = Arc::clone(&delays_in);
                            let latency = Arc::clone(&latency);
                            std::thread::Builder::new()
                                .name("server-reader".into())
                                .spawn(move || {
                                    let Ok(Some(Frame::Hello { sender })) = read_frame(&mut stream)
                                    else {
                                        return;
                                    };
                                    let delay = Duration::from_micros(
                                        latency.server_delay(sender).as_micros(),
                                    );
                                    while let Ok(Some(frame)) = read_frame(&mut stream) {
                                        if let Frame::Msg(msg) = frame {
                                            delays.schedule(
                                                Instant::now() + delay,
                                                ServerInput::Deliver {
                                                    from: NodeId::new(sender),
                                                    msg,
                                                },
                                            );
                                        }
                                    }
                                })
                                .ok();
                        }
                    })?,
            );
        }

        {
            let delays_loop = Arc::clone(&delays);
            threads.push(
                std::thread::Builder::new()
                    .name("server-loop".into())
                    .spawn(move || {
                        server_event_loop(
                            server,
                            catalog,
                            input_rx,
                            delays_loop,
                            registry,
                            clock,
                            bandwidth_bps,
                            events,
                        );
                    })?,
            );
        }

        Ok(ServerDaemon {
            inputs: input_tx,
            shutdown,
            local_port: local_addr.port(),
            threads,
        })
    }

    /// The localhost port the server listens on.
    pub fn port(&self) -> u16 {
        self.local_port
    }

    /// Stops the daemon.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.inputs.send(ServerInput::Shutdown);
        let _ = std::net::TcpStream::connect(("127.0.0.1", self.local_port));
    }

    /// Waits for the event loop to finish (after [`shutdown`]).
    ///
    /// [`shutdown`]: ServerDaemon::shutdown
    pub fn join(mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The TCP implementation of [`ServerSubstrate`]: control frames go to the
/// pool; every origin chunk is serialized through the server's bounded
/// real-time pipe before transmission.
struct TcpServerSubstrate<'a> {
    pool: &'a ConnectionPool,
    delays: &'a DelayQueue<ServerInput>,
    pipe: &'a mut RealTimeLink,
}

impl ServerSubstrate for TcpServerSubstrate<'_> {
    fn server_control(&mut self, to: NodeId, msg: Message) {
        self.pool.send(to.as_u32(), Frame::Msg(msg));
    }

    fn server_chunk(&mut self, to: NodeId, bits: u64, msg: Message) {
        let due = self.pipe.transfer(Instant::now(), bits);
        self.delays.schedule(
            due,
            ServerInput::Transmit {
                to: to.as_u32(),
                frame: Frame::Msg(msg),
            },
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn server_event_loop(
    mut server: Box<dyn VodServer + Send>,
    catalog: Arc<Catalog>,
    inputs: Receiver<ServerInput>,
    delays: Arc<DelayQueue<ServerInput>>,
    registry: Arc<Registry>,
    clock: TestbedClock,
    bandwidth_bps: u64,
    events: Sender<NetEvent>,
) {
    let pool = ConnectionPool::new(SERVER_INDEX, registry);
    let interpreter = CommandInterpreter::new(catalog);
    let mut pipe = RealTimeLink::new(bandwidth_bps);
    let mut out = ServerOutbox::new();
    for input in inputs {
        match input {
            ServerInput::Deliver { from, msg } => {
                server.on_message(clock.now(), from, msg, &mut out);
            }
            ServerInput::Transmit { to, frame } => {
                pool.send(to, frame);
                continue;
            }
            ServerInput::Shutdown => return,
        }
        let mut sub = TcpServerSubstrate {
            pool: &pool,
            delays: &delays,
            pipe: &mut pipe,
        };
        interpreter.flush_server(&mut out, &mut sub, |_, report| {
            let _ = events.send(NetEvent {
                time: clock.now(),
                report,
                links: 0,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_time_link_paces_transfers() {
        let mut link = RealTimeLink::new(1_000_000); // 1 Mbps
        let now = Instant::now();
        let first = link.transfer(now, 100_000); // 100 ms of service
        let second = link.transfer(now, 100_000);
        assert!(first >= now + Duration::from_millis(95));
        assert!(second >= first + Duration::from_millis(95));
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut link = RealTimeLink::new(1_000_000);
        let past = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        let now = Instant::now();
        let done = link.transfer(now, 1_000);
        assert!(done >= now);
        assert!(done > past);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_link_rejected() {
        RealTimeLink::new(0);
    }
}

#[cfg(test)]
mod daemon_tests {
    use super::*;
    use socialtube::{SocialTubeConfig, SocialTubePeer, SocialTubeServer};
    use socialtube_model::CatalogBuilder;
    use socialtube_sim::SimRng;

    /// One peer + the server over real sockets: a watch must produce a
    /// PlaybackStarted report fed entirely by origin chunks.
    #[test]
    fn single_peer_fetches_from_origin_over_tcp() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category("k");
        let ch = b.add_channel("c", [cat]);
        let video = b.add_video(ch, 2, 0); // 2 s × 320 kbps
        let catalog = Arc::new(b.build());

        let registry = Arc::new(crate::transport::Registry::new());
        let latency = Arc::new(LatencyModel::constant(
            socialtube_sim::SimDuration::from_millis(5),
        ));
        let clock = TestbedClock::start();
        let (events_tx, events_rx) = mpsc::channel();

        let server = ServerDaemon::spawn(
            Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(1))),
            Arc::clone(&catalog),
            Arc::clone(&registry),
            Arc::clone(&latency),
            clock,
            10_000_000,
            events_tx.clone(),
        )
        .expect("server spawns");

        let peer = PeerDaemon::spawn(
            Box::new(SocialTubePeer::new(
                NodeId::new(0),
                Arc::clone(&catalog),
                vec![ch],
                SocialTubeConfig {
                    search_phase_timeout: socialtube_sim::SimDuration::from_millis(100),
                    ..SocialTubeConfig::default()
                },
            )),
            Arc::clone(&registry),
            Arc::clone(&latency),
            clock,
            10_000_000,
            events_tx,
        )
        .expect("peer spawns");

        peer.login();
        peer.watch(video);

        let deadline = std::time::Duration::from_secs(10);
        let mut playback = None;
        let mut chunks = 0;
        let start = Instant::now();
        while start.elapsed() < deadline {
            match events_rx.recv_timeout(std::time::Duration::from_millis(200)) {
                Ok(ev) => match ev.report {
                    Report::PlaybackStarted { video: v, .. } => playback = Some(v),
                    Report::ChunkReceived { .. } => chunks += 1,
                    _ => {}
                },
                Err(_) => {
                    if playback.is_some() && chunks >= 8 {
                        break;
                    }
                }
            }
        }
        peer.logout();
        peer.join();
        server.join();

        assert_eq!(playback, Some(video), "playback never started over TCP");
        assert_eq!(chunks, 8, "all chunks must arrive exactly once");
    }
}
