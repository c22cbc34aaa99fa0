//! In-process testbed: a full deployment over real sockets, run in
//! protocol time — the PlanetLab experiment.
//!
//! [`Deployment`] owns only the platform half of an experiment: it spawns
//! one daemon per peer plus the server daemon, wires them through the
//! localhost transport with injected latency, and hands protocol reports
//! back as [`NetEvent`]s, every action and report on one protocol-time
//! axis. *What* the nodes do — sessions, off times, video
//! selection — is the caller's workload loop: `net_driver` in
//! `socialtube-experiments`, which fires either the shared
//! `SessionDirector`'s transitions or a fixed script's steps. The
//! platform's parameters are the simulator's own [`NetworkOptions`], and
//! the injected delays come from its latency model under the run's root
//! RNG, so one experiment description gives both platforms the same links.
//!
//! No wall clock decides when anything happens: protocol time advances
//! only inside [`Deployment::recv_until`], in conservative windows (the
//! lookahead argument of `socialtube_sim::shard`). Once every frame sent
//! is queued at its receiver and every report is in the caller's hands,
//! it opens `[m, min(m + latency_min, deadline))`, `m` the earliest input
//! queued anywhere, and each daemon handles its inputs in it, concurrently.
//! None can still arrive: a frame falls due at least `latency_min` after
//! its sender's time, `m` at the earliest.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io;
use std::panic;
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::harness::CommandInterpreter;
use socialtube::{Report, VodPeer, VodServer};
use socialtube_baselines::Peer;
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{NetworkOptions, SimDuration, SimRng, SimTime};

use crate::daemon::{Actor, Command, Daemon, Fabric, Input, Note};
use crate::transport::AddressBook;

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

/// Everything a testbed run produced.
#[derive(Debug)]
pub struct NetOutcome {
    /// Protocol reports with timestamps and link samples, in time order.
    pub events: Vec<NetEvent>,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
}

/// A running testbed deployment: one daemon per peer plus the server, all
/// live on localhost sockets.
///
/// The deployment is pure platform — it delivers user actions to daemons,
/// runs protocol time and surfaces protocol reports; the caller owns the
/// workload loop. Each action is stamped with a protocol time, which must
/// not be before [`now`](Deployment::now), or the call panics. Tear down
/// with [`finish`](Deployment::finish), which drains straggling reports
/// and joins every thread.
#[derive(Debug)]
pub struct Deployment {
    /// Peer daemons by node index, then the server's.
    pub(crate) daemons: Vec<Daemon>,
    /// How far past its earliest input a window may reach: the shortest
    /// injected delay.
    lookahead: SimDuration,
    windows: RefCell<Windows>,
    started: Instant,
}

/// Where protocol time stands between windows.
#[derive(Debug)]
struct Windows {
    notes: Receiver<Note>,
    /// Per daemon, when its earliest queued input falls due ([`IDLE`]: none).
    next: Vec<SimTime>,
    /// Frames sent and not yet queued at their receivers; below zero while
    /// a landing is heard of before its sender's count.
    in_flight: i64,
    /// Every input due before it has been handled.
    now: SimTime,
    /// Reports of the last window the caller has not taken, in time order.
    ready: VecDeque<NetEvent>,
}

/// A due time no input has.
const IDLE: SimTime = SimTime::from_micros(u64::MAX);

impl Windows {
    /// Runs the window ending at `end`: every daemon with an input due
    /// before it handles what it has due before it, concurrently. Returns
    /// once each has reported and every frame sent is queued at its
    /// receiver, with the window's reports ready in time order (among
    /// equal times, by daemon).
    fn run(&mut self, daemons: &[Daemon], end: SimTime) {
        let mut running = 0;
        for (daemon, next) in daemons.iter().zip(&mut self.next) {
            if *next < end {
                *next = IDLE;
                daemon.send(Command::Window(end));
                running += 1;
            }
        }
        let mut reports = vec![Vec::new(); daemons.len()];
        while running > 0 || self.in_flight > 0 {
            let note = self
                .notes
                .recv()
                .expect("a live daemon loop holds a notes sender");
            let (daemon, due) = match note {
                Note::Landed { daemon, due } => {
                    self.in_flight -= 1;
                    (daemon, due)
                }
                Note::Done {
                    daemon,
                    reports: made,
                    sent,
                    next,
                } => {
                    running -= 1;
                    self.in_flight += sent;
                    reports[daemon] = made;
                    (daemon, next.unwrap_or(IDLE))
                }
                Note::Panicked(payload) => panic::resume_unwind(payload),
            };
            self.next[daemon] = self.next[daemon].min(due);
        }
        self.now = end;
        let mut window: Vec<NetEvent> = reports.into_iter().flatten().collect();
        window.sort_by_key(|e| e.time);
        self.ready.extend(window);
    }
}

impl Deployment {
    /// Deploys `peers` (node ids must be dense `0..n`) and `server` as
    /// socket daemons with the bandwidth of `network` and the latency it
    /// gives under `root`. Every listener is bound before the first daemon
    /// starts, so all of them share one immutable address book.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] before binding anything if
    /// [`NetworkOptions::validate`] refuses `network`, if its
    /// `latency_min` is zero (no window could then close), or if
    /// `peers[i]` is not node `i`; and any error from binding sockets or
    /// spawning threads.
    pub fn spawn(
        catalog: Arc<Catalog>,
        peers: Vec<Peer>,
        server: Box<dyn VodServer + Send>,
        network: &NetworkOptions,
        root: &SimRng,
    ) -> io::Result<Deployment> {
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidInput, what);
        network.validate().map_err(invalid)?;
        if network.latency_min == SimDuration::ZERO {
            return Err(invalid("the testbed needs a positive latency_min"));
        }
        if (0..).zip(&peers).any(|(i, p)| p.node() != NodeId::new(i)) {
            return Err(invalid("testbed peers must be nodes 0..n in order"));
        }
        let started = Instant::now();
        let (book, listeners) = AddressBook::bind(peers.len())?;
        let (notes_tx, notes) = mpsc::channel();
        let fabric = Fabric {
            book,
            latency: Arc::new(network.latency_model(root)),
            notes: notes_tx,
        };
        let actors = peers
            .into_iter()
            .map(|peer| (Actor::Peer(peer), network.peer_upload_bps))
            .chain([(
                Actor::Server(server, CommandInterpreter::new(catalog)),
                network.server_bandwidth_bps,
            )]);
        let daemons = actors
            .zip(listeners)
            .enumerate()
            .map(|(slot, ((actor, bps), listener))| {
                Daemon::spawn(actor, slot, listener, bps, fabric.clone())
            })
            .collect::<io::Result<Vec<_>>>()?;
        let windows = Windows {
            notes,
            next: vec![IDLE; daemons.len()],
            in_flight: 0,
            now: SimTime::ZERO,
            ready: VecDeque::new(),
        };
        Ok(Deployment {
            daemons,
            lookahead: network.latency_min,
            windows: RefCell::new(windows),
            started,
        })
    }

    /// Where the next window opens at the earliest: every input due before
    /// it has been handled, and an action may be handed for it or later.
    pub fn now(&self) -> SimTime {
        self.windows.borrow().now
    }

    /// Queues `input` at daemon `daemon`, due at `at`.
    ///
    /// # Panics
    ///
    /// If `at` is before [`now`](Self::now): that time has been run.
    pub(crate) fn queue(&self, daemon: usize, at: SimTime, input: Input) {
        let mut windows = self.windows.borrow_mut();
        let now = windows.now;
        assert!(
            at >= now,
            "an input for {at} was handed after the testbed ran to {now}"
        );
        windows.next[daemon] = windows.next[daemon].min(at);
        self.daemons[daemon].send(Command::Queue(at, input));
    }

    /// Starts a session at `node` at protocol time `at`.
    pub fn login(&self, node: NodeId, at: SimTime) {
        self.queue(node.index(), at, Input::Login);
    }

    /// Ends `node`'s session at protocol time `at`. An `abrupt` end is a
    /// crash: nothing the logout queues leaves the machine, so neighbors
    /// and the server learn of it only through probe timeouts.
    pub fn logout(&self, node: NodeId, abrupt: bool, at: SimTime) {
        self.queue(node.index(), at, Input::Logout { abrupt });
    }

    /// The user at `node` selects `video` at protocol time `at`.
    pub fn watch(&self, node: NodeId, video: VideoId, at: SimTime) {
        self.queue(node.index(), at, Input::Watch(video));
    }

    /// Runs protocol time, window by window, until the next protocol
    /// report; `None` once no report due before `deadline` can still come,
    /// or nothing is pending anywhere.
    pub fn recv_until(&self, deadline: SimTime) -> Option<NetEvent> {
        let mut windows = self.windows.borrow_mut();
        while windows.ready.is_empty() {
            let start = windows.next.iter().copied().min();
            let start = start.filter(|&start| start < deadline)?;
            windows.run(&self.daemons, deadline.min(start + self.lookahead));
        }
        windows.ready.pop_front()
    }

    /// Collects the reports due within `settle` of protocol time past
    /// [`now`](Self::now), tears every daemon down, and packages the
    /// outcome, its events in time order (stable among equal times).
    /// `events` is whatever the caller's workload loop collected so far.
    pub fn finish(self, mut events: Vec<NetEvent>, settle: SimDuration) -> NetOutcome {
        let until = self.now() + settle;
        events.extend(std::iter::from_fn(|| self.recv_until(until)));
        // Stop them all before joining any: shutdowns run in parallel.
        for d in &self.daemons {
            d.shutdown();
        }
        for d in self.daemons {
            d.join();
        }
        events.sort_by_key(|e| e.time);
        NetOutcome {
            events,
            wall_time: self.started.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::{SocialTubeConfig, SocialTubePeer, SocialTubeServer};
    use socialtube_model::CatalogBuilder;

    fn tiny_catalog() -> (Arc<Catalog>, Vec<VideoId>) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let mut vids = Vec::new();
        for i in 0..4 {
            let v = b.add_video(ch, 4, i); // 4 s × 320 kbps = 1.28 Mb
            b.set_views(v, 100 / (u64::from(i) + 1));
            vids.push(v);
        }
        (Arc::new(b.build()), vids)
    }

    #[test]
    fn invalid_configs_are_rejected_before_any_daemon_starts() {
        let (catalog, _) = tiny_catalog();
        let peer = |i| {
            Peer::SocialTube(SocialTubePeer::new(
                NodeId::new(i),
                Arc::clone(&catalog),
                Vec::new(),
                SocialTubeConfig::default(),
            ))
        };
        let broken = |f: fn(&mut NetworkOptions)| {
            let mut network = NetworkOptions::default();
            f(&mut network);
            network
        };
        let cases = [
            (broken(|c| c.peer_upload_bps = 0), Vec::new()),
            (broken(|c| c.server_bandwidth_bps = 0), Vec::new()),
            (
                broken(|c| c.latency_min = c.latency_max + SimDuration::from_millis(1)),
                Vec::new(),
            ),
            (broken(|c| c.latency_min = SimDuration::ZERO), Vec::new()),
            (NetworkOptions::default(), vec![peer(1), peer(0)]),
        ];
        let root = SimRng::seed(7);
        for (config, peers) in cases {
            let server = Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(7)));
            let err = Deployment::spawn(Arc::clone(&catalog), peers, server, &config, &root)
                .expect_err("a broken config must not deploy");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{config:?}: {err}");
        }
    }

    /// A user action for a time the deployment has already run is a bug
    /// in its caller, not lag to absorb.
    #[test]
    #[should_panic(expected = "for t=0.000000s was handed after the testbed ran to t=0.020000s")]
    fn an_action_for_a_time_already_run_panics() {
        let (catalog, vids) = tiny_catalog();
        let node = NodeId::new(0);
        let peer = SocialTubePeer::new(node, Arc::clone(&catalog), Vec::new(), Default::default());
        let server = Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(7)));
        let network = NetworkOptions::default();
        let root = SimRng::seed(7);
        let peers = vec![Peer::SocialTube(peer)];
        let deployment = Deployment::spawn(catalog, peers, server, &network, &root).expect("spawn");
        deployment.login(node, SimTime::ZERO);
        // The login's window ends `latency_min` later.
        let end = SimTime::ZERO + network.latency_min;
        while deployment.recv_until(end).is_some() {}
        assert_eq!(deployment.now(), end);
        deployment.watch(node, vids[0], SimTime::ZERO);
    }

    /// Drives a five-peer deployment through a scripted two-video session
    /// per peer, waiting for each playback before moving on.
    #[test]
    fn five_peer_socialtube_deployment_completes() {
        let (catalog, vids) = tiny_catalog();
        let channel = catalog.channels().next().unwrap().id();
        let peers = (0..5)
            .map(|i| {
                Peer::SocialTube(SocialTubePeer::new(
                    NodeId::new(i),
                    Arc::clone(&catalog),
                    vec![channel],
                    SocialTubeConfig::default(),
                ))
            })
            .collect();
        let server = Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(7)));
        let network = NetworkOptions {
            server_bandwidth_bps: 50_000_000,
            peer_upload_bps: 20_000_000,
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(60),
        };
        let root = SimRng::seed(42);
        let deployment =
            Deployment::spawn(Arc::clone(&catalog), peers, server, &network, &root).expect("spawn");

        let mut events = Vec::new();
        for i in 0..5u32 {
            deployment.login(NodeId::new(i), deployment.now());
        }
        // Two watches per peer, round-robin, each bounded by the watch
        // timeout so a lost playback cannot hang the test.
        for round in 0..2usize {
            for i in 0..5usize {
                let node = NodeId::new(i as u32);
                let video = vids[(round * 5 + i) % vids.len()];
                let now = deployment.now();
                deployment.watch(node, video, now);
                let deadline = now + SimDuration::from_secs(5);
                while let Some(event) = deployment.recv_until(deadline) {
                    let started = matches!(
                        event.report,
                        Report::PlaybackStarted { node: n, video: v, .. }
                            if n == node && v == video
                    );
                    events.push(event);
                    if started {
                        break;
                    }
                }
            }
        }
        for i in 0..5u32 {
            deployment.logout(NodeId::new(i), false, deployment.now());
        }
        let outcome = deployment.finish(events, SimDuration::from_millis(300));

        // 5 peers × 2 videos = 10 playbacks expected.
        let playbacks = outcome
            .events
            .iter()
            .filter(|e| matches!(e.report, Report::PlaybackStarted { .. }))
            .count();
        assert!(
            playbacks >= 8,
            "only {playbacks} playbacks (events: {})",
            outcome.events.len()
        );
    }
}
