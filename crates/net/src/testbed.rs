//! In-process testbed: a full deployment over real sockets, driven in real
//! time — the PlanetLab experiment.
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
//! Video *sizes* come from the catalog; keep them small (short lengths, low
//! bitrate) so transfers complete at wall-clock speed.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use socialtube::harness::CommandInterpreter;
use socialtube::{Report, VodPeer, VodServer};
use socialtube_baselines::Peer;
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{NetworkOptions, SimDuration, SimRng, SimTime};

use crate::clock::TestbedClock;
use crate::daemon::{Actor, Daemon, Fabric, Input};
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
    /// Inputs that reached a daemon after it had handled a later-due one,
    /// and so ran at that one's time instead of their own.
    pub late_inputs: u64,
}

/// A running testbed deployment: one daemon per peer plus the server, all
/// live on localhost sockets.
///
/// The deployment is pure platform — it delivers user actions to daemons
/// and surfaces protocol reports; the caller owns the workload loop. Tear
/// down with [`finish`](Deployment::finish), which drains straggling
/// reports and joins every thread.
#[derive(Debug)]
pub struct Deployment {
    /// Peer daemons by node index, then the server's.
    daemons: Vec<Daemon>,
    events: Receiver<NetEvent>,
    clock: TestbedClock,
    late: Arc<AtomicU64>,
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
    /// [`NetworkOptions::validate`] refuses `network`, or if `peers[i]` is
    /// not node `i`; and any error from binding sockets or spawning
    /// threads.
    pub fn spawn(
        catalog: Arc<Catalog>,
        peers: Vec<Peer>,
        server: Box<dyn VodServer + Send>,
        network: &NetworkOptions,
        root: &SimRng,
    ) -> io::Result<Deployment> {
        let invalid = |what| io::Error::new(io::ErrorKind::InvalidInput, what);
        network.validate().map_err(invalid)?;
        if (0..).zip(&peers).any(|(i, p)| p.node() != NodeId::new(i)) {
            return Err(invalid("testbed peers must be nodes 0..n in order"));
        }
        let clock = TestbedClock::start();
        let (book, listeners) = AddressBook::bind(peers.len())?;
        let (events_tx, events) = mpsc::channel::<NetEvent>();
        let fabric = Fabric {
            book,
            latency: Arc::new(network.latency_model(root)),
            clock,
            events: events_tx,
            late: Arc::default(),
        };
        let late = Arc::clone(&fabric.late);
        let actors = peers
            .into_iter()
            .map(|peer| (Actor::Peer(peer), network.peer_upload_bps))
            .chain([(
                Actor::Server(server, CommandInterpreter::new(catalog)),
                network.server_bandwidth_bps,
            )]);
        let daemons = actors
            .zip(listeners)
            .map(|((actor, bps), listener)| Daemon::spawn(actor, listener, bps, fabric.clone()))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Deployment {
            daemons,
            events,
            clock,
            late,
        })
    }

    /// The current protocol time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Starts a session at `node` at protocol time `at`.
    pub fn login(&self, node: NodeId, at: SimTime) {
        self.daemons[node.index()].send(at, Input::Login);
    }

    /// Ends `node`'s session at protocol time `at`. An `abrupt` end is a
    /// crash: nothing the logout queues leaves the machine, so neighbors
    /// and the server learn of it only through probe timeouts.
    pub fn logout(&self, node: NodeId, abrupt: bool, at: SimTime) {
        self.daemons[node.index()].send(at, Input::Logout { abrupt });
    }

    /// The user at `node` selects `video` at protocol time `at`.
    pub fn watch(&self, node: NodeId, video: VideoId, at: SimTime) {
        self.daemons[node.index()].send(at, Input::Watch(video));
    }

    /// Waits until protocol time `deadline` for the next protocol report;
    /// `None` once it passed (or if every daemon already exited).
    pub fn recv_until(&self, deadline: SimTime) -> Option<NetEvent> {
        self.events.recv_timeout(self.clock.until(deadline)).ok()
    }

    /// Drains straggling reports for `settle`, tears every daemon down, and
    /// packages the outcome, its events in time order (stable among equal
    /// times). `events` is whatever the caller's workload loop collected so
    /// far.
    pub fn finish(self, mut events: Vec<NetEvent>, settle: SimDuration) -> NetOutcome {
        let drain_deadline = self.now() + settle;
        while let Some(event) = self.recv_until(drain_deadline) {
            events.push(event);
        }
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
            wall_time: self.clock.elapsed(),
            late_inputs: self.late.load(Ordering::Relaxed),
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
