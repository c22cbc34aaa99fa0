//! In-process testbed: a full deployment over real sockets, driven in real
//! time — the PlanetLab experiment.
//!
//! [`Deployment`] owns only the platform half of an experiment: it spawns
//! one daemon per peer plus the server daemon, wires them through the
//! localhost transport with injected latency, and hands protocol reports
//! back as [`NetEvent`]s. *What* the nodes do — sessions, churn, video
//! selection — is the caller's workload loop (the shared `SessionDirector`
//! in `socialtube-experiments` for real runs, a fixed script for the
//! cross-platform equivalence tests).

use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use socialtube::{Report, VodPeer, VodServer};
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{LatencyModel, SimDuration, SimRng};

use crate::clock::TestbedClock;
use crate::daemon::{NetEvent, PeerDaemon, ServerDaemon};
use crate::transport::Registry;

/// Real-time parameters of a testbed run.
///
/// Video *sizes* come from the catalog; keep them small (short lengths, low
/// bitrate) so transfers complete at wall-clock speed. The dwell times
/// compress the paper's session structure into seconds.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// Seed for latency assignment and any per-run randomness.
    pub seed: u64,
    /// Per-peer upload capacity in bits/second.
    pub peer_upload_bps: u64,
    /// Server upload capacity in bits/second.
    pub server_bandwidth_bps: u64,
    /// Minimum one-way injected latency.
    pub latency_min: SimDuration,
    /// Maximum one-way injected latency.
    pub latency_max: SimDuration,
    /// Sessions per node.
    pub sessions_per_node: u32,
    /// Videos per session.
    pub videos_per_session: u32,
    /// Real time between a playback start and the next request (stands in
    /// for the playback duration).
    pub watch_dwell: Duration,
    /// Real think-time after login before the first request.
    pub browse_delay: Duration,
    /// Real off-time between sessions.
    pub off_time: Duration,
    /// Give up waiting for a playback after this long (dead-provider or
    /// lost-message safety net; generous relative to injected latencies).
    pub watch_timeout: Duration,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            peer_upload_bps: 20_000_000,
            server_bandwidth_bps: 50_000_000,
            latency_min: SimDuration::from_millis(10),
            latency_max: SimDuration::from_millis(60),
            sessions_per_node: 2,
            videos_per_session: 3,
            watch_dwell: Duration::from_millis(150),
            browse_delay: Duration::from_millis(50),
            off_time: Duration::from_millis(300),
            watch_timeout: Duration::from_secs(5),
        }
    }
}

/// Everything a testbed run produced.
#[derive(Debug)]
pub struct NetOutcome {
    /// Protocol reports with timestamps and link samples, in arrival order.
    pub events: Vec<NetEvent>,
    /// Wall-clock duration of the run.
    pub wall_time: Duration,
    /// Number of peers deployed.
    pub peers: usize,
}

impl NetOutcome {
    /// Count of playback-started reports.
    pub fn playbacks(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.report, Report::PlaybackStarted { .. }))
            .count()
    }

    /// Mean startup delay in milliseconds over all playbacks.
    pub fn mean_startup_delay_ms(&self) -> f64 {
        let delays: Vec<f64> = self
            .events
            .iter()
            .filter_map(|e| match e.report {
                Report::PlaybackStarted { requested_at, .. } => {
                    Some(e.time.duration_since(requested_at).as_micros() as f64 / 1_000.0)
                }
                _ => None,
            })
            .collect();
        if delays.is_empty() {
            0.0
        } else {
            delays.iter().sum::<f64>() / delays.len() as f64
        }
    }
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
    daemons: Vec<PeerDaemon>,
    server: ServerDaemon,
    events: Receiver<NetEvent>,
    started: Instant,
}

impl Deployment {
    /// Deploys `peers` (node ids must be dense `0..n`) and `server` as
    /// socket daemons with latency and bandwidth from `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if sockets cannot be bound.
    pub fn spawn(
        catalog: Arc<Catalog>,
        peers: Vec<Box<dyn VodPeer + Send>>,
        server: Box<dyn VodServer + Send>,
        config: &TestbedConfig,
    ) -> std::io::Result<Deployment> {
        let started = Instant::now();
        let clock = TestbedClock::start();
        let registry = Arc::new(Registry::new());
        let latency = Arc::new(LatencyModel::new(
            &SimRng::seed(config.seed),
            config.latency_min,
            config.latency_max,
        ));
        let (events_tx, events_rx) = mpsc::channel::<NetEvent>();

        let server_daemon = ServerDaemon::spawn(
            server,
            Arc::clone(&catalog),
            Arc::clone(&registry),
            Arc::clone(&latency),
            clock,
            config.server_bandwidth_bps,
            events_tx.clone(),
        )?;

        let mut daemons = Vec::with_capacity(peers.len());
        for peer in peers {
            daemons.push(PeerDaemon::spawn(
                peer,
                Arc::clone(&registry),
                Arc::clone(&latency),
                clock,
                config.peer_upload_bps,
                events_tx.clone(),
            )?);
        }
        drop(events_tx);

        Ok(Deployment {
            daemons,
            server: server_daemon,
            events: events_rx,
            started,
        })
    }

    /// Number of peer daemons deployed.
    pub fn peers(&self) -> usize {
        self.daemons.len()
    }

    /// Starts a session at `node`.
    pub fn login(&self, node: NodeId) {
        self.daemons[node.index()].login();
    }

    /// Ends `node`'s session.
    pub fn logout(&self, node: NodeId) {
        self.daemons[node.index()].logout();
    }

    /// The user at `node` selects `video`.
    pub fn watch(&self, node: NodeId, video: VideoId) {
        self.daemons[node.index()].watch(video);
    }

    /// Waits up to `timeout` for the next protocol report; `None` on
    /// timeout (or if every daemon already exited).
    pub fn recv_timeout(&self, timeout: Duration) -> Option<NetEvent> {
        self.events.recv_timeout(timeout).ok()
    }

    /// Drains straggling reports for `settle`, tears every daemon down, and
    /// packages the outcome. `events` is whatever the caller's workload
    /// loop collected so far.
    pub fn finish(self, mut events: Vec<NetEvent>, settle: Duration) -> NetOutcome {
        let drain_deadline = Instant::now() + settle;
        while let Ok(event) = self
            .events
            .recv_timeout(drain_deadline.saturating_duration_since(Instant::now()))
        {
            events.push(event);
        }
        for d in &self.daemons {
            d.shutdown();
        }
        self.server.shutdown();
        let peers = self.daemons.len();
        for d in self.daemons {
            d.join();
        }
        self.server.join();

        NetOutcome {
            events,
            wall_time: self.started.elapsed(),
            peers,
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
        let cat = b.add_category("k");
        let ch = b.add_channel("c", [cat]);
        let mut vids = Vec::new();
        for i in 0..4 {
            let v = b.add_video(ch, 4, i); // 4 s × 320 kbps = 1.28 Mb
            b.set_views(v, 100 / (u64::from(i) + 1));
            vids.push(v);
        }
        (Arc::new(b.build()), vids)
    }

    /// Drives a five-peer deployment through a scripted two-video session
    /// per peer, waiting for each playback before moving on.
    #[test]
    fn five_peer_socialtube_deployment_completes() {
        let (catalog, vids) = tiny_catalog();
        let channel = catalog.channels().next().unwrap().id();
        let peers: Vec<Box<dyn VodPeer + Send>> = (0..5)
            .map(|i| {
                Box::new(SocialTubePeer::new(
                    NodeId::new(i),
                    Arc::clone(&catalog),
                    vec![channel],
                    SocialTubeConfig::default(),
                )) as Box<dyn VodPeer + Send>
            })
            .collect();
        let server = Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(7)));
        let config = TestbedConfig::default();
        let deployment =
            Deployment::spawn(Arc::clone(&catalog), peers, server, &config).expect("spawn");

        let mut events = Vec::new();
        for i in 0..5u32 {
            deployment.login(NodeId::new(i));
        }
        // Two watches per peer, round-robin, each bounded by the watch
        // timeout so a lost playback cannot hang the test.
        for round in 0..2usize {
            for i in 0..5usize {
                let node = NodeId::new(i as u32);
                let video = vids[(round * 5 + i) % vids.len()];
                deployment.watch(node, video);
                let deadline = Instant::now() + config.watch_timeout;
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let Some(event) = deployment.recv_timeout(left) else {
                        break;
                    };
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
            deployment.logout(NodeId::new(i));
        }
        let outcome = deployment.finish(events, Duration::from_millis(300));

        // 5 peers × 2 videos = 10 playbacks expected.
        assert!(
            outcome.playbacks() >= 8,
            "only {} playbacks (events: {})",
            outcome.playbacks(),
            outcome.events.len()
        );
        assert_eq!(outcome.peers, 5);
        assert!(outcome.mean_startup_delay_ms() >= 0.0);
    }
}
