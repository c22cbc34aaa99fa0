//! The single `Protocol` → peers/server construction site.

use std::sync::Arc;

use socialtube::{SocialTubeConfig, SocialTubePeer, SocialTubeServer, VodPeer, VodServer};
use socialtube_baselines::{NetTubePeer, NetTubeServer, PaVodPeer, PaVodServer, Peer};
use socialtube_model::{Catalog, NodeId};
use socialtube_sim::SimRng;
use socialtube_trace::Trace;

use crate::configs::ExperimentOptions;
use crate::Protocol;

/// A built deployment with every peer behind a trait object.
///
/// Only the benchmark under `perf/` uses it (through
/// [`StackBuilder::build`]); no run does, since both platforms hold
/// [`Peer`]s by value. It goes once the benchmark's probes switch to
/// [`StackBuilder::build_peers`].
pub struct ProtocolStack {
    /// Peer state machines, indexed by dense node id.
    pub peers: Vec<Box<dyn VodPeer + Send>>,
    /// The tracker + origin server.
    pub server: Box<dyn VodServer + Send>,
}

impl std::fmt::Debug for ProtocolStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtocolStack")
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

/// Builds a protocol's peers and server: the only place in the workspace
/// that matches on [`Protocol`] to construct them.
///
/// With one mapping, the two platforms cannot diverge in what they run:
/// that is the "one stack, two platforms" property. The builder owns the
/// run's one parameter set (every protocol's peers read the
/// [`SocialTubeConfig`]), the prefetch-variant override (a `*NoPrefetch`
/// variant runs with a prefetch budget of 0), and the RNG stream labels
/// (`"server"`, `"nettube-peer"`) that keep runs reproducible.
///
/// # Examples
///
/// ```
/// use socialtube_experiments::harness::StackBuilder;
/// use socialtube_experiments::{configs, ExperimentOptions, Protocol};
/// use socialtube_trace::generate_shared;
///
/// let options = ExperimentOptions::default();
/// let shared = generate_shared(&socialtube_trace::TraceConfig::tiny(), 7);
/// let builder = StackBuilder::from_options(Protocol::SocialTube, shared.catalog().clone(), &options);
/// let (peers, _server) = builder.build_peers(&shared, &configs::root_rng(7));
/// assert_eq!(peers.len(), shared.graph.user_count());
/// ```
#[derive(Clone, Debug)]
pub struct StackBuilder {
    protocol: Protocol,
    catalog: Arc<Catalog>,
    config: SocialTubeConfig,
}

impl StackBuilder {
    /// A builder carrying the protocol parameters of `options`, on either
    /// platform.
    pub fn from_options(
        protocol: Protocol,
        catalog: Arc<Catalog>,
        options: &ExperimentOptions,
    ) -> Self {
        Self {
            protocol,
            catalog,
            config: options.socialtube.clone(),
        }
    }

    /// [`build_peers`](Self::build_peers) with each [`Peer`] boxed whole
    /// behind a trait object. The benchmark under `perf/` is its only
    /// caller; it goes with [`ProtocolStack`].
    pub fn build(&self, trace: &Trace, root: &SimRng) -> ProtocolStack {
        let (peers, server) = self.build_peers(trace, root);
        ProtocolStack {
            peers: peers.into_iter().map(|p| Box::new(p) as _).collect(),
            server,
        }
    }

    /// Builds one [`Peer`] per user of `trace`, by dense node id, and the
    /// matching tracker/origin server, deriving protocol randomness from
    /// `root` (streams `"server"` and, for NetTube, indexed
    /// `"nettube-peer"` — stable labels are what keep refactors
    /// bitwise-reproducible). Both simulator executors and the TCP testbed
    /// run what this returns.
    pub fn build_peers(
        &self,
        trace: &Trace,
        root: &SimRng,
    ) -> (Vec<Peer>, Box<dyn VodServer + Send>) {
        let catalog = &self.catalog;
        let nodes = (0..trace.graph.user_count()).map(|u| NodeId::new(u as u32));
        let mut config = self.config.clone();
        if matches!(
            self.protocol,
            Protocol::SocialTubeNoPrefetch | Protocol::NetTubeNoPrefetch
        ) {
            config.prefetch_count = 0;
        }
        match self.protocol {
            Protocol::SocialTube | Protocol::SocialTubeNoPrefetch => {
                let peers = nodes.map(|node| {
                    let subs = trace
                        .graph
                        .user(node)
                        .map(|x| x.subscriptions().to_vec())
                        .unwrap_or_default();
                    let peer = SocialTubePeer::new(node, Arc::clone(catalog), subs, config.clone());
                    Peer::SocialTube(peer)
                });
                let server = SocialTubeServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
            Protocol::NetTube | Protocol::NetTubeNoPrefetch => {
                let peers = nodes.map(|node| {
                    let rng = root.stream_indexed("nettube-peer", u64::from(node.as_u32()));
                    let peer = NetTubePeer::new(node, Arc::clone(catalog), &config, rng);
                    Peer::NetTube(peer)
                });
                let server = NetTubeServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
            Protocol::PaVod => {
                let peers = nodes.map(|node| {
                    let peer = PaVodPeer::new(node, Arc::clone(catalog), &config);
                    Peer::PaVod(peer)
                });
                let server = PaVodServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::harness::{CommandInterpreter, ServerSubstrate};
    use socialtube::{Command, Message, Outbox, PeerAddr, Report, ServerOutbox, TimerKind};
    use socialtube_model::VideoId;
    use socialtube_sim::{SimDuration, SimTime};
    use socialtube_trace::{generate_shared, TraceConfig};
    use std::collections::VecDeque;

    #[test]
    fn builds_one_peer_per_user_for_every_protocol() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let options = ExperimentOptions::default();
        for protocol in Protocol::ALL {
            let (peers, _) =
                StackBuilder::from_options(protocol, shared.catalog().clone(), &options)
                    .build_peers(&shared, &SimRng::seed(7));
            assert_eq!(peers.len(), shared.graph.user_count(), "{protocol}");
            for (u, p) in peers.iter().enumerate() {
                assert_eq!(p.node().index(), u, "{protocol} peers must be dense");
            }
        }
    }

    /// Whether `peer`, alone with `server`, arms a `PrefetchKick` while it
    /// logs in and plays `video`. Messages between the two arrive at once,
    /// before any timer; the search deadlines a lone peer waits out fire
    /// next, and the other timers never do.
    fn arms_prefetch_kick(
        peer: &mut Peer,
        server: &mut dyn VodServer,
        origin: &CommandInterpreter,
        video: VideoId,
    ) -> bool {
        struct Inbox(VecDeque<Message>);
        impl ServerSubstrate for Inbox {
            fn server_control(&mut self, _to: NodeId, msg: Message) {
                self.0.push_back(msg);
            }
            fn server_chunk(&mut self, _to: NodeId, _bits: u64, msg: Message) {
                self.0.push_back(msg);
            }
        }
        let (now, node) = (SimTime::ZERO, peer.node());
        let (mut out, mut served) = (Outbox::new(), ServerOutbox::new());
        let mut inbox = Inbox(VecDeque::new());
        let mut deadlines = VecDeque::new();
        let (mut started, mut armed) = (false, false);
        peer.on_login(now, &mut out);
        peer.watch(now, video, &mut out);
        loop {
            for command in out.drain() {
                match command {
                    Command::ToServer { msg } => server.on_message(now, node, msg, &mut served),
                    Command::Timer { kind, .. } => match kind {
                        TimerKind::PrefetchKick => armed = true,
                        TimerKind::SearchDeadline { .. } => deadlines.push_back(kind),
                        _ => {}
                    },
                    Command::Report(Report::PlaybackStarted { .. }) => started = true,
                    _ => {}
                }
                origin.flush_server(&mut served, &mut inbox, |_, _| {});
            }
            if let Some(msg) = inbox.0.pop_front() {
                peer.on_message(now, PeerAddr::Server, msg, &mut out);
            } else if let Some(deadline) = deadlines.pop_front() {
                peer.on_timer(now, deadline, &mut out);
            } else {
                break;
            }
        }
        peer.on_logout(now, &mut out);
        for command in out.drain() {
            if let Command::ToServer { msg } = command {
                server.on_message(now, node, msg, &mut served);
            }
        }
        assert!(started, "node {} never started its playback", node.index());
        armed
    }

    /// A variant prefetches exactly when it is a prefetching variant with a
    /// budget `M` above 0: the builder's `*NoPrefetch` override and an
    /// options-level `M = 0` both keep every peer's `PrefetchKick` unarmed.
    #[test]
    fn prefetch_kick_is_armed_exactly_when_the_variant_prefetches() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let catalog = shared.catalog().clone();
        let origin = CommandInterpreter::new(Arc::clone(&catalog));
        let on = ExperimentOptions::default();
        let mut off = on.clone();
        off.socialtube.prefetch_count = 0;
        let builders = Protocol::ALL
            .into_iter()
            .map(|p| StackBuilder::from_options(p, Arc::clone(&catalog), &on))
            .chain([StackBuilder::from_options(
                Protocol::SocialTube,
                Arc::clone(&catalog),
                &off,
            )]);
        for builder in builders {
            let (protocol, m) = (builder.protocol, builder.config.prefetch_count);
            let prefetches = matches!(protocol, Protocol::SocialTube | Protocol::NetTube) && m > 0;
            let (mut peers, mut server) = builder.build_peers(&shared, &SimRng::seed(7));
            for (u, peer) in peers.iter_mut().enumerate() {
                let video = VideoId::new((u % catalog.video_count()) as u32);
                let armed = arms_prefetch_kick(peer, &mut *server, &origin, video);
                assert_eq!(armed, prefetches, "{protocol} with M = {m}, node {u}");
            }
        }
    }

    /// What a by-value population costs per peer, and what the two parts
    /// a flood delivery reads add to it: the cache's 16-byte full-video
    /// filter and the dedup window's 32 bytes of newest ids, held together
    /// in the flooding peers' `Flood`. A PA-VoD peer pads to the largest
    /// variant.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn by_value_peers_have_pinned_sizes() {
        use socialtube::{Flood, SeenWindow, SocialTubeConfig, VideoCache};
        use std::mem::size_of;
        assert_eq!(size_of::<VideoCache>(), 64);
        assert_eq!(size_of::<SeenWindow>(), 104);
        assert_eq!(size_of::<Flood>(), 168);
        assert_eq!(size_of::<SocialTubeConfig>(), 96);
        assert_eq!(size_of::<SocialTubePeer>(), 472);
        assert_eq!(size_of::<NetTubePeer>(), 448);
        assert_eq!(size_of::<PaVodPeer>(), 96);
        assert_eq!(size_of::<Peer>(), size_of::<SocialTubePeer>());
    }

    /// Every testbed preset hands the builder the base config the
    /// equivalence suite's scripted runs use, whose timeouts are compressed
    /// to seconds-scale sessions.
    #[test]
    fn testbed_builder_compresses_timeouts() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let base = crate::configs::testbed().socialtube;
        assert_eq!(base.probe_interval, SimDuration::from_secs(2));
        assert_eq!(base.chunk_timeout, SimDuration::from_secs(3));
        assert_eq!(base.lookup_timeout, SimDuration::from_millis(800));
        for options in [
            crate::configs::testbed_smoke(),
            crate::configs::testbed_planetlab(),
        ] {
            let catalog = shared.catalog().clone();
            let b = StackBuilder::from_options(Protocol::SocialTube, catalog, &options);
            assert_eq!(b.config, base);
        }
    }
}
