//! The single `Protocol` → peers/server construction site.

use std::sync::Arc;

use socialtube::{
    Message, Outbox, PeerAddr, SocialTubeConfig, SocialTubePeer, SocialTubeServer, TimerKind,
    VodPeer, VodServer,
};
use socialtube_baselines::{NetTubePeer, NetTubeServer, PaVodPeer, PaVodServer};
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{SimRng, SimTime};
use socialtube_trace::Trace;

use crate::configs::ExperimentOptions;
use crate::Protocol;

/// A built protocol deployment: one state machine per user plus the
/// matching tracker/origin server. Runs unmodified under the simulator or
/// the TCP testbed.
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

/// Builds [`ProtocolStack`]s: the only place in the workspace that matches
/// on [`Protocol`] to construct peers and servers.
///
/// Both drivers used to carry their own copy of this mapping (the sim's
/// `build_peers`, the testbed's `build`); divergence between them silently
/// broke the "one stack, two platforms" property. The builder owns the
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
/// let stack = builder.build(&shared, &configs::root_rng(7));
/// assert_eq!(stack.peers.len(), shared.graph.user_count());
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

    /// Builds the stack over `trace`, deriving protocol randomness from
    /// `root` (streams `"server"` and, for NetTube, indexed
    /// `"nettube-peer"` — stable labels are what keep refactors
    /// bitwise-reproducible). Each peer is boxed: the testbed's daemons
    /// hold them as trait objects.
    pub fn build(&self, trace: &Trace, root: &SimRng) -> ProtocolStack {
        let (peers, server) = self.build_sim(trace, root);
        ProtocolStack {
            peers: peers.into_iter().map(SimPeer::boxed).collect(),
            server,
        }
    }

    /// [`build`](Self::build) with the peers held by value, for the
    /// simulator's event loops: a delivery then reads the receiving peer
    /// where the slot vector holds it, with no pointer to follow first.
    pub fn build_sim(
        &self,
        trace: &Trace,
        root: &SimRng,
    ) -> (Vec<SimPeer>, Box<dyn VodServer + Send>) {
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
                    SimPeer::SocialTube(peer)
                });
                let server = SocialTubeServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
            Protocol::NetTube | Protocol::NetTubeNoPrefetch => {
                let peers = nodes.map(|node| {
                    let rng = root.stream_indexed("nettube-peer", u64::from(node.as_u32()));
                    let peer = NetTubePeer::new(node, Arc::clone(catalog), &config, rng);
                    SimPeer::NetTube(peer)
                });
                let server = NetTubeServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
            Protocol::PaVod => {
                let peers = nodes.map(|node| {
                    let peer = PaVodPeer::new(node, Arc::clone(catalog), &config);
                    SimPeer::PaVod(peer)
                });
                let server = PaVodServer::new(Arc::clone(catalog), root.stream("server"));
                (peers.collect(), Box::new(server))
            }
        }
    }
}

/// A peer of any of the three protocols, held by value.
///
/// The simulator keeps its whole population in one `Vec<SimPeer>`, so a
/// delivery's first load is the receiving peer's own struct rather than a
/// box pointer and then the struct. A PA-VoD peer pads to the size of the
/// largest variant, about 120 KB over a 300-peer population.
#[allow(clippy::large_enum_variant)] // by-value peers are the point
#[derive(Debug)]
pub enum SimPeer {
    /// A SocialTube peer (with or without prefetch).
    SocialTube(SocialTubePeer),
    /// A NetTube peer (with or without prefetch).
    NetTube(NetTubePeer),
    /// A PA-VoD peer.
    PaVod(PaVodPeer),
}

/// Runs `$body` with `$peer` bound to whichever protocol's peer `$sim` holds.
macro_rules! with_peer {
    ($sim:expr, $peer:ident => $body:expr) => {
        match $sim {
            SimPeer::SocialTube($peer) => $body,
            SimPeer::NetTube($peer) => $body,
            SimPeer::PaVod($peer) => $body,
        }
    };
}

impl SimPeer {
    /// The peer itself behind a trait object, as [`ProtocolStack`] holds it.
    fn boxed(self) -> Box<dyn VodPeer + Send> {
        with_peer!(self, p => Box::new(p))
    }
}

impl VodPeer for SimPeer {
    fn node(&self) -> NodeId {
        with_peer!(self, p => p.node())
    }

    fn on_login(&mut self, now: SimTime, out: &mut Outbox) {
        with_peer!(self, p => p.on_login(now, out))
    }

    fn on_logout(&mut self, now: SimTime, out: &mut Outbox) {
        with_peer!(self, p => p.on_logout(now, out))
    }

    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox) {
        with_peer!(self, p => p.watch(now, video, out))
    }

    fn on_message(&mut self, now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox) {
        with_peer!(self, p => p.on_message(now, from, msg, out))
    }

    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox) {
        with_peer!(self, p => p.on_timer(now, timer, out))
    }

    fn link_count(&self) -> usize {
        with_peer!(self, p => p.link_count())
    }

    fn is_online(&self) -> bool {
        with_peer!(self, p => p.is_online())
    }

    fn has_cached(&self, video: VideoId) -> bool {
        with_peer!(self, p => p.has_cached(video))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::harness::{CommandInterpreter, ServerSubstrate};
    use socialtube::{Command, Report, ServerOutbox};
    use socialtube_sim::SimDuration;
    use socialtube_trace::{generate_shared, TraceConfig};
    use std::collections::VecDeque;

    #[test]
    fn builds_one_peer_per_user_for_every_protocol() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let options = ExperimentOptions::default();
        for protocol in Protocol::ALL {
            let stack = StackBuilder::from_options(protocol, shared.catalog().clone(), &options)
                .build(&shared, &SimRng::seed(7));
            assert_eq!(stack.peers.len(), shared.graph.user_count(), "{protocol}");
            for (u, p) in stack.peers.iter().enumerate() {
                assert_eq!(p.node().index(), u, "{protocol} peers must be dense");
            }
        }
    }

    /// Whether `peer`, alone with `server`, arms a `PrefetchKick` while it
    /// logs in and plays `video`. Messages between the two arrive at once,
    /// before any timer; the search deadlines a lone peer waits out fire
    /// next, and the other timers never do.
    fn arms_prefetch_kick(
        peer: &mut dyn VodPeer,
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
            let mut stack = builder.build(&shared, &SimRng::seed(7));
            for (u, peer) in stack.peers.iter_mut().enumerate() {
                let video = VideoId::new((u % catalog.video_count()) as u32);
                let armed = arms_prefetch_kick(&mut **peer, &mut *stack.server, &origin, video);
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
        assert_eq!(size_of::<SimPeer>(), size_of::<SocialTubePeer>());
    }

    /// Every testbed preset hands the builder the base config the
    /// equivalence suite's scripted runs use, whose timeouts are compressed
    /// to wall-clock sessions.
    #[test]
    fn testbed_builder_compresses_timeouts() {
        use crate::net_driver::NetExperimentOptions;
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let base = crate::configs::testbed().socialtube;
        assert_eq!(base.probe_interval, SimDuration::from_secs(2));
        assert_eq!(base.chunk_timeout, SimDuration::from_secs(3));
        assert_eq!(base.lookup_timeout, SimDuration::from_millis(800));
        let presets = [
            NetExperimentOptions::smoke_test(),
            NetExperimentOptions::planetlab_style(),
        ];
        for options in presets.map(|preset| preset.experiment) {
            let catalog = shared.catalog().clone();
            let b = StackBuilder::from_options(Protocol::SocialTube, catalog, &options);
            assert_eq!(b.config, base);
        }
    }
}
