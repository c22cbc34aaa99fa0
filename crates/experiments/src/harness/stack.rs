//! The single `Protocol` → peers/server construction site.

use std::sync::Arc;

use socialtube::{SocialTubeConfig, SocialTubePeer, SocialTubeServer, VodPeer, VodServer};
use socialtube_baselines::{
    NetTubeConfig, NetTubePeer, NetTubeServer, PaVodConfig, PaVodPeer, PaVodServer,
};
use socialtube_model::{Catalog, NodeId};
use socialtube_sim::{SimDuration, SimRng};
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
/// per-protocol configs, the prefetch-variant override, and the RNG stream
/// labels (`"server"`, `"nettube-peer"`) that keep runs reproducible.
///
/// # Examples
///
/// ```
/// use socialtube_experiments::harness::StackBuilder;
/// use socialtube_experiments::Protocol;
/// use socialtube_sim::SimRng;
/// use socialtube_trace::generate_shared;
///
/// let shared = generate_shared(&socialtube_trace::TraceConfig::tiny(), 7);
/// let stack = StackBuilder::new(Protocol::SocialTube, shared.catalog().clone())
///     .build(&shared, &SimRng::seed(7));
/// assert_eq!(stack.peers.len(), shared.graph.user_count());
/// ```
#[derive(Clone, Debug)]
pub struct StackBuilder {
    protocol: Protocol,
    catalog: Arc<Catalog>,
    socialtube: SocialTubeConfig,
    nettube: NetTubeConfig,
    pavod: PaVodConfig,
}

impl StackBuilder {
    /// Starts a builder for `protocol` with default protocol configs.
    pub fn new(protocol: Protocol, catalog: Arc<Catalog>) -> Self {
        Self {
            protocol,
            catalog,
            socialtube: SocialTubeConfig::default(),
            nettube: NetTubeConfig::default(),
            pavod: PaVodConfig::default(),
        }
    }

    /// A builder carrying the per-protocol configs from `options` (the
    /// simulation path).
    pub fn from_options(
        protocol: Protocol,
        catalog: Arc<Catalog>,
        options: &ExperimentOptions,
    ) -> Self {
        Self {
            protocol,
            catalog,
            socialtube: options.socialtube.clone(),
            nettube: options.nettube.clone(),
            pavod: options.pavod.clone(),
        }
    }

    /// A builder with protocol timeouts compressed to testbed latencies:
    /// wall-clock deployments run seconds-scale sessions, so the paper's
    /// minutes-scale probe and search timers shrink accordingly.
    pub fn for_testbed(protocol: Protocol, catalog: Arc<Catalog>) -> Self {
        Self::new(protocol, catalog).compress_timeouts()
    }

    /// Shrinks every protocol timeout to real-time-deployment scale.
    fn compress_timeouts(mut self) -> Self {
        self.socialtube = SocialTubeConfig {
            search_phase_timeout: SimDuration::from_millis(400),
            probe_interval: SimDuration::from_secs(2),
            probe_timeout: SimDuration::from_millis(600),
            chunk_timeout: SimDuration::from_secs(3),
            prefetch_delay: SimDuration::from_millis(100),
            ..self.socialtube
        };
        self.nettube = NetTubeConfig {
            search_timeout: SimDuration::from_millis(400),
            probe_interval: SimDuration::from_secs(2),
            probe_timeout: SimDuration::from_millis(600),
            chunk_timeout: SimDuration::from_secs(3),
            prefetch_delay: SimDuration::from_millis(100),
            ..self.nettube
        };
        self.pavod = PaVodConfig {
            chunk_timeout: SimDuration::from_secs(3),
            lookup_timeout: SimDuration::from_millis(800),
            ..self.pavod
        };
        self
    }

    /// Builds the stack over `trace`, deriving protocol randomness from
    /// `root` (streams `"server"` and, for NetTube, indexed
    /// `"nettube-peer"` — stable labels are what keep refactors
    /// bitwise-reproducible).
    pub fn build(&self, trace: &Trace, root: &SimRng) -> ProtocolStack {
        let users = trace.graph.user_count();
        let catalog = &self.catalog;
        let mut peers: Vec<Box<dyn VodPeer + Send>> = Vec::with_capacity(users);
        match self.protocol {
            Protocol::SocialTube | Protocol::SocialTubeNoPrefetch => {
                let config = SocialTubeConfig {
                    prefetch: self.protocol == Protocol::SocialTube,
                    ..self.socialtube.clone()
                };
                for u in 0..users {
                    let node = NodeId::new(u as u32);
                    let subs = trace
                        .graph
                        .user(node)
                        .map(|x| x.subscriptions().to_vec())
                        .unwrap_or_default();
                    peers.push(Box::new(SocialTubePeer::new(
                        node,
                        Arc::clone(catalog),
                        subs,
                        config.clone(),
                    )));
                }
                let server = SocialTubeServer::new(Arc::clone(catalog), root.stream("server"));
                ProtocolStack {
                    peers,
                    server: Box::new(server),
                }
            }
            Protocol::NetTube | Protocol::NetTubeNoPrefetch => {
                let config = NetTubeConfig {
                    prefetch: self.protocol == Protocol::NetTube,
                    ..self.nettube.clone()
                };
                for u in 0..users {
                    let node = NodeId::new(u as u32);
                    peers.push(Box::new(NetTubePeer::new(
                        node,
                        Arc::clone(catalog),
                        config.clone(),
                        root.stream_indexed("nettube-peer", u as u64),
                    )));
                }
                let server = NetTubeServer::new(Arc::clone(catalog), root.stream("server"));
                ProtocolStack {
                    peers,
                    server: Box::new(server),
                }
            }
            Protocol::PaVod => {
                for u in 0..users {
                    let node = NodeId::new(u as u32);
                    peers.push(Box::new(PaVodPeer::new(
                        node,
                        Arc::clone(catalog),
                        self.pavod.clone(),
                    )));
                }
                let server = PaVodServer::new(Arc::clone(catalog), root.stream("server"));
                ProtocolStack {
                    peers,
                    server: Box::new(server),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_trace::{generate_shared, TraceConfig};

    #[test]
    fn builds_one_peer_per_user_for_every_protocol() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        for protocol in Protocol::ALL {
            let stack = StackBuilder::new(protocol, shared.catalog().clone())
                .build(&shared, &SimRng::seed(7));
            assert_eq!(stack.peers.len(), shared.graph.user_count(), "{protocol}");
            for (u, p) in stack.peers.iter().enumerate() {
                assert_eq!(p.node().index(), u, "{protocol} peers must be dense");
            }
        }
    }

    #[test]
    fn prefetch_variants_flip_only_the_prefetch_flag() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        // Both variants build from the same options; the builder owns the
        // override. Indirect check: the no-prefetch run must arm no
        // PrefetchKick timer — covered end-to-end by driver tests; here we
        // just assert construction succeeds for both variants.
        for protocol in [Protocol::SocialTube, Protocol::SocialTubeNoPrefetch] {
            let stack = StackBuilder::new(protocol, shared.catalog().clone())
                .build(&shared, &SimRng::seed(7));
            assert_eq!(stack.peers.len(), shared.graph.user_count());
        }
    }

    #[test]
    fn testbed_builder_compresses_timeouts() {
        let shared = generate_shared(&TraceConfig::tiny(), 7);
        let b = StackBuilder::for_testbed(Protocol::SocialTube, shared.catalog().clone());
        assert_eq!(b.socialtube.probe_interval, SimDuration::from_secs(2));
        assert_eq!(b.socialtube.chunk_timeout, SimDuration::from_secs(3));
        assert_eq!(b.nettube.chunk_timeout, SimDuration::from_secs(3));
        assert_eq!(b.pavod.lookup_timeout, SimDuration::from_millis(800));
    }
}
