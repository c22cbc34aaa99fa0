//! SocialTube: an interest-based per-community P2P hierarchical overlay for
//! short-video sharing (ICDCS 2014 reproduction).
//!
//! SocialTube replaces the *per-video* overlays of earlier P2P VoD systems
//! (NetTube, PA-VoD) with a *per-community* two-level hierarchy derived from
//! the YouTube social network:
//!
//! * **Lower level** — subscribers of the same channel form one overlay;
//!   each node keeps at most `N_l` *inner-links* there.
//! * **Higher level** — channels of the same interest category form a
//!   cluster; each node keeps at most `N_h` *inter-links* across channels.
//!
//! A video search floods the channel overlay with a bounded TTL, falls back
//! to the category cluster, and only then to the server; a
//! channel-facilitated prefetching scheme downloads the first chunks of the
//! most popular videos of the channel being watched (Section IV).
//!
//! # Architecture: sans-IO protocol state machines
//!
//! Protocol logic is written free of any clock, socket or event loop: a
//! [`VodPeer`] reacts to `(time, input)` pairs and emits [`Command`]s into an
//! [`Outbox`]; a [`VodServer`] does the same on the tracker side. The same
//! state machines therefore run
//!
//! * under the deterministic discrete-event simulator
//!   (`socialtube-experiments`, the paper's PeerSim evaluation), and
//! * over real TCP sockets (`socialtube-net`, the paper's PlanetLab
//!   evaluation),
//!
//! mirroring the paper's dual methodology with one protocol implementation.
//!
//! # Examples
//!
//! Drive a peer by hand — no network, no simulator:
//!
//! ```
//! use std::sync::Arc;
//! use socialtube::{Outbox, SocialTubeConfig, SocialTubePeer, VodPeer};
//! use socialtube_model::{CatalogBuilder, NodeId};
//! use socialtube_sim::SimTime;
//!
//! let mut b = CatalogBuilder::new();
//! let cat = b.add_category();
//! let ch = b.add_channel([cat]);
//! let video = b.add_video(ch, 120, 0);
//! let catalog = Arc::new(b.build());
//!
//! let mut peer = SocialTubePeer::new(
//!     NodeId::new(0),
//!     Arc::clone(&catalog),
//!     vec![ch],
//!     SocialTubeConfig::default(),
//! );
//! let mut out = Outbox::new();
//! peer.on_login(SimTime::ZERO, &mut out);
//! peer.watch(SimTime::ZERO, video, &mut out);
//! // With no neighbors, the request falls through to the server.
//! assert!(!out.commands().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod harness;

mod cache;
mod config;
mod flood;
mod messages;
mod neighbors;
mod peer;
mod probe;
mod seen;
mod server;
mod tracker;
mod traits;
mod transfer;
mod vecmap;

pub use cache::{CacheEntry, VideoCache};
pub use config::SocialTubeConfig;
pub use flood::{Flood, SEEN_QUERY_WINDOW};
pub use messages::{LinkKind, Message, PeerAddr, QueryScope, RequestId};
pub use neighbors::{Neighbor, NeighborTable};
pub use peer::SocialTubePeer;
pub use probe::Prober;
pub use seen::SeenWindow;
pub use server::SocialTubeServer;
pub use tracker::{serve_from_origin, IndexedTracker, Tracker};
pub use traits::{
    ChunkSource, Command, Outbox, Report, SearchPhase, ServerCommand, ServerOutbox, TimerKind,
    TransferKind, VodPeer, VodServer,
};
pub use transfer::{served_chunks, Progress, Transfer, Transfers};
pub use vecmap::VecMap;
