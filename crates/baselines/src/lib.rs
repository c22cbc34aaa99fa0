//! Baseline P2P VoD protocols the paper compares SocialTube against.
//!
//! * [`pavod`] — **PA-VoD** (Huang, Li, Ross — SIGCOMM'07): the server
//!   directs a request to peers *currently watching* the same video; a peer
//!   stops providing the moment it finishes watching. Since YouTube videos
//!   are short, providers are scarce and most traffic falls back to the
//!   server.
//! * [`nettube`] — **NetTube** (Cheng & Liu — INFOCOM'09): viewers of the
//!   same video form a per-video overlay and keep a cache of watched videos;
//!   queries flood with TTL 2 through the union of a node's overlays,
//!   reaching three hops (a receiver at TTL 0 still answers);
//!   prefetching picks *random* videos from neighbors' caches. Watching many
//!   videos accumulates one overlay's worth of links per video — the
//!   maintenance blow-up of Fig 15/18.
//!
//! Both reuse the sans-IO driver interface of the `socialtube` crate
//! ([`VodPeer`](socialtube::VodPeer) / [`VodServer`](socialtube::VodServer)),
//! so the simulator and the TCP testbed run all three protocols through the
//! same machinery, and both are built from SocialTube's parameter set
//! ([`SocialTubeConfig`](socialtube::SocialTubeConfig)), as Section V
//! compares them.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod nettube;
pub mod pavod;

pub use nettube::{NetTubePeer, NetTubeServer};
pub use pavod::{PaVodPeer, PaVodServer};
