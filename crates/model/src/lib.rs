//! Domain model for the SocialTube reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for nodes, videos, channels and interest
//! categories; the video/channel/user entities themselves; the [`Catalog`]
//! that indexes them; and the [`SocialGraph`] of channel subscriptions that
//! SocialTube's per-community overlay is built from.
//!
//! The types mirror the structural features of the YouTube social network
//! described in Section III of the paper:
//!
//! * videos are grouped into **channels** (one uploader's page),
//! * channels are classified into a small number of **interest categories**,
//! * users **subscribe** to channels and have a small set of interests,
//! * video popularity within a channel is heavily skewed (≈ Zipf).
//!
//! # Examples
//!
//! ```
//! use socialtube_model::{Catalog, CatalogBuilder, CategoryId, ChannelId, VideoId};
//!
//! let mut builder = CatalogBuilder::new();
//! let news = builder.add_category();
//! let reuters = builder.add_channel([news]);
//! let clip = builder.add_video(reuters, 90, 0);
//! let catalog: Catalog = builder.build();
//!
//! assert_eq!(catalog.video(clip).unwrap().channel(), reuters);
//! assert_eq!(catalog.channel(reuters).unwrap().categories(), &[news]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod catalog;
mod channel;
mod error;
mod graph;
mod ids;
mod user;
mod video;

pub use catalog::{Catalog, CatalogBuilder};
pub use channel::Channel;
pub use error::ModelError;
pub use graph::{SharedSubscriberEdge, SocialGraph};
pub use ids::{CategoryId, ChannelId, NodeId, VideoId};
pub use user::User;
pub use video::{ChunkIndex, Video, DEFAULT_BITRATE_KBPS, DEFAULT_CHUNKS_PER_VIDEO};
