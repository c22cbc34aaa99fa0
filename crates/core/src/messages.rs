//! Wire-level message vocabulary shared by all three protocols.
//!
//! One message enum covers SocialTube, NetTube and PA-VoD so that the
//! simulation driver, the TCP codec and the metrics pipeline handle a single
//! type. Variants unused by a given protocol are simply never sent by it.

use std::sync::Arc;

use socialtube_model::{Catalog, CategoryId, ChannelId, ChunkIndex, NodeId, VideoId};

use crate::traits::TransferKind;

/// Identifier of one video request (search + transfer), unique per origin:
/// the high 32 bits carry the origin node, the low 32 a local counter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

impl RequestId {
    /// Builds a request identifier from its origin and a local counter.
    pub fn new(origin: NodeId, counter: u32) -> Self {
        RequestId((u64::from(origin.as_u32()) << 32) | u64::from(counter))
    }

    /// The node that originated the request.
    pub fn origin(self) -> NodeId {
        NodeId::new((self.0 >> 32) as u32)
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}#{}", self.origin(), self.0 & 0xFFFF_FFFF)
    }
}

/// The sender/recipient of a protocol message: another peer or the server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PeerAddr {
    /// A peer node.
    Peer(NodeId),
    /// The centralized server (tracker + origin store).
    Server,
}

impl std::fmt::Display for PeerAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerAddr::Peer(n) => write!(f, "{n}"),
            PeerAddr::Server => write!(f, "server"),
        }
    }
}

/// Which overlay a flooded query is traversing.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QueryScope {
    /// SocialTube lower level: the channel overlay, along inner-links.
    Channel(ChannelId),
    /// SocialTube higher level: the category cluster — delivered over
    /// inter-links, then forwarded along the receiver's inner-links.
    Category(CategoryId),
    /// NetTube: the union of the node's per-video overlays.
    PerVideo,
}

impl QueryScope {
    /// Whether a query in this scope travels over a link to a neighbour
    /// watching `channel` (Section IV-A): a channel query stays in its
    /// channel's overlay, a category query crosses the overlays of every
    /// channel in the category, a per-video query crosses every link.
    pub fn admits(self, channel: Option<ChannelId>, catalog: &Catalog) -> bool {
        match self {
            QueryScope::Channel(c) => channel == Some(c),
            QueryScope::Category(cat) => {
                channel.is_some_and(|ch| catalog.channel(ch).is_ok_and(|c| c.has_category(cat)))
            }
            QueryScope::PerVideo => true,
        }
    }
}

/// Kind of an overlay link (SocialTube terminology, Section IV-A).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// A link inside the node's current channel overlay (≤ `N_l`).
    Inner,
    /// A link across channels of the same category (≤ `N_h`).
    Inter,
}

/// Every message exchanged between peers, and between peers and the server.
///
/// Messages are moved through the event queue and cloned on fan-out, so
/// the enum's inline size is a hot-path budget: every variable-length
/// payload (contact lists, digests, rankings) lives behind an `Arc<[T]>` —
/// a two-word shared slice, cheap to clone and immutable by construction.
/// A layout test pins `size_of::<Message>()` so new variants can't silently
/// re-bloat deliveries.
#[derive(Clone, PartialEq, Eq, Debug)]
#[allow(missing_docs)] // field meanings documented per variant
pub enum Message {
    // ------------------------------------------------- search (peer↔peer)
    /// TTL-limited flooded lookup for a video provider.
    Query {
        id: RequestId,
        video: VideoId,
        ttl: u8,
        origin: NodeId,
        scope: QueryScope,
    },
    /// Positive reply, sent directly to the query origin.
    QueryHit {
        id: RequestId,
        video: VideoId,
        provider: NodeId,
        /// Channel the provider is currently watching (drives link typing).
        provider_channel: Option<ChannelId>,
        /// TTL remaining on the query when it reached the provider; the
        /// origin recovers the hop count as `config.ttl - ttl + 1`.
        ttl: u8,
    },

    // ---------------------------------------------- transfer (peer↔peer)
    /// Ask a provider for chunks `from_chunk..` of `video`.
    ChunkRequest {
        id: RequestId,
        video: VideoId,
        from_chunk: ChunkIndex,
        /// Prefetches only want the first chunk.
        kind: TransferKind,
    },
    /// One chunk of video data. `bits` is the payload size used by the
    /// bandwidth models (real bytes are not simulated).
    ChunkData {
        id: RequestId,
        video: VideoId,
        chunk: ChunkIndex,
        bits: u64,
        kind: TransferKind,
    },
    /// Provider no longer has the video (cache turnover or logoff race).
    ChunkUnavailable { id: RequestId, video: VideoId },

    // ------------------------------------------- overlay links (peer↔peer)
    /// Ask to establish a link. Carries the requester's current channel so
    /// the receiver can type the link (inner vs inter); NetTube tags the
    /// link with the video whose overlay it belongs to instead.
    ConnectRequest {
        kind: LinkKind,
        channel: Option<ChannelId>,
        video: Option<VideoId>,
    },
    /// Link accepted; carries the accepter's current channel (and NetTube's
    /// per-video overlay tag).
    ConnectAccept {
        kind: LinkKind,
        channel: Option<ChannelId>,
        video: Option<VideoId>,
    },
    /// Link refused (table full).
    ConnectReject { kind: LinkKind },
    /// Liveness probe (Section IV-A structure maintenance).
    Probe { nonce: u64 },
    /// Probe reply.
    ProbeAck { nonce: u64 },
    /// Graceful departure notification to neighbors.
    Leave,
    /// NetTube: digest of the sender's cached videos, exchanged on connect
    /// (drives NetTube's random-neighbor prefetching).
    CacheDigest { videos: Arc<[VideoId]> },

    // ------------------------------------------------- peer → server
    /// Ask the server for entry points to find `video`.
    JoinRequest { video: VideoId },
    /// Fallback: ask the server to serve chunks `from_chunk..` directly.
    VideoRequest {
        id: RequestId,
        video: VideoId,
        from_chunk: ChunkIndex,
        kind: TransferKind,
    },
    /// PA-VoD: ask which peers are currently watching `video`.
    ProviderLookup { id: RequestId, video: VideoId },
    /// Tell the server a watch began (PA-VoD/NetTube provider indices).
    WatchStarted { video: VideoId },
    /// Tell the server a watch ended (PA-VoD drops the node as provider).
    WatchStopped { video: VideoId },
    /// SocialTube: report the node's subscribed channels (kept far smaller
    /// than NetTube's per-video watch reports, Section IV-A).
    SubscriptionUpdate { subscribed: Arc<[ChannelId]> },
    /// The node is logging off.
    LogOff,

    // ------------------------------------------------- server → peer
    /// Entry points for a SocialTube join: contacts inside the channel
    /// overlay (up to the joiner's inner-link budget) and contacts across
    /// the category's other channels.
    JoinResponse {
        video: VideoId,
        channel_contacts: Arc<[NodeId]>,
        category_contacts: Arc<[NodeId]>,
    },
    /// NetTube join: members of the requested video's overlay.
    OverlayContacts {
        video: VideoId,
        contacts: Arc<[NodeId]>,
    },
    /// PA-VoD: peers currently watching the requested video.
    ProviderList {
        id: RequestId,
        video: VideoId,
        providers: Arc<[NodeId]>,
    },
    /// SocialTube: per-channel popularity ranking for prefetch decisions
    /// ("the server provides the popularities of videos in each channel to
    /// its subscribers periodically", Section IV-B).
    PopularityDigest {
        channel: ChannelId,
        ranked: Arc<[VideoId]>,
    },
}

impl Message {
    /// Short tag for logging and metrics.
    pub fn tag(&self) -> &'static str {
        match self {
            Message::Query { .. } => "query",
            Message::QueryHit { .. } => "query-hit",
            Message::ChunkRequest { .. } => "chunk-request",
            Message::ChunkData { .. } => "chunk-data",
            Message::ChunkUnavailable { .. } => "chunk-unavailable",
            Message::ConnectRequest { .. } => "connect-request",
            Message::ConnectAccept { .. } => "connect-accept",
            Message::ConnectReject { .. } => "connect-reject",
            Message::Probe { .. } => "probe",
            Message::ProbeAck { .. } => "probe-ack",
            Message::Leave => "leave",
            Message::CacheDigest { .. } => "cache-digest",
            Message::JoinRequest { .. } => "join-request",
            Message::VideoRequest { .. } => "video-request",
            Message::ProviderLookup { .. } => "provider-lookup",
            Message::WatchStarted { .. } => "watch-started",
            Message::WatchStopped { .. } => "watch-stopped",
            Message::SubscriptionUpdate { .. } => "subscription-update",
            Message::LogOff => "log-off",
            Message::JoinResponse { .. } => "join-response",
            Message::OverlayContacts { .. } => "overlay-contacts",
            Message::ProviderList { .. } => "provider-list",
            Message::PopularityDigest { .. } => "popularity-digest",
        }
    }

    /// Returns `true` for bulk data transfers (everything else is
    /// signalling, whose bandwidth the paper treats as negligible).
    pub fn is_bulk(&self) -> bool {
        matches!(self, Message::ChunkData { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_encode_origin_and_counter() {
        let id = RequestId::new(NodeId::new(7), 42);
        assert_eq!(id.origin(), NodeId::new(7));
        assert_eq!(id.0 & 0xFFFF_FFFF, 42);
        assert_eq!(id.to_string(), "reqn7#42");
    }

    #[test]
    fn request_ids_are_unique_across_origins() {
        let a = RequestId::new(NodeId::new(1), 5);
        let b = RequestId::new(NodeId::new(2), 5);
        assert_ne!(a, b);
    }

    #[test]
    fn addr_display() {
        assert_eq!(PeerAddr::Peer(NodeId::new(3)).to_string(), "n3");
        assert_eq!(PeerAddr::Server.to_string(), "server");
    }

    #[test]
    fn tags_cover_bulk_classification() {
        let chunk = Message::ChunkData {
            id: RequestId::new(NodeId::new(0), 0),
            video: VideoId::new(0),
            chunk: 0,
            bits: 100,
            kind: TransferKind::Playback,
        };
        assert!(chunk.is_bulk());
        assert_eq!(chunk.tag(), "chunk-data");
        assert!(!Message::Leave.is_bulk());
        assert_eq!(Message::Leave.tag(), "leave");
    }
}

#[cfg(test)]
mod layout {
    use super::*;

    /// Pins the hot-path message layout. `Message` moves through the event
    /// queue by value and is cloned on every fan-out, so growth here taxes
    /// all protocols at once. The current ceiling is set by `JoinResponse`
    /// (a `VideoId` plus two `Arc<[NodeId]>` fat pointers); a new variant
    /// that fails this assertion should box or `Arc` its payload instead.
    #[test]
    fn message_stays_within_size_budget() {
        assert_eq!(std::mem::size_of::<Message>(), 40);
        // Variable-length payloads are two-word shared slices, not
        // three-word growable vectors.
        assert_eq!(
            std::mem::size_of::<Arc<[NodeId]>>(),
            2 * std::mem::size_of::<usize>()
        );
    }
}
