//! Length-prefixed binary codec for protocol frames.
//!
//! Every frame is `u32` big-endian payload length followed by the payload.
//! The payload starts with a one-byte frame tag; [`Message`]s are encoded
//! with a one-byte variant tag followed by their fields in declaration
//! order. Variable-length collections carry a `u32` count. The format is
//! deliberately explicit — no reflection, no schema evolution — because the
//! testbed always runs matching builds on both ends.

use socialtube::{LinkKind, Message, QueryScope, RequestId, TransferKind};
use socialtube_model::{CategoryId, ChannelId, NodeId, VideoId};

/// A transport frame: session handshake or protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// First frame on every connection: identifies the sender.
    /// `u32::MAX` identifies the server.
    Hello {
        /// Sending node (or `u32::MAX` for the server).
        sender: u32,
    },
    /// A protocol message.
    Msg(Message),
    /// A bulk message (a chunk) and the time its sender's upload link
    /// finishes sending it, in microseconds on the deployment's shared
    /// testbed clock. It crosses the socket at once; the receiver delivers
    /// it the link's injected delay after `done`.
    Paced {
        /// Completion time on the sender's upload link, in microseconds.
        done: u64,
        /// The message.
        msg: Message,
    },
}

/// Codec failures.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before the announced length.
    Truncated,
    /// An unknown frame or variant tag was read.
    UnknownTag(u8),
    /// A length field exceeded sanity bounds.
    OversizedFrame(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown tag {t}"),
            WireError::OversizedFrame(n) => write!(f, "oversized frame of {n} bytes"),
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on an encoded frame; anything larger is a protocol error.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

// ---------------------------------------------------------------- helpers

/// Big-endian appends to the frame under construction.
trait Put {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
}

impl Put for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
}

fn put_node(buf: &mut Vec<u8>, n: NodeId) {
    buf.put_u32(n.as_u32());
}

fn put_opt_u32(buf: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(x) => {
            buf.put_u8(1);
            buf.put_u32(x);
        }
        None => buf.put_u8(0),
    }
}

/// A counted collection of ids, each written as its `u32`.
fn put_ids<T: Copy>(buf: &mut Vec<u8>, ids: &[T], as_u32: fn(T) -> u32) {
    buf.put_u32(ids.len() as u32);
    for id in ids {
        buf.put_u32(as_u32(*id));
    }
}

fn put_kind(buf: &mut Vec<u8>, kind: TransferKind) {
    buf.put_u8(match kind {
        TransferKind::Playback => 0,
        TransferKind::Prefetch => 1,
    });
}

fn put_link(buf: &mut Vec<u8>, kind: LinkKind) {
    buf.put_u8(match kind {
        LinkKind::Inner => 0,
        LinkKind::Inter => 1,
    });
}

/// Cursor over one frame payload; every read checks what is left.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.buf.split_first_chunk().ok_or(WireError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(u8::from_be_bytes(self.take()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take()?))
    }

    /// Reads the `u32` element count of a collection of 4-byte ids. A
    /// count the rest of the payload cannot hold is refused before
    /// anything is allocated for it.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME_BYTES / 4 {
            return Err(WireError::OversizedFrame(n));
        }
        if n > self.buf.len() / 4 {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// A counted collection of ids, each built from its `u32`.
    fn ids<T>(&mut self, new: fn(u32) -> T) -> Result<Vec<T>, WireError> {
        let n = self.count()?;
        (0..n).map(|_| self.u32().map(new)).collect()
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        Ok(NodeId::new(self.u32()?))
    }

    fn video(&mut self) -> Result<VideoId, WireError> {
        Ok(VideoId::new(self.u32()?))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }

    fn kind(&mut self) -> Result<TransferKind, WireError> {
        match self.u8()? {
            0 => Ok(TransferKind::Playback),
            1 => Ok(TransferKind::Prefetch),
            t => Err(WireError::UnknownTag(t)),
        }
    }

    fn link(&mut self) -> Result<LinkKind, WireError> {
        match self.u8()? {
            0 => Ok(LinkKind::Inner),
            1 => Ok(LinkKind::Inter),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

// ------------------------------------------------------------- frame codec

/// Encodes a frame, prefixing the `u32` payload length.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    // The prefix is reserved first and patched once the payload's length
    // is known, so a frame is one allocation.
    let mut out = Vec::with_capacity(64);
    out.put_u32(0);
    match frame {
        Frame::Hello { sender } => {
            out.put_u8(0);
            out.put_u32(*sender);
        }
        Frame::Msg(msg) => {
            out.put_u8(1);
            encode_message(msg, &mut out);
        }
        Frame::Paced { done, msg } => {
            out.put_u8(2);
            out.put_u64(*done);
            encode_message(msg, &mut out);
        }
    }
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_be_bytes());
    out
}

/// Decodes one frame payload (without the length prefix).
///
/// # Errors
///
/// Returns a [`WireError`] on truncation or unknown tags.
pub fn decode_frame(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(payload);
    match r.u8()? {
        0 => Ok(Frame::Hello { sender: r.u32()? }),
        1 => Ok(Frame::Msg(decode_message(&mut r)?)),
        2 => Ok(Frame::Paced {
            done: r.u64()?,
            msg: decode_message(&mut r)?,
        }),
        t => Err(WireError::UnknownTag(t)),
    }
}

fn encode_message(msg: &Message, buf: &mut Vec<u8>) {
    match msg {
        Message::Query {
            id,
            video,
            ttl,
            origin,
            scope,
        } => {
            buf.put_u8(0);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            buf.put_u8(*ttl);
            put_node(buf, *origin);
            match scope {
                QueryScope::Channel(c) => {
                    buf.put_u8(0);
                    buf.put_u32(c.as_u32());
                }
                QueryScope::Category(c) => {
                    buf.put_u8(1);
                    buf.put_u32(c.as_u32());
                }
                QueryScope::PerVideo => buf.put_u8(2),
            }
        }
        Message::QueryHit {
            id,
            video,
            provider,
            provider_channel,
            ttl,
        } => {
            buf.put_u8(1);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            put_node(buf, *provider);
            put_opt_u32(buf, provider_channel.map(ChannelId::as_u32));
            buf.put_u8(*ttl);
        }
        Message::ChunkRequest {
            id,
            video,
            from_chunk,
            kind,
        } => {
            buf.put_u8(2);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            buf.put_u32(*from_chunk);
            put_kind(buf, *kind);
        }
        Message::ChunkData {
            id,
            video,
            chunk,
            bits,
            kind,
        } => {
            buf.put_u8(3);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            buf.put_u32(*chunk);
            buf.put_u64(*bits);
            put_kind(buf, *kind);
        }
        Message::ChunkUnavailable { id, video } => {
            buf.put_u8(4);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
        }
        Message::ConnectRequest {
            kind,
            channel,
            video,
        } => {
            buf.put_u8(5);
            put_link(buf, *kind);
            put_opt_u32(buf, channel.map(ChannelId::as_u32));
            put_opt_u32(buf, video.map(VideoId::as_u32));
        }
        Message::ConnectAccept {
            kind,
            channel,
            video,
        } => {
            buf.put_u8(6);
            put_link(buf, *kind);
            put_opt_u32(buf, channel.map(ChannelId::as_u32));
            put_opt_u32(buf, video.map(VideoId::as_u32));
        }
        Message::ConnectReject { kind } => {
            buf.put_u8(7);
            put_link(buf, *kind);
        }
        Message::Probe { nonce } => {
            buf.put_u8(8);
            buf.put_u64(*nonce);
        }
        Message::ProbeAck { nonce } => {
            buf.put_u8(9);
            buf.put_u64(*nonce);
        }
        Message::Leave => buf.put_u8(10),
        Message::CacheDigest { videos } => {
            buf.put_u8(11);
            put_ids(buf, videos, VideoId::as_u32);
        }
        Message::JoinRequest { video } => {
            buf.put_u8(12);
            buf.put_u32(video.as_u32());
        }
        Message::VideoRequest {
            id,
            video,
            from_chunk,
            kind,
        } => {
            buf.put_u8(13);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            buf.put_u32(*from_chunk);
            put_kind(buf, *kind);
        }
        Message::ProviderLookup { id, video } => {
            buf.put_u8(14);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
        }
        Message::WatchStarted { video } => {
            buf.put_u8(15);
            buf.put_u32(video.as_u32());
        }
        Message::WatchStopped { video } => {
            buf.put_u8(16);
            buf.put_u32(video.as_u32());
        }
        Message::SubscriptionUpdate { subscribed } => {
            buf.put_u8(17);
            put_ids(buf, subscribed, ChannelId::as_u32);
        }
        Message::LogOff => buf.put_u8(18),
        Message::JoinResponse {
            video,
            channel_contacts,
            category_contacts,
        } => {
            buf.put_u8(19);
            buf.put_u32(video.as_u32());
            put_ids(buf, channel_contacts, NodeId::as_u32);
            put_ids(buf, category_contacts, NodeId::as_u32);
        }
        Message::OverlayContacts { video, contacts } => {
            buf.put_u8(20);
            buf.put_u32(video.as_u32());
            put_ids(buf, contacts, NodeId::as_u32);
        }
        Message::ProviderList {
            id,
            video,
            providers,
        } => {
            buf.put_u8(21);
            buf.put_u64(id.0);
            buf.put_u32(video.as_u32());
            put_ids(buf, providers, NodeId::as_u32);
        }
        Message::PopularityDigest { channel, ranked } => {
            buf.put_u8(22);
            buf.put_u32(channel.as_u32());
            put_ids(buf, ranked, VideoId::as_u32);
        }
    }
}

fn decode_message(r: &mut Reader<'_>) -> Result<Message, WireError> {
    Ok(match r.u8()? {
        0 => Message::Query {
            id: RequestId(r.u64()?),
            video: r.video()?,
            ttl: r.u8()?,
            origin: r.node()?,
            scope: match r.u8()? {
                0 => QueryScope::Channel(ChannelId::new(r.u32()?)),
                1 => QueryScope::Category(CategoryId::new(r.u32()?)),
                2 => QueryScope::PerVideo,
                t => return Err(WireError::UnknownTag(t)),
            },
        },
        1 => Message::QueryHit {
            id: RequestId(r.u64()?),
            video: r.video()?,
            provider: r.node()?,
            provider_channel: r.opt_u32()?.map(ChannelId::new),
            ttl: r.u8()?,
        },
        2 => Message::ChunkRequest {
            id: RequestId(r.u64()?),
            video: r.video()?,
            from_chunk: r.u32()?,
            kind: r.kind()?,
        },
        3 => Message::ChunkData {
            id: RequestId(r.u64()?),
            video: r.video()?,
            chunk: r.u32()?,
            bits: r.u64()?,
            kind: r.kind()?,
        },
        4 => Message::ChunkUnavailable {
            id: RequestId(r.u64()?),
            video: r.video()?,
        },
        5 => Message::ConnectRequest {
            kind: r.link()?,
            channel: r.opt_u32()?.map(ChannelId::new),
            video: r.opt_u32()?.map(VideoId::new),
        },
        6 => Message::ConnectAccept {
            kind: r.link()?,
            channel: r.opt_u32()?.map(ChannelId::new),
            video: r.opt_u32()?.map(VideoId::new),
        },
        7 => Message::ConnectReject { kind: r.link()? },
        8 => Message::Probe { nonce: r.u64()? },
        9 => Message::ProbeAck { nonce: r.u64()? },
        10 => Message::Leave,
        11 => Message::CacheDigest {
            videos: r.ids(VideoId::new)?.into(),
        },
        12 => Message::JoinRequest { video: r.video()? },
        13 => Message::VideoRequest {
            id: RequestId(r.u64()?),
            video: r.video()?,
            from_chunk: r.u32()?,
            kind: r.kind()?,
        },
        14 => Message::ProviderLookup {
            id: RequestId(r.u64()?),
            video: r.video()?,
        },
        15 => Message::WatchStarted { video: r.video()? },
        16 => Message::WatchStopped { video: r.video()? },
        17 => Message::SubscriptionUpdate {
            subscribed: r.ids(ChannelId::new)?.into(),
        },
        18 => Message::LogOff,
        19 => Message::JoinResponse {
            video: r.video()?,
            channel_contacts: r.ids(NodeId::new)?.into(),
            category_contacts: r.ids(NodeId::new)?.into(),
        },
        20 => Message::OverlayContacts {
            video: r.video()?,
            contacts: r.ids(NodeId::new)?.into(),
        },
        21 => Message::ProviderList {
            id: RequestId(r.u64()?),
            video: r.video()?,
            providers: r.ids(NodeId::new)?.into(),
        },
        22 => Message::PopularityDigest {
            channel: ChannelId::new(r.u32()?),
            ranked: r.ids(VideoId::new)?.into(),
        },
        t => return Err(WireError::UnknownTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(frame: &Frame) -> Frame {
        let encoded = encode_frame(frame);
        let len = u32::from_be_bytes(encoded[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, encoded.len() - 4, "length prefix is consistent");
        decode_frame(&encoded[4..]).expect("frame decodes")
    }

    #[test]
    fn hello_round_trips() {
        let f = Frame::Hello { sender: 42 };
        assert_eq!(round_trip(&f), f);
    }

    #[test]
    fn every_variant_round_trips() {
        let id = RequestId::new(NodeId::new(7), 3);
        let samples = vec![
            Message::Query {
                id,
                video: VideoId::new(1),
                ttl: 2,
                origin: NodeId::new(7),
                scope: QueryScope::Channel(ChannelId::new(4)),
            },
            Message::Query {
                id,
                video: VideoId::new(1),
                ttl: 0,
                origin: NodeId::new(7),
                scope: QueryScope::Category(CategoryId::new(9)),
            },
            Message::Query {
                id,
                video: VideoId::new(1),
                ttl: 1,
                origin: NodeId::new(7),
                scope: QueryScope::PerVideo,
            },
            Message::QueryHit {
                id,
                video: VideoId::new(1),
                provider: NodeId::new(8),
                provider_channel: Some(ChannelId::new(2)),
                ttl: 3,
            },
            Message::QueryHit {
                id,
                video: VideoId::new(1),
                provider: NodeId::new(8),
                provider_channel: None,
                ttl: 0,
            },
            Message::ChunkRequest {
                id,
                video: VideoId::new(1),
                from_chunk: 3,
                kind: TransferKind::Playback,
            },
            Message::ChunkData {
                id,
                video: VideoId::new(1),
                chunk: 5,
                bits: 123_456_789,
                kind: TransferKind::Prefetch,
            },
            Message::ChunkUnavailable {
                id,
                video: VideoId::new(1),
            },
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: Some(ChannelId::new(3)),
                video: None,
            },
            Message::ConnectAccept {
                kind: LinkKind::Inter,
                channel: None,
                video: Some(VideoId::new(9)),
            },
            Message::ConnectReject {
                kind: LinkKind::Inter,
            },
            Message::Probe { nonce: u64::MAX },
            Message::ProbeAck { nonce: 0 },
            Message::Leave,
            Message::CacheDigest {
                videos: vec![VideoId::new(1), VideoId::new(2)].into(),
            },
            Message::JoinRequest {
                video: VideoId::new(1),
            },
            Message::VideoRequest {
                id,
                video: VideoId::new(1),
                from_chunk: 0,
                kind: TransferKind::Playback,
            },
            Message::ProviderLookup {
                id,
                video: VideoId::new(1),
            },
            Message::WatchStarted {
                video: VideoId::new(1),
            },
            Message::WatchStopped {
                video: VideoId::new(1),
            },
            Message::SubscriptionUpdate {
                subscribed: vec![ChannelId::new(1), ChannelId::new(5)].into(),
            },
            Message::LogOff,
            Message::JoinResponse {
                video: VideoId::new(1),
                channel_contacts: vec![NodeId::new(2)].into(),
                category_contacts: vec![NodeId::new(3), NodeId::new(4)].into(),
            },
            Message::OverlayContacts {
                video: VideoId::new(1),
                contacts: vec![].into(),
            },
            Message::ProviderList {
                id,
                video: VideoId::new(1),
                providers: vec![NodeId::new(5)].into(),
            },
            Message::PopularityDigest {
                channel: ChannelId::new(1),
                ranked: vec![VideoId::new(3), VideoId::new(1)].into(),
            },
        ];
        for (i, msg) in (0u64..).zip(samples) {
            let tag = msg.tag();
            let paced = Frame::Paced {
                done: u64::MAX - i,
                msg: msg.clone(),
            };
            for f in [Frame::Msg(msg), paced] {
                assert_eq!(round_trip(&f), f, "variant {tag}");
            }
        }
    }

    #[test]
    fn truncated_frames_error() {
        let f = Frame::Msg(Message::Probe { nonce: 7 });
        let encoded = encode_frame(&f);
        for cut in 0..(encoded.len() - 4) {
            let r = decode_frame(&encoded[4..4 + cut]);
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn unknown_tags_error() {
        assert_eq!(decode_frame(&[99]), Err(WireError::UnknownTag(99)));
        assert_eq!(decode_frame(&[1, 200]), Err(WireError::UnknownTag(200)));
        assert_eq!(decode_frame(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_collection_rejected() {
        // SubscriptionUpdate claiming u32::MAX entries.
        let mut payload = vec![1u8, 17];
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_frame(&payload),
            Err(WireError::OversizedFrame(_))
        ));
        // Within the cap but more than the rest of the payload holds: each
        // collection is refused at its count, before anything is sized
        // from it.
        let count = ((MAX_FRAME_BYTES / 4) as u32).to_be_bytes();
        let video = 1u32.to_be_bytes();
        let claims: [&[&[u8]]; 4] = [
            &[&[1, 17], &count],                   // SubscriptionUpdate
            &[&[1, 11], &count],                   // CacheDigest
            &[&[1, 20], &video, &count],           // OverlayContacts
            &[&[1, 22], &video, &count, &[0; 40]], // PopularityDigest, ten ids present
        ];
        for parts in claims {
            assert_eq!(decode_frame(&parts.concat()), Err(WireError::Truncated));
        }
    }

    #[test]
    fn error_display_is_informative() {
        assert_eq!(WireError::Truncated.to_string(), "frame truncated");
        assert_eq!(WireError::UnknownTag(3).to_string(), "unknown tag 3");
        assert!(WireError::OversizedFrame(9).to_string().contains('9'));
    }

    proptest! {
        #[test]
        fn chunk_data_round_trips(origin in 0u32..1000, counter in 0u32..1000,
                                  video in 0u32..100_000, chunk in 0u32..64,
                                  bits in 0u64..u64::MAX, prefetch in any::<bool>()) {
            let msg = Message::ChunkData {
                id: RequestId::new(NodeId::new(origin), counter),
                video: VideoId::new(video),
                chunk,
                bits,
                kind: if prefetch { TransferKind::Prefetch } else { TransferKind::Playback },
            };
            let f = Frame::Msg(msg);
            prop_assert_eq!(round_trip(&f), f);
        }

        #[test]
        fn digests_round_trip(videos in proptest::collection::vec(0u32..100_000, 0..200)) {
            let msg = Message::CacheDigest {
                videos: videos.into_iter().map(VideoId::new).collect(),
            };
            let f = Frame::Msg(msg);
            prop_assert_eq!(round_trip(&f), f);
        }

        #[test]
        fn arbitrary_bytes_never_panic(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_frame(&payload);
        }
    }
}
