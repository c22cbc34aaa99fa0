//! Chunk transfer: what every protocol does the same once it knows (or
//! has given up finding) a provider.
//!
//! The protocols differ in *how a provider is found* and in what is cached
//! and prefetched; moving chunks is common ground and lives here once:
//! request ids, the chunk range a request is answered with, answering a
//! [`Message::ChunkRequest`], checking and accounting a
//! [`Message::ChunkData`], and asking a provider or the origin.

use std::ops::Range;
use std::sync::Arc;

use socialtube_model::{Catalog, ChunkIndex, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimTime};

use crate::messages::{Message, PeerAddr, RequestId};
use crate::traits::{ChunkSource, Outbox, Report, SearchPhase, TimerKind, TransferKind};
use crate::vecmap::VecMap;

/// The chunks that answer a request for `from_chunk` onwards of a video
/// with `total` chunks: the one requested chunk for a prefetch, through
/// the last chunk for playback; empty when `from_chunk` is past the end.
/// Peers and the origin both serve exactly this range.
pub fn served_chunks(from_chunk: ChunkIndex, total: u32, kind: TransferKind) -> Range<ChunkIndex> {
    let end = match kind {
        TransferKind::Prefetch => from_chunk.saturating_add(1).min(total),
        TransferKind::Playback => total,
    };
    from_chunk..end
}

/// One request in flight.
#[derive(Clone, Debug)]
pub struct Transfer {
    /// The requested video.
    pub video: VideoId,
    /// Playback or prefetch.
    pub kind: TransferKind,
    /// The tier resolving the request; `Server` once the origin serves it.
    /// Protocols with a single peer tier stay at `Channel` until then.
    pub phase: SearchPhase,
    /// When the user selected the video.
    pub requested_at: SimTime,
    /// The peer currently asked for the chunks.
    pub provider: Option<NodeId>,
    /// First chunk of the current ask: set it to the next missing chunk
    /// before asking someone else.
    pub from_chunk: ChunkIndex,
    /// Highest chunk index that arrived on this request, plus one.
    pub received: u32,
    /// Whether `PlaybackStarted` was already reported for the request.
    pub playback_reported: bool,
}

impl Transfer {
    /// Whether the request has been handed to the origin.
    pub fn at_origin(&self) -> bool {
        self.phase == SearchPhase::Server
    }
}

/// What a delivered chunk meant for its request.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Progress {
    /// Playback began with this chunk.
    pub started: bool,
    /// The request is complete and forgotten.
    pub done: bool,
}

/// A peer's requests in flight and the transfer rules around them.
#[derive(Debug)]
pub struct Transfers {
    node: NodeId,
    catalog: Arc<Catalog>,
    next_request: u32,
    /// Probed on every chunk delivery — a sorted vec map (see [`VecMap`])
    /// since a peer runs at most a few requests at once.
    active: VecMap<RequestId, Transfer>,
    /// Providers still to try per request, last first. Kept beside
    /// `active` so a request without candidates pays nothing for them.
    candidates: VecMap<RequestId, Vec<NodeId>>,
}

impl Transfers {
    /// No requests in flight for `node`.
    pub fn new(node: NodeId, catalog: Arc<Catalog>) -> Self {
        Self {
            node,
            catalog,
            next_request: 0,
            active: VecMap::new(),
            candidates: VecMap::new(),
        }
    }

    /// The requesting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The catalog chunk counts and sizes come from.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Number of chunks `video` is divided into (1 for an unknown video).
    pub fn chunks_in(&self, video: VideoId) -> u32 {
        self.catalog.video(video).map_or(1, |v| v.chunk_count())
    }

    /// Whether `chunk` is one of `video`'s chunks in the catalog: the wire
    /// carries any id and index, and a `ChunkData` failing this is dropped.
    pub fn has_chunk(&self, video: VideoId, chunk: ChunkIndex) -> bool {
        self.catalog
            .video(video)
            .is_ok_and(|v| chunk < v.chunk_count())
    }

    /// The request `id`, if in flight.
    pub fn get(&self, id: RequestId) -> Option<&Transfer> {
        self.active.get(&id)
    }

    /// The request `id`, if in flight.
    pub fn get_mut(&mut self, id: RequestId) -> Option<&mut Transfer> {
        self.active.get_mut(&id)
    }

    /// Requests in flight, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RequestId, &Transfer)> {
        self.active.iter().map(|(id, t)| (*id, t))
    }

    /// Forgets the request `id`.
    pub fn remove(&mut self, id: RequestId) {
        self.active.remove(&id);
        self.candidates.remove(&id);
    }

    /// Forgets every request (logout).
    pub fn clear(&mut self) {
        self.active.clear();
        self.candidates.clear();
    }

    /// Opens a request under a fresh id, in the `Channel` phase with no
    /// provider.
    pub fn begin(
        &mut self,
        now: SimTime,
        video: VideoId,
        kind: TransferKind,
        from_chunk: ChunkIndex,
        playback_reported: bool,
    ) -> RequestId {
        let id = RequestId::new(self.node, self.next_request);
        self.next_request = self.next_request.wrapping_add(1);
        self.active.insert(
            id,
            Transfer {
                video,
                kind,
                phase: SearchPhase::Channel,
                requested_at: now,
                provider: None,
                from_chunk,
                received: 0,
                playback_reported,
            },
        );
        id
    }

    /// The phase of request `id` if it is still looking for a provider:
    /// in flight, nobody asked, not handed to the origin. The first hit
    /// wins; a deadline for a request that moved on is stale.
    pub fn searching(&self, id: RequestId) -> Option<SearchPhase> {
        self.get(id)
            .filter(|t| t.provider.is_none() && !t.at_origin())
            .map(|t| t.phase)
    }

    /// Asks `provider` for request `id` from its `from_chunk`, arming a
    /// [`TimerKind::ChunkDeadline`] after `deadline` if one is given.
    pub fn ask_provider(
        &mut self,
        id: RequestId,
        provider: NodeId,
        deadline: Option<SimDuration>,
        out: &mut Outbox,
    ) {
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        t.provider = Some(provider);
        out.to_peer(
            provider,
            Message::ChunkRequest {
                id,
                video: t.video,
                from_chunk: t.from_chunk,
                kind: t.kind,
            },
        );
        if let Some(deadline) = deadline {
            out.timer(deadline, TimerKind::ChunkDeadline { id });
        }
    }

    /// Replaces the providers still to try for `id`; they are asked in
    /// the order given.
    pub fn set_candidates(&mut self, id: RequestId, in_order: &[NodeId]) {
        self.candidates
            .insert(id, in_order.iter().rev().copied().collect());
    }

    /// The provider of `id` failed or there was none yet: asks the next
    /// untried candidate and returns it, or `None` when none is left.
    pub fn next_candidate(
        &mut self,
        id: RequestId,
        deadline: SimDuration,
        out: &mut Outbox,
    ) -> Option<NodeId> {
        self.active.get_mut(&id)?.provider = None;
        let candidate = self.candidates.get_mut(&id)?.pop()?;
        self.ask_provider(id, candidate, Some(deadline), out);
        Some(candidate)
    }

    /// Hands request `id` to the origin from its `from_chunk`; a playback
    /// request reports the fallback.
    pub fn ask_origin(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(t) = self.active.get_mut(&id) else {
            return;
        };
        t.provider = None;
        t.phase = SearchPhase::Server;
        if t.kind == TransferKind::Playback {
            out.report(Report::ServerFallback {
                node: self.node,
                video: t.video,
            });
        }
        out.to_server(Message::VideoRequest {
            id,
            video: t.video,
            from_chunk: t.from_chunk,
            kind: t.kind,
        });
    }

    /// Answers a `ChunkRequest`: the [`served_chunks`] when the whole video
    /// is `held`, `ChunkUnavailable` otherwise. Returns whether chunks
    /// were served.
    #[allow(clippy::too_many_arguments)] // the message's fields and its sender
    pub fn serve(
        &self,
        held: bool,
        from: PeerAddr,
        id: RequestId,
        video: VideoId,
        from_chunk: ChunkIndex,
        kind: TransferKind,
        out: &mut Outbox,
    ) -> bool {
        let PeerAddr::Peer(requester) = from else {
            return false;
        };
        if !held {
            out.to_peer(requester, Message::ChunkUnavailable { id, video });
            return false;
        }
        let (total, bits) = self
            .catalog
            .video(video)
            .map_or((1, 0), |v| (v.chunk_count(), v.chunk_size_bits()));
        for chunk in served_chunks(from_chunk, total, kind) {
            out.to_peer(
                requester,
                Message::ChunkData {
                    id,
                    video,
                    chunk,
                    bits,
                    kind,
                },
            );
        }
        true
    }

    /// Accounts a delivered chunk: reports it, reports playback on the
    /// first chunk of a request that has not started yet, and forgets the
    /// request once its last chunk (the only one, for a prefetch) is in.
    /// Storing the chunk is the caller's business.
    #[allow(clippy::too_many_arguments)] // the message's fields and its sender
    pub fn on_chunk(
        &mut self,
        from: PeerAddr,
        id: RequestId,
        video: VideoId,
        chunk: ChunkIndex,
        bits: u64,
        kind: TransferKind,
        out: &mut Outbox,
    ) -> Progress {
        let source = match from {
            PeerAddr::Peer(_) => ChunkSource::Peer,
            PeerAddr::Server => ChunkSource::Server,
        };
        out.report(Report::ChunkReceived {
            node: self.node,
            video,
            bits,
            source,
            kind,
        });
        let total = self.chunks_in(video);
        let mut progress = Progress::default();
        if let Some(t) = self.active.get_mut(&id) {
            t.received = t.received.max(chunk + 1);
            if kind == TransferKind::Playback && !t.playback_reported && chunk == t.from_chunk {
                t.playback_reported = true;
                progress.started = true;
                out.report(Report::PlaybackStarted {
                    node: self.node,
                    video,
                    requested_at: t.requested_at,
                    source,
                });
            }
            progress.done = match kind {
                TransferKind::Prefetch => chunk == t.from_chunk,
                TransferKind::Playback => chunk + 1 >= total,
            };
        }
        if progress.done {
            self.remove(id);
        }
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Command;
    use socialtube_model::CatalogBuilder;
    use TransferKind::{Playback, Prefetch};

    const ME: NodeId = NodeId::new(0);
    const VIDEO: VideoId = VideoId::new(0);

    fn transfers() -> Transfers {
        let mut b = CatalogBuilder::new();
        let category = b.add_category();
        let channel = b.add_channel([category]);
        assert_eq!(b.add_video(channel, 100, 0), VIDEO);
        Transfers::new(ME, Arc::new(b.build()))
    }

    #[test]
    fn candidates_are_asked_in_the_order_given_until_none_is_left() {
        let mut t = transfers();
        let mut out = Outbox::new();
        let id = t.begin(SimTime::ZERO, VIDEO, Playback, 0, false);
        assert_eq!(id, RequestId::new(ME, 0));
        assert_eq!(t.searching(id), Some(SearchPhase::Channel));
        let (first, second) = (NodeId::new(4), NodeId::new(2));
        t.set_candidates(id, &[first, second]);
        let timeout = SimDuration::from_secs(1);
        for candidate in [first, second] {
            assert_eq!(t.next_candidate(id, timeout, &mut out), Some(candidate));
            assert_eq!(t.get(id).unwrap().provider, Some(candidate));
            assert_eq!(t.searching(id), None, "someone is being asked");
        }
        assert_eq!(t.next_candidate(id, timeout, &mut out), None);
        assert_eq!(t.searching(id), Some(SearchPhase::Channel));
        t.ask_origin(id, &mut out);
        assert!(t.get(id).unwrap().at_origin());
        assert_eq!(t.searching(id), None, "the origin serves it");
        t.remove(id);
        assert_eq!(t.next_candidate(id, timeout, &mut out), None);
        assert_eq!(t.begin(SimTime::ZERO, VIDEO, Prefetch, 0, true).0, id.0 + 1);
    }

    #[test]
    fn a_chunk_for_a_forgotten_request_is_counted_and_nothing_else() {
        let mut t = transfers();
        let mut out = Outbox::new();
        let stale = RequestId::new(ME, 9);
        let from = PeerAddr::Peer(NodeId::new(3));
        let progress = t.on_chunk(from, stale, VIDEO, 0, 10, Playback, &mut out);
        assert_eq!(progress, Progress::default());
        let counted = Report::ChunkReceived {
            node: ME,
            video: VIDEO,
            bits: 10,
            source: ChunkSource::Peer,
            kind: Playback,
        };
        assert_eq!(out.commands(), [Command::Report(counted)]);
    }

    #[test]
    fn served_chunks_edges() {
        let cases = [
            ((0, 8, Playback), 0..8),
            ((5, 8, Playback), 5..8),
            ((7, 8, Playback), 7..8),
            ((0, 8, Prefetch), 0..1),
            ((7, 8, Prefetch), 7..8), // prefetch of the last chunk
            ((0, 1, Playback), 0..1), // one-chunk video
            ((0, 1, Prefetch), 0..1),
        ];
        for ((from_chunk, total, kind), want) in cases {
            assert_eq!(served_chunks(from_chunk, total, kind), want);
        }
        for kind in [Playback, Prefetch] {
            for from_chunk in [8, 9, u32::MAX] {
                let past_the_end = served_chunks(from_chunk, 8, kind);
                assert_eq!(past_the_end.count(), 0, "{kind:?} from {from_chunk}");
            }
        }
    }

    /// The inclusive range the peers and `flush_server` each used to
    /// compute for themselves.
    #[test]
    fn served_chunks_match_the_inclusive_formula() {
        for total in 1..=9u32 {
            for from_chunk in 0..=10u32 {
                for kind in [Playback, Prefetch] {
                    let last = match kind {
                        Prefetch => from_chunk,
                        Playback => total - 1,
                    };
                    let want: Vec<u32> = (from_chunk..=last.min(total - 1)).collect();
                    let got: Vec<u32> = served_chunks(from_chunk, total, kind).collect();
                    assert_eq!(got, want, "{kind:?} from {from_chunk} of {total}");
                }
            }
        }
    }
}
