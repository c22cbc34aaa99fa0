//! Flooded search and the session cache it answers from. SocialTube and
//! NetTube differ only in which neighbours a flood reaches — channel and
//! category links, or per-video overlays — and that reaches this module as
//! the set of neighbours a caller hands in.

use socialtube_model::{ChannelId, ChunkIndex, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimTime};

use crate::cache::VideoCache;
use crate::messages::{Message, PeerAddr, QueryScope, RequestId};
use crate::seen::SeenWindow;
use crate::traits::{ChunkSource, Outbox, Report, TimerKind};
use crate::transfer::{Progress, Transfers};

/// How many handled query ids a flooding peer remembers, oldest evicted
/// first, so a long-lived peer's dedup state stays O(window).
pub const SEEN_QUERY_WINDOW: usize = 512;

/// A flooding peer's cache and duplicate-suppression window, and the rules
/// that read them. Requests in flight stay in the [`Transfers`] each call
/// borrows.
#[derive(Debug)]
pub struct Flood {
    cache: VideoCache,
    seen: SeenWindow,
}

impl Flood {
    /// An empty cache (of at most `cache_capacity` videos) and window.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is `Some(0)`.
    pub fn new(cache_capacity: Option<usize>) -> Self {
        Self {
            cache: VideoCache::from_config(cache_capacity),
            seen: SeenWindow::new(SEEN_QUERY_WINDOW),
        }
    }

    /// Read-only view of the cache.
    pub fn cache(&self) -> &VideoCache {
        &self.cache
    }

    /// Floods request `id` in its current phase: a `Query` with `ttl` to
    /// each of `to`, then, if anyone was asked, a `SearchDeadline` after
    /// `deadline`. Returns whether anyone was asked.
    pub fn start(
        transfers: &Transfers,
        id: RequestId,
        ttl: u8,
        deadline: SimDuration,
        scope: QueryScope,
        to: impl IntoIterator<Item = NodeId>,
        out: &mut Outbox,
    ) -> bool {
        let Some(t) = transfers.get(id) else {
            return false;
        };
        let (video, phase, origin) = (t.video, t.phase, transfers.node());
        let mut asked = false;
        for n in to {
            let query = Message::Query {
                id,
                video,
                ttl,
                origin,
                scope,
            };
            out.to_peer(n, query);
            asked = true;
        }
        if asked {
            out.timer(deadline, TimerKind::SearchDeadline { id, phase });
        }
        asked
    }

    /// Answers a delivered `query` (a [`Message::Query`]; anything else is
    /// ignored). A query this peer started or handled already is dropped.
    /// A held video is answered to the origin with a `QueryHit` carrying
    /// `provider_channel`. Otherwise a query at TTL 0 dies with
    /// `TtlExpired` — it still reached nodes TTL + 1 hops away — and any
    /// other goes on with `ttl − 1` to each of `forward` but the sender
    /// and the origin.
    ///
    /// The two checks that end most deliveries are usually answered from
    /// the peer's own struct: a video not held in full mostly has a clear
    /// bit in the cache's filter, and a duplicate is mostly one of the
    /// window's four newest ids.
    #[allow(clippy::too_many_arguments)] // the message, its sender and the answer's context
    pub fn on_query(
        &mut self,
        transfers: &Transfers,
        now: SimTime,
        from: PeerAddr,
        query: Message,
        provider_channel: Option<ChannelId>,
        forward: impl IntoIterator<Item = NodeId>,
        out: &mut Outbox,
    ) {
        let Message::Query {
            id,
            video,
            ttl,
            origin,
            scope,
        } = query
        else {
            return;
        };
        let node = transfers.node();
        let held = self.cache.has_full(video);
        if origin == node || !self.seen.insert(id) {
            return;
        }
        if held {
            self.cache.touch(video, now.as_micros());
            let hit = Message::QueryHit {
                id,
                video,
                provider: node,
                provider_channel,
                ttl,
            };
            return out.to_peer(origin, hit);
        }
        if ttl == 0 {
            return out.report(Report::TtlExpired { node, video });
        }
        for n in forward {
            if PeerAddr::Peer(n) != from && n != origin {
                let query = Message::Query {
                    id,
                    video,
                    ttl: ttl - 1,
                    origin,
                    scope,
                };
                out.to_peer(n, query);
            }
        }
    }

    /// Takes a delivered `hit` (a [`Message::QueryHit`]) for a flood
    /// started with `ttl`. The first hit for a request still searching
    /// reports `SearchResolved`, with the hops the remaining TTL encodes,
    /// and asks the provider under `chunk_timeout`. Returns whether the
    /// hit won; later and stale hits change nothing.
    pub fn on_hit(
        transfers: &mut Transfers,
        hit: Message,
        ttl: u8,
        chunk_timeout: SimDuration,
        out: &mut Outbox,
    ) -> bool {
        let Message::QueryHit {
            id,
            video,
            provider,
            ttl: left,
            ..
        } = hit
        else {
            return false;
        };
        let Some(phase) = transfers.searching(id) else {
            return false;
        };
        out.report(Report::SearchResolved {
            node: transfers.node(),
            video,
            phase,
            hops: ttl.saturating_sub(left).saturating_add(1),
        });
        transfers.ask_provider(id, provider, Some(chunk_timeout), out);
        true
    }

    /// Serves a delivered [`Message::ChunkRequest`] from the videos held
    /// in full, or stores and accounts a delivered [`Message::ChunkData`]
    /// (dropped unseen when the catalog has no such chunk); anything else
    /// is ignored. Returns what a chunk meant for its request.
    pub fn on_chunk(
        &mut self,
        transfers: &mut Transfers,
        now: SimTime,
        from: PeerAddr,
        msg: Message,
        out: &mut Outbox,
    ) -> Progress {
        match msg {
            Message::ChunkRequest {
                id,
                video,
                from_chunk,
                kind,
            } => {
                let held = self.cache.has_full(video);
                if transfers.serve(held, from, id, video, from_chunk, kind, out) {
                    self.cache.touch(video, now.as_micros());
                }
            }
            Message::ChunkData {
                id,
                video,
                chunk,
                bits,
                kind,
            } if transfers.has_chunk(video, chunk) => {
                let total = transfers.chunks_in(video);
                self.cache
                    .record_chunk(video, chunk, total, now.as_micros());
                return transfers.on_chunk(from, id, video, chunk, bits, kind, out);
            }
            _ => {}
        }
        Progress::default()
    }

    /// Starts playback of `video` from what the cache holds: the whole
    /// video, or a prefetched prefix. Returns whether playback started and
    /// the first chunk still to fetch (`None`: nothing left to fetch).
    pub fn start_from_cache(
        &mut self,
        transfers: &Transfers,
        now: SimTime,
        video: VideoId,
        out: &mut Outbox,
    ) -> (bool, Option<ChunkIndex>) {
        let (source, missing) = if self.cache.has_full(video) {
            self.cache.touch(video, now.as_micros());
            (ChunkSource::Cache, None)
        } else if self.cache.has_first_chunk(video) {
            let missing = self.cache.chunks_of(video);
            let rest = (missing < transfers.chunks_in(video)).then_some(missing);
            (ChunkSource::Prefetched, rest)
        } else {
            return (false, Some(0));
        };
        out.report(Report::PlaybackStarted {
            node: transfers.node(),
            video,
            requested_at: now,
            source,
        });
        (true, missing)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::traits::Command;
    use socialtube_model::CatalogBuilder;

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
    fn playback_starts_from_whatever_the_cache_holds() {
        let t = transfers();
        let total = t.chunks_in(VIDEO);
        let mut flood = Flood::new(None);
        let mut out = Outbox::new();
        let now = SimTime::from_micros(5);
        assert_eq!(
            flood.start_from_cache(&t, now, VIDEO, &mut out),
            (false, Some(0))
        );
        assert!(out.commands().is_empty(), "nothing local: nothing starts");
        for (cached, source, missing) in [
            (3, ChunkSource::Prefetched, Some(3)),
            (total, ChunkSource::Cache, None),
        ] {
            flood.cache.record_chunk(VIDEO, cached - 1, total, 0);
            let got = flood.start_from_cache(&t, now, VIDEO, &mut out);
            assert_eq!(got, (true, missing));
            let started = Report::PlaybackStarted {
                node: ME,
                video: VIDEO,
                requested_at: now,
                source,
            };
            assert_eq!(out.drain().collect::<Vec<_>>(), [Command::Report(started)]);
        }
    }
}
