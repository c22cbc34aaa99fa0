//! NetTube: per-video overlays with session caching and random-neighbor
//! prefetching (Cheng & Liu, INFOCOM'09).

use std::sync::Arc;

use socialtube::{
    serve_from_origin, Flood, IndexedTracker, LinkKind, Message, Outbox, PeerAddr, Prober,
    QueryScope, Report, RequestId, SearchPhase, ServerOutbox, SocialTubeConfig, TimerKind,
    TransferKind, Transfers, VecMap, VodPeer, VodServer,
};
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimRng, SimTime};

/// Links a peer keeps per video overlay, and contacts the server hands a
/// joining peer (the paper's analysis uses `log u`).
pub(crate) const LINKS_PER_VIDEO: usize = 5;

/// A NetTube peer.
///
/// Keeps one overlay's worth of links *per watched video* — links accumulate
/// with session length (the maintenance-overhead growth of Figs 15/18) and
/// two nodes may hold redundant links through different overlays. Lookups
/// flood all neighbors within [`SocialTubeConfig::ttl`] hops; prefetching
/// grabs first chunks of *random* videos from neighbors' caches.
#[derive(Debug)]
pub struct NetTubePeer {
    // The fields of the run's `SocialTubeConfig` NetTube reads, kept by
    // value: the simulator holds every peer in a slot the size of the
    // largest, so a whole config here would grow each slot.
    // `prefetch_count` 0 turns prefetching off.
    ttl: u8,
    prefetch_count: usize,
    probe_interval: SimDuration,
    probe_timeout: SimDuration,
    search_phase_timeout: SimDuration,
    chunk_timeout: SimDuration,
    prefetch_delay: SimDuration,
    rng: SimRng,

    online: bool,
    /// Per-video overlay links: `(neighbor, video)` pairs. Intentionally not
    /// deduplicated by neighbor — each pair is a link in one overlay.
    links: Vec<(NodeId, VideoId)>,
    /// First-occurrence dedup of `links`, rebuilt lazily after link churn:
    /// query floods read it on every hop, links change orders of magnitude
    /// less often.
    distinct_cache: Vec<NodeId>,
    distinct_dirty: bool,
    flood: Flood,
    /// Latest cache digest per overlay neighbor; the slice is shared with
    /// the message that carried it (digests are immutable snapshots).
    neighbor_digests: VecMap<NodeId, Arc<[VideoId]>>,

    /// Requests in flight: flooding (`Channel` phase) until the server
    /// serves them.
    transfers: Transfers,
    prober: Prober,
    /// The request whose flood miss sent this session's `JoinRequest`.
    /// NetTube asks the server for overlay providers only on the *first*
    /// miss of a session; once this is set, later misses are served by
    /// the server directly ("if the video is not found, the user resorts
    /// to the server").
    join_search: Option<RequestId>,
}

impl NetTubePeer {
    /// Creates an offline NetTube peer with the run's shared parameters.
    ///
    /// # Panics
    ///
    /// Panics if `config.cache_capacity` is `Some(0)`.
    pub fn new(
        node: NodeId,
        catalog: Arc<Catalog>,
        config: &SocialTubeConfig,
        rng: SimRng,
    ) -> Self {
        Self {
            ttl: config.ttl,
            prefetch_count: config.prefetch_count,
            probe_interval: config.probe_interval,
            probe_timeout: config.probe_timeout,
            search_phase_timeout: config.search_phase_timeout,
            chunk_timeout: config.chunk_timeout,
            prefetch_delay: config.prefetch_delay,
            rng,
            online: false,
            links: Vec::new(),
            distinct_cache: Vec::new(),
            distinct_dirty: false,
            flood: Flood::new(config.cache_capacity),
            neighbor_digests: VecMap::new(),
            transfers: Transfers::new(node, catalog),
            prober: Prober::new(),
            join_search: None,
        }
    }

    /// Rebuilds `distinct_cache`, the distinct neighbor nodes across all
    /// per-video overlays in order of first link, if link churn
    /// invalidated it.
    fn refresh_distinct(&mut self) {
        if self.distinct_dirty {
            self.distinct_cache.clear();
            first_occurrences(&self.links, &mut self.distinct_cache);
            self.distinct_dirty = false;
        }
    }

    fn overlay_link_count(&self, video: VideoId) -> usize {
        self.links.iter().filter(|(_, v)| *v == video).count()
    }

    fn add_link(&mut self, neighbor: NodeId, video: VideoId) -> bool {
        if neighbor == self.transfers.node() {
            return false;
        }
        if self.links.contains(&(neighbor, video)) {
            return false;
        }
        if self.overlay_link_count(video) >= LINKS_PER_VIDEO {
            return false;
        }
        self.links.push((neighbor, video));
        self.distinct_dirty = true;
        true
    }

    fn remove_node_links(&mut self, neighbor: NodeId) {
        self.links.retain(|(n, _)| *n != neighbor);
        self.distinct_dirty = true;
        self.neighbor_digests.remove(&neighbor);
    }

    fn connect_to(&mut self, target: NodeId, video: VideoId, out: &mut Outbox) {
        if target == self.transfers.node() || self.links.contains(&(target, video)) {
            return;
        }
        if self.overlay_link_count(video) >= LINKS_PER_VIDEO {
            return;
        }
        out.to_peer(
            target,
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: None,
                video: Some(video),
            },
        );
    }

    /// The flood (or the contacts the server named) found no provider for
    /// request `id`.
    fn ask_server(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(t) = self.transfers.get(id) else {
            return;
        };
        let video = t.video;
        if t.kind == TransferKind::Prefetch {
            // Prefetches never escalate to the server in NetTube — they are
            // opportunistic grabs from neighbors; just drop the request.
            self.transfers.remove(id);
            out.report(Report::PrefetchAbandoned {
                node: self.transfers.node(),
                video,
            });
        } else if self.join_search.is_none() {
            self.join_search = Some(id);
            out.to_server(Message::JoinRequest { video });
            out.timer(
                self.search_phase_timeout,
                TimerKind::SearchDeadline {
                    id,
                    phase: SearchPhase::Server,
                },
            );
        } else if !t.at_origin() {
            // Contacts exhausted (or past the initial join): the server
            // serves the video itself, not more contacts.
            self.transfers.ask_origin(id, out);
        }
    }

    /// Asks the next contact the server named for request `id`, linking to
    /// it; the server itself when none is left.
    fn try_candidate(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(video) = self.transfers.get(id).map(|t| t.video) else {
            return;
        };
        let timeout = self.chunk_timeout;
        match self.transfers.next_candidate(id, timeout, out) {
            Some(candidate) => self.connect_to(candidate, video, out),
            None => self.ask_server(id, out),
        }
    }

    /// The provider of `id` failed: continue from the next missing chunk.
    fn provider_failed(&mut self, id: RequestId, out: &mut Outbox) {
        if let Some(t) = self.transfers.get_mut(id) {
            t.from_chunk = self.flood.cache().chunks_of(t.video);
            self.try_candidate(id, out);
        }
    }

    fn schedule_prefetch(&mut self, out: &mut Outbox) {
        if self.prefetch_count > 0 {
            out.timer(self.prefetch_delay, TimerKind::PrefetchKick);
        }
    }
}

/// Appends to `nodes` (empty) each neighbor of `links` at its first link.
fn first_occurrences(links: &[(NodeId, VideoId)], nodes: &mut Vec<NodeId>) {
    for (n, _) in links {
        if !nodes.contains(n) {
            nodes.push(*n);
        }
    }
}

impl VodPeer for NetTubePeer {
    fn node(&self) -> NodeId {
        self.transfers.node()
    }

    fn on_login(&mut self, _now: SimTime, out: &mut Outbox) {
        self.online = true;
        // Re-establish the per-video overlay links remembered from earlier
        // sessions ("when a node finishes watching a video, it remains in
        // its overlay"); unanswered nodes are dropped at the deadline.
        // This is what makes NetTube's link count grow cumulatively with
        // videos watched (Fig 18).
        self.refresh_distinct();
        for &neighbor in &self.distinct_cache {
            let request = Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: None,
                video: self
                    .links
                    .iter()
                    .find(|(n, _)| *n == neighbor)
                    .map(|(_, v)| *v),
            };
            self.prober
                .reconnect(neighbor, request, self.probe_timeout, out);
        }
        out.timer(self.probe_interval, TimerKind::ProbeTick);
    }

    fn on_logout(&mut self, _now: SimTime, out: &mut Outbox) {
        self.online = false;
        self.join_search = None;
        self.refresh_distinct();
        for &neighbor in &self.distinct_cache {
            out.to_peer(neighbor, Message::Leave);
        }
        out.to_server(Message::LogOff);
        self.transfers.clear();
        self.prober.clear();
    }

    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox) {
        debug_assert!(self.online, "watch() on an offline peer");
        let (started, missing) = self
            .flood
            .start_from_cache(&self.transfers, now, video, out);
        if started {
            self.schedule_prefetch(out);
        }
        let Some(from_chunk) = missing else {
            return;
        };
        let id = self
            .transfers
            .begin(now, video, TransferKind::Playback, from_chunk, started);
        self.refresh_distinct();
        let to = self.distinct_cache.iter().copied();
        let (ttl, deadline) = (self.ttl, self.search_phase_timeout);
        let scope = QueryScope::PerVideo;
        if !Flood::start(&self.transfers, id, ttl, deadline, scope, to, out) {
            self.ask_server(id, out);
        }
    }

    fn on_message(&mut self, now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox) {
        if !self.online {
            return;
        }
        match msg {
            msg @ Message::Query { .. } => {
                self.refresh_distinct();
                let forward = self.distinct_cache.iter().copied();
                let transfers = &self.transfers;
                self.flood
                    .on_query(transfers, now, from, msg, None, forward, out);
            }

            msg @ Message::QueryHit {
                video, provider, ..
            } => {
                let (ttl, timeout) = (self.ttl, self.chunk_timeout);
                if Flood::on_hit(&mut self.transfers, msg, ttl, timeout, out) {
                    self.connect_to(provider, video, out);
                }
            }

            Message::OverlayContacts { video, contacts } => {
                // Response to our JoinRequest: adopt contacts as transfer
                // candidates and overlay links. The request is one the
                // server was asked about (for contacts or for service)
                // that nobody is serving from a peer.
                let search_id = self
                    .transfers
                    .iter()
                    .find(|(id, t)| {
                        let asked = t.at_origin() || self.join_search == Some(*id);
                        t.video == video && asked && t.provider.is_none()
                    })
                    .map(|(id, _)| id);
                for c in contacts.iter().take(LINKS_PER_VIDEO) {
                    self.connect_to(*c, video, out);
                }
                if let Some(id) = search_id {
                    self.transfers.set_candidates(id, &contacts);
                    self.try_candidate(id, out);
                }
            }

            msg @ (Message::ChunkRequest { video, kind, .. }
            | Message::ChunkData { video, kind, .. }) => {
                let progress = self
                    .flood
                    .on_chunk(&mut self.transfers, now, from, msg, out);
                if progress.started {
                    self.schedule_prefetch(out);
                }
                if progress.done && kind == TransferKind::Playback {
                    // Join the video's overlay as a future provider.
                    out.to_server(Message::WatchStarted { video });
                }
            }

            Message::ChunkUnavailable { id, .. } => self.provider_failed(id, out),

            Message::ConnectRequest { video, .. } => {
                let PeerAddr::Peer(requester) = from else {
                    return;
                };
                let Some(video) = video else {
                    return;
                };
                // NetTube accepts as long as the per-overlay budget allows;
                // an existing link is refreshed.
                let known = self.links.contains(&(requester, video));
                if known || self.add_link(requester, video) {
                    out.to_peer(
                        requester,
                        Message::ConnectAccept {
                            kind: LinkKind::Inner,
                            channel: None,
                            video: Some(video),
                        },
                    );
                    // Exchange cache digests: the basis of NetTube's
                    // random-neighbor prefetching.
                    out.to_peer(
                        requester,
                        Message::CacheDigest {
                            videos: self.flood.cache().full_videos().collect(),
                        },
                    );
                } else {
                    out.to_peer(
                        requester,
                        Message::ConnectReject {
                            kind: LinkKind::Inner,
                        },
                    );
                }
            }

            Message::ConnectAccept { video, .. } => {
                let PeerAddr::Peer(accepter) = from else {
                    return;
                };
                self.prober.answered(accepter);
                if let Some(video) = video {
                    self.add_link(accepter, video);
                }
                out.to_peer(
                    accepter,
                    Message::CacheDigest {
                        videos: self.flood.cache().full_videos().collect(),
                    },
                );
            }

            Message::ConnectReject { .. } => {
                if let PeerAddr::Peer(rejecter) = from {
                    self.prober.answered(rejecter);
                }
            }

            Message::CacheDigest { videos } => {
                if let PeerAddr::Peer(p) = from {
                    self.neighbor_digests.insert(p, videos);
                }
            }

            Message::Probe { nonce } => Prober::acknowledge(from, nonce, out),

            Message::ProbeAck { nonce } => self.prober.acked(nonce),

            Message::Leave => {
                if let PeerAddr::Peer(p) = from {
                    self.remove_node_links(p);
                }
            }

            _ => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if !self.online {
            return;
        }
        match timer {
            TimerKind::ProbeTick => {
                self.refresh_distinct();
                self.prober.tick(
                    self.distinct_cache.iter().copied(),
                    self.probe_interval,
                    self.probe_timeout,
                    out,
                );
            }

            TimerKind::ProbeDeadline { neighbor, nonce } => {
                let node = self.transfers.node();
                if self.prober.expired(node, neighbor, nonce, out) {
                    self.remove_node_links(neighbor);
                }
            }

            TimerKind::SearchDeadline { id, .. } => {
                if self.transfers.searching(id).is_some() {
                    self.ask_server(id, out);
                }
            }

            TimerKind::ChunkDeadline { id } => self.provider_failed(id, out),

            TimerKind::PrefetchKick => {
                // Random videos from neighbors' caches — NetTube's strategy,
                // which SocialTube's popularity-based choice improves on.
                let mut pool: Vec<(NodeId, VideoId)> = Vec::new();
                for (n, vids) in &self.neighbor_digests {
                    for v in vids.iter() {
                        if !self.flood.cache().has_first_chunk(*v) {
                            pool.push((*n, *v));
                        }
                    }
                }
                // `neighbor_digests` iterates in node order, but each digest
                // keeps its sender's cache order, so the pool is not yet in
                // (node, video) order. The picks index into this order:
                // dropping the sort would change every NetTube prefetch draw.
                pool.sort_unstable();
                let picks = self.rng.pick_distinct(&pool, self.prefetch_count);
                for (neighbor, video) in picks {
                    // No deadline: an unanswered grab just lingers until
                    // logout.
                    let id = self
                        .transfers
                        .begin(now, video, TransferKind::Prefetch, 0, true);
                    self.transfers.ask_provider(id, neighbor, None, out);
                }
            }
        }
    }

    fn link_count(&self) -> usize {
        self.links.len()
    }

    fn is_online(&self) -> bool {
        self.online
    }

    fn has_cached(&self, video: VideoId) -> bool {
        self.flood.cache().has_full(video)
    }
}

/// The NetTube server: per-video overlay tracker plus origin store.
#[derive(Debug)]
pub struct NetTubeServer {
    catalog: Arc<Catalog>,
    /// Per-video overlay membership, one group per video id (video ids
    /// are contiguous in the catalog).
    overlays: IndexedTracker,
    rng: SimRng,
}

impl NetTubeServer {
    /// Creates a server over `catalog`.
    pub fn new(catalog: Arc<Catalog>, rng: SimRng) -> Self {
        let videos = catalog.video_count();
        Self {
            catalog,
            overlays: IndexedTracker::new(videos),
            rng,
        }
    }
}

impl VodServer for NetTubeServer {
    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut ServerOutbox) {
        match msg {
            Message::JoinRequest { video } => {
                let contacts = self.overlays.groups().pick(
                    &mut self.rng,
                    video.index(),
                    from,
                    LINKS_PER_VIDEO,
                );
                out.to_peer(
                    from,
                    Message::OverlayContacts {
                        video,
                        contacts: contacts.into(),
                    },
                );
            }

            Message::WatchStarted { video } => self.overlays.join(video.index(), from),

            Message::LogOff => self.overlays.leave_all(from),

            Message::VideoRequest {
                id,
                video,
                from_chunk,
                kind,
            } => serve_from_origin(&self.catalog, from, id, video, from_chunk, kind, out),

            _ => {}
        }
    }

    fn tracked_entries(&self) -> usize {
        self.overlays.groups().tracked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::Command;
    use socialtube_model::CatalogBuilder;

    fn fixture() -> (Arc<Catalog>, Vec<VideoId>) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let vids: Vec<VideoId> = (0..3).map(|i| b.add_video(ch, 100, i)).collect();
        (Arc::new(b.build()), vids)
    }

    fn peer(node: u32) -> (NetTubePeer, Vec<VideoId>) {
        let (catalog, vids) = fixture();
        (
            NetTubePeer::new(
                NodeId::new(node),
                catalog,
                &SocialTubeConfig::default(),
                SimRng::seed(u64::from(node)),
            ),
            vids,
        )
    }

    fn to_server(out: &Outbox) -> Vec<&Message> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::ToServer { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn to_peers(out: &Outbox) -> Vec<(NodeId, &Message)> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::ToPeer { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn complete_download(p: &mut NetTubePeer, video: VideoId, id: RequestId, out: &mut Outbox) {
        for chunk in 0..socialtube_model::DEFAULT_CHUNKS_PER_VIDEO {
            p.on_message(
                SimTime::ZERO,
                PeerAddr::Server,
                Message::ChunkData {
                    id,
                    video,
                    chunk,
                    bits: 10,
                    kind: TransferKind::Playback,
                },
                out,
            );
        }
    }

    #[test]
    fn first_watch_without_neighbors_joins_via_server() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        assert!(to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::JoinRequest { .. })));
    }

    #[test]
    fn empty_overlay_contacts_mean_server_serves() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Server,
            Message::OverlayContacts {
                video: vids[0],
                contacts: vec![].into(),
            },
            &mut out,
        );
        assert!(to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
        assert!(out
            .commands()
            .iter()
            .any(|c| matches!(c, Command::Report(Report::ServerFallback { .. }))));
    }

    #[test]
    fn overlay_contacts_are_tried_and_connected() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Server,
            Message::OverlayContacts {
                video: vids[0],
                contacts: vec![NodeId::new(1), NodeId::new(2)].into(),
            },
            &mut out,
        );
        let sent = to_peers(&out);
        assert!(sent
            .iter()
            .any(|(to, m)| *to == NodeId::new(1) && matches!(m, Message::ChunkRequest { .. })));
        assert!(sent
            .iter()
            .any(|(_, m)| matches!(m, Message::ConnectRequest { video: Some(_), .. })));
    }

    #[test]
    fn finishing_download_joins_overlay_and_accumulates_links() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        // Watch and download video 0 from the server.
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        complete_download(&mut p, vids[0], RequestId::new(NodeId::new(0), 0), &mut out);
        assert!(to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::WatchStarted { .. })));
        assert!(p.has_cached(vids[0]));
        out.drain();
        // Connect links for two different videos to the same neighbor:
        // both are kept (redundant per-video links, the paper's critique).
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(9)),
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: None,
                video: Some(vids[0]),
            },
            &mut out,
        );
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(9)),
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: None,
                video: Some(vids[1]),
            },
            &mut out,
        );
        assert_eq!(p.link_count(), 2);
        p.refresh_distinct();
        assert_eq!(p.distinct_cache, vec![NodeId::new(9)]);
    }

    #[test]
    fn per_overlay_link_budget_is_enforced() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        let over = LINKS_PER_VIDEO as u32 + 1;
        for i in 1..=over {
            p.on_message(
                SimTime::ZERO,
                PeerAddr::Peer(NodeId::new(i)),
                Message::ConnectRequest {
                    kind: LinkKind::Inner,
                    channel: None,
                    video: Some(vids[0]),
                },
                &mut out,
            );
        }
        assert_eq!(p.link_count(), LINKS_PER_VIDEO);
        assert!(to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(over) && matches!(m, Message::ConnectReject { .. })));
    }

    #[test]
    fn query_flood_covers_distinct_neighbors_within_ttl() {
        let (mut p, vids) = peer(5);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.add_link(NodeId::new(1), vids[0]);
        p.add_link(NodeId::new(1), vids[1]); // same node, second overlay
        p.add_link(NodeId::new(2), vids[1]);
        out.drain();
        p.watch(SimTime::ZERO, vids[2], &mut out);
        let queries: Vec<NodeId> = to_peers(&out)
            .iter()
            .filter(|(_, m)| matches!(m, Message::Query { .. }))
            .map(|(to, _)| *to)
            .collect();
        // Each distinct neighbor queried exactly once.
        assert_eq!(queries.len(), 2);
        assert!(queries.contains(&NodeId::new(1)));
        assert!(queries.contains(&NodeId::new(2)));
    }

    /// The twin of SocialTube's `query_floods_at_most_ttl_plus_one_hops`:
    /// a receiver at TTL 0 still answers, so on a line of five peers the
    /// default TTL 2 finds a holder three hops away and not one four away.
    #[test]
    fn query_floods_at_most_ttl_plus_one_hops() {
        assert_eq!(SocialTubeConfig::default().ttl, 2);
        for (holder, found) in [(3, true), (4, false)] {
            let mut line: Vec<NetTubePeer> = (0..5).map(|n| peer(n).0).collect();
            let vids = fixture().1;
            let mut out = Outbox::new();
            for (n, p) in line.iter_mut().enumerate() {
                p.on_login(SimTime::ZERO, &mut out);
                for m in [n.wrapping_sub(1), n + 1].into_iter().filter(|m| *m < 5) {
                    p.add_link(NodeId::new(m as u32), vids[0]);
                }
            }
            let id = RequestId::new(NodeId::new(holder), 0);
            complete_download(&mut line[holder as usize], vids[1], id, &mut out);
            out.drain();

            // Deliver queries until the flood dies out; a hit ends at 0.
            let sent_by = |from: NodeId, out: &mut Outbox| -> Vec<_> {
                let sent = out.drain().filter_map(|c| match c {
                    Command::ToPeer { to, msg } => Some((to, from, msg)),
                    _ => None,
                });
                sent.collect()
            };
            line[0].watch(SimTime::ZERO, vids[1], &mut out);
            let mut sent = sent_by(NodeId::new(0), &mut out);
            let mut hit = false;
            while let Some((to, from, msg)) = sent.pop() {
                match msg {
                    Message::QueryHit { provider, .. } => {
                        assert_eq!((to, provider), (NodeId::new(0), NodeId::new(holder)));
                        hit = true;
                    }
                    Message::Query { .. } => {
                        line[to.index()].on_message(
                            SimTime::ZERO,
                            PeerAddr::Peer(from),
                            msg,
                            &mut out,
                        );
                        sent.extend(sent_by(to, &mut out));
                    }
                    _ => {}
                }
            }
            assert_eq!(hit, found, "holder {holder} hops away");
        }
    }

    #[test]
    fn cache_digests_flow_on_connect_and_feed_prefetch() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        out.drain();
        // Incoming connect: we accept and send our digest.
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(9)),
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: None,
                video: Some(vids[0]),
            },
            &mut out,
        );
        assert!(to_peers(&out)
            .iter()
            .any(|(_, m)| matches!(m, Message::CacheDigest { .. })));
        out.drain();
        // Their digest arrives; prefetch kick grabs from it.
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(9)),
            Message::CacheDigest {
                videos: vec![vids[1], vids[2]].into(),
            },
            &mut out,
        );
        p.on_timer(SimTime::ZERO, TimerKind::PrefetchKick, &mut out);
        let prefetches = to_peers(&out)
            .iter()
            .filter(|(to, m)| {
                *to == NodeId::new(9)
                    && matches!(
                        m,
                        Message::ChunkRequest {
                            kind: TransferKind::Prefetch,
                            ..
                        }
                    )
            })
            .count();
        assert_eq!(prefetches, 2);
    }

    #[test]
    fn prefetch_disabled_config_does_not_prefetch() {
        let (catalog, vids) = fixture();
        let mut p = NetTubePeer::new(
            NodeId::new(0),
            catalog,
            &SocialTubeConfig {
                prefetch_count: 0,
                ..SocialTubeConfig::default()
            },
            SimRng::seed(0),
        );
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(9)),
            Message::CacheDigest {
                videos: vec![vids[1]].into(),
            },
            &mut out,
        );
        out.drain();
        p.on_timer(SimTime::ZERO, TimerKind::PrefetchKick, &mut out);
        assert!(out.commands().is_empty());
    }

    #[test]
    fn leave_removes_all_links_of_neighbor() {
        let (mut p, vids) = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.add_link(NodeId::new(1), vids[0]);
        p.add_link(NodeId::new(1), vids[1]);
        p.add_link(NodeId::new(2), vids[0]);
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(1)),
            Message::Leave,
            &mut out,
        );
        assert_eq!(p.link_count(), 1);
        p.refresh_distinct();
        assert_eq!(p.distinct_cache, vec![NodeId::new(2)]);
    }

    #[test]
    fn server_tracks_overlays_and_hands_out_contacts() {
        let (catalog, vids) = fixture();
        let mut s = NetTubeServer::new(catalog, SimRng::seed(1));
        let mut out = ServerOutbox::new();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::WatchStarted { video: vids[0] },
            &mut out,
        );
        s.on_message(
            SimTime::ZERO,
            NodeId::new(2),
            Message::WatchStarted { video: vids[0] },
            &mut out,
        );
        assert_eq!(s.overlays.groups().members(vids[0].index()).len(), 2);
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(3),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        let contacts = out
            .commands()
            .iter()
            .find_map(|c| match c {
                socialtube::ServerCommand::ToPeer {
                    msg: Message::OverlayContacts { contacts, .. },
                    ..
                } => Some(contacts.clone()),
                _ => None,
            })
            .expect("contacts");
        assert_eq!(contacts.len(), 2);
        s.on_message(SimTime::ZERO, NodeId::new(1), Message::LogOff, &mut out);
        assert_eq!(s.overlays.groups().members(vids[0].index()).len(), 1);
    }

    #[test]
    fn nettube_tracks_more_server_state_than_socialtube_style_membership() {
        // The paper's point: per-video tracking grows with videos watched.
        let (catalog, vids) = fixture();
        let mut s = NetTubeServer::new(catalog, SimRng::seed(1));
        let mut out = ServerOutbox::new();
        for v in &vids {
            s.on_message(
                SimTime::ZERO,
                NodeId::new(1),
                Message::WatchStarted { video: *v },
                &mut out,
            );
        }
        assert_eq!(s.tracked_entries(), 3, "one entry per watched video");
    }

    #[test]
    fn log_off_leaves_exactly_the_joined_overlays_in_retain_order() {
        let (catalog, vids) = fixture();
        let mut s = NetTubeServer::new(catalog, SimRng::seed(1));
        let mut out = ServerOutbox::new();
        let mut watch = |s: &mut NetTubeServer, node: u32, video: VideoId| {
            let msg = Message::WatchStarted { video };
            s.on_message(SimTime::ZERO, NodeId::new(node), msg, &mut out);
            let videos = 0..s.catalog.video_count();
            let total: usize = videos.map(|v| s.overlays.groups().members(v).len()).sum();
            assert_eq!(s.tracked_entries(), total);
        };
        for node in 1..=3 {
            watch(&mut s, node, vids[0]);
        }
        watch(&mut s, 2, vids[2]);
        watch(&mut s, 2, vids[2]); // a repeat joins nothing twice
        watch(&mut s, 3, vids[2]);
        assert_eq!(s.tracked_entries(), 5);
        let mut out = ServerOutbox::new();
        s.on_message(SimTime::ZERO, NodeId::new(2), Message::LogOff, &mut out);
        let members =
            |s: &NetTubeServer, v: VideoId| s.overlays.groups().members(v.index()).to_vec();
        assert_eq!(members(&s, vids[0]), [NodeId::new(1), NodeId::new(3)]);
        assert_eq!(members(&s, vids[2]), [NodeId::new(3)]);
        assert_eq!(s.tracked_entries(), 3);
        // A second log-off finds nothing left to leave.
        s.on_message(SimTime::ZERO, NodeId::new(2), Message::LogOff, &mut out);
        assert_eq!(s.tracked_entries(), 3);
    }
}
