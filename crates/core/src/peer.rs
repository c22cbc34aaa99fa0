//! The SocialTube peer state machine: the two-level community overlay,
//! the channel → category → server search over it, and popularity-driven
//! prefetching. Flooding, moving chunks and probing neighbours are the
//! shared [`Flood`], [`Transfers`] and [`Prober`].

use std::sync::Arc;

use socialtube_model::{Catalog, ChannelId, ChunkIndex, NodeId, VideoId};
use socialtube_sim::SimTime;

use crate::config::SocialTubeConfig;
use crate::flood::Flood;
use crate::messages::{LinkKind, Message, PeerAddr, QueryScope, RequestId};
use crate::neighbors::NeighborTable;
use crate::probe::Prober;
use crate::traits::{Outbox, Report, SearchPhase, TimerKind, TransferKind, VodPeer};
use crate::transfer::Transfers;

/// A SocialTube peer: joins the two-level community overlay, searches
/// channel-then-category-then-server, caches watched videos, and prefetches
/// popular channel videos (Section IV).
///
/// The peer is a pure state machine — see the crate docs for the driver
/// contract. All constructor inputs are immutable catalog/profile data; all
/// protocol state lives inside.
#[derive(Debug)]
pub struct SocialTubePeer {
    subscriptions: Vec<ChannelId>,
    config: SocialTubeConfig,

    online: bool,
    current_channel: Option<ChannelId>,
    neighbors: NeighborTable,
    flood: Flood,

    /// Requests in flight; a request's `phase` is its Algorithm 1 state.
    transfers: Transfers,
    /// Server popularity digests, sorted by channel for binary search —
    /// a peer holds a handful of digests, so a sorted vec beats a map.
    /// Rankings are shared (`Arc`) with the server's cached copy.
    digests: Vec<(ChannelId, Arc<[VideoId]>)>,
    prober: Prober,
}

impl SocialTubePeer {
    /// Creates an offline peer for `node`, subscribed to `subscriptions`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(
        node: NodeId,
        catalog: Arc<Catalog>,
        subscriptions: Vec<ChannelId>,
        config: SocialTubeConfig,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid SocialTube config: {e}"));
        let neighbors = NeighborTable::new(config.inner_links, config.inter_links);
        let flood = Flood::new(config.cache_capacity);
        Self {
            subscriptions,
            config,
            online: false,
            current_channel: None,
            neighbors,
            flood,
            transfers: Transfers::new(node, catalog),
            digests: Vec::new(),
            prober: Prober::new(),
        }
    }

    /// The channels this peer subscribes to.
    pub fn subscriptions(&self) -> &[ChannelId] {
        &self.subscriptions
    }

    /// The channel currently being watched, if any.
    pub fn current_channel(&self) -> Option<ChannelId> {
        self.current_channel
    }

    /// Read-only view of the neighbor table (tests and diagnostics).
    pub fn neighbors(&self) -> &NeighborTable {
        &self.neighbors
    }

    /// Number of in-flight searches (tests and diagnostics).
    pub fn active_searches(&self) -> usize {
        self.transfers.iter().count()
    }

    /// Subscribes to `channel` and reports the change to the server
    /// ("users should report their changes of subscribed channels",
    /// Section IV-A). Idempotent; no-op while offline (the next login's
    /// `SubscriptionUpdate` carries the new set anyway).
    pub fn subscribe(&mut self, channel: ChannelId, out: &mut Outbox) {
        if self.subscriptions.contains(&channel) {
            return;
        }
        self.subscriptions.push(channel);
        if self.online {
            out.to_server(Message::SubscriptionUpdate {
                subscribed: self.subscriptions.as_slice().into(),
            });
        }
    }

    /// Unsubscribes from `channel`, reports the change, and sheds links
    /// that only the subscription justified keeping.
    pub fn unsubscribe(&mut self, channel: ChannelId, out: &mut Outbox) {
        let before = self.subscriptions.len();
        self.subscriptions.retain(|c| *c != channel);
        if self.subscriptions.len() == before {
            return;
        }
        if self.online {
            out.to_server(Message::SubscriptionUpdate {
                subscribed: self.subscriptions.as_slice().into(),
            });
            self.shed_out_of_community(out);
        }
    }

    // ------------------------------------------------------------ helpers

    /// Drops, with a `Leave`, the links the current channel and the
    /// subscriptions no longer justify.
    fn shed_out_of_community(&mut self, out: &mut Outbox) {
        for dropped in self
            .neighbors
            .shed_out_of_community(self.transfers.catalog(), &self.subscriptions)
        {
            out.to_peer(dropped, Message::Leave);
        }
    }

    /// Runs the current phase of request `id`: floods the phase's links
    /// and arms its deadline, moves on at once when there is nobody to
    /// ask, and hands the request to the origin in the last phase.
    fn run_phase(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(t) = self.transfers.get(id) else {
            return;
        };
        let tier = match t.phase {
            SearchPhase::Channel => self
                .current_channel
                .map(|c| (LinkKind::Inner, QueryScope::Channel(c))),
            SearchPhase::Category => {
                let category = self.transfers.catalog().video_category(t.video);
                let scope = category.ok().flatten().map(QueryScope::Category);
                scope.map(|scope| (LinkKind::Inter, scope))
            }
            SearchPhase::Server => return self.transfers.ask_origin(id, out),
        };
        let (ttl, deadline) = (self.config.ttl, self.config.search_phase_timeout);
        let asked = tier.is_some_and(|(kind, scope)| {
            let to = self.neighbors.of_kind(kind).map(|n| n.node);
            Flood::start(&self.transfers, id, ttl, deadline, scope, to, out)
        });
        if !asked {
            self.advance_phase(id, out);
        }
    }

    fn advance_phase(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(t) = self.transfers.get_mut(id) else {
            return;
        };
        if t.provider.is_some() {
            return; // a hit already claimed this search
        }
        match (t.phase, t.kind) {
            (SearchPhase::Channel, TransferKind::Playback) => t.phase = SearchPhase::Category,
            (SearchPhase::Channel, TransferKind::Prefetch) => {
                // Prefetches are opportunistic community transfers: a
                // miss is dropped, never amplified into category floods
                // or origin load (symmetric with NetTube's
                // neighbor-cache prefetching).
                let video = t.video;
                self.transfers.remove(id);
                out.report(Report::PrefetchAbandoned {
                    node: self.transfers.node(),
                    video,
                });
                return;
            }
            (SearchPhase::Category, _) => t.phase = SearchPhase::Server,
            (SearchPhase::Server, _) => return,
        }
        self.run_phase(id, out);
    }

    fn start_search(
        &mut self,
        now: SimTime,
        video: VideoId,
        kind: TransferKind,
        from_chunk: ChunkIndex,
        playback_reported: bool,
        out: &mut Outbox,
    ) {
        let id = self
            .transfers
            .begin(now, video, kind, from_chunk, playback_reported);
        self.run_phase(id, out);
    }

    /// The provider of `id` failed: the server takes over from the next
    /// missing chunk.
    fn fall_back_to_server(&mut self, id: RequestId, out: &mut Outbox) {
        if let Some(t) = self.transfers.get_mut(id) {
            t.from_chunk = self.flood.cache().chunks_of(t.video);
            self.transfers.ask_origin(id, out);
        }
    }

    /// Ensures this peer participates in the current channel's overlay,
    /// contacting the server while its inner-link table is under-filled
    /// (the paper: a node "builds its links to other nodes in the
    /// lower-level channel overlay until the number reaches N_l").
    fn ensure_joined(&mut self, video: VideoId, out: &mut Outbox) {
        if self.neighbors.has_capacity(LinkKind::Inner) {
            out.to_server(Message::JoinRequest { video });
        }
    }

    fn connect_to(&mut self, target: NodeId, kind: LinkKind, out: &mut Outbox) {
        if target == self.transfers.node() || self.neighbors.contains(target) {
            return;
        }
        if !self.neighbors.has_capacity(kind) {
            return;
        }
        out.to_peer(
            target,
            Message::ConnectRequest {
                kind,
                channel: self.current_channel,
                video: None,
            },
        );
    }

    fn schedule_prefetch(&mut self, out: &mut Outbox) {
        if self.config.prefetch_count > 0 {
            out.timer(self.config.prefetch_delay, TimerKind::PrefetchKick);
        }
    }

    /// The ranked popular videos of `channel`: the server's digest when we
    /// have one, else the catalog ranking (identical information — the
    /// digest *is* the server's view of the catalog).
    fn ranked_videos(&self, channel: ChannelId) -> Arc<[VideoId]> {
        if let Ok(at) = self.digests.binary_search_by_key(&channel, |(c, _)| *c) {
            return self.digests[at].1.clone();
        }
        self.transfers
            .catalog()
            .channel_videos_by_popularity(channel)
            .into()
    }
}

impl VodPeer for SocialTubePeer {
    fn node(&self) -> NodeId {
        self.transfers.node()
    }

    fn on_login(&mut self, _now: SimTime, out: &mut Outbox) {
        self.online = true;
        // Report our subscription set; the server keeps per-channel
        // membership from these (far less state than NetTube's per-video
        // watch reports, Section IV-A).
        out.to_server(Message::SubscriptionUpdate {
            subscribed: self.subscriptions.as_slice().into(),
        });
        // Reconnect to the neighbors remembered from the previous session;
        // those that fail to answer are dropped at the deadline.
        for link in self.neighbors.iter() {
            let request = Message::ConnectRequest {
                kind: self.neighbors.classify(link.channel),
                channel: self.current_channel,
                video: None,
            };
            self.prober
                .reconnect(link.node, request, self.config.probe_timeout, out);
        }
        out.timer(self.config.probe_interval, TimerKind::ProbeTick);
    }

    fn on_logout(&mut self, _now: SimTime, out: &mut Outbox) {
        self.online = false;
        // Graceful departure: notify neighbors so they drop their links,
        // but *remember* them to try first at the next login (Section IV-A).
        for n in self.neighbors.iter() {
            out.to_peer(n.node, Message::Leave);
        }
        out.to_server(Message::LogOff);
        self.transfers.clear();
        self.prober.clear();
    }

    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox) {
        debug_assert!(self.online, "watch() on an offline peer");
        let channel = match self.transfers.catalog().video(video) {
            Ok(v) => v.channel(),
            Err(_) => return,
        };
        if self.current_channel != Some(channel) {
            self.current_channel = Some(channel);
            self.neighbors.set_current_channel(Some(channel));
            self.shed_out_of_community(out);
        }
        self.ensure_joined(video, out);

        // A cached video plays at once; so does a prefetched first chunk,
        // with the rest fetched in the background.
        let (started, missing) = self
            .flood
            .start_from_cache(&self.transfers, now, video, out);
        if started {
            self.schedule_prefetch(out);
        }
        if let Some(from) = missing {
            self.start_search(now, video, TransferKind::Playback, from, started, out);
        }
    }

    fn on_message(&mut self, now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox) {
        if !self.online {
            // Paper model: an offline node's client is gone. The drivers
            // deliver unconditionally and rely on this.
            return;
        }
        match msg {
            msg @ Message::Query { scope, .. } => {
                let catalog = self.transfers.catalog();
                let admitted = self
                    .neighbors
                    .iter()
                    .filter(|n| scope.admits(n.channel, catalog));
                let forward = admitted.map(|n| n.node);
                let (channel, transfers) = (self.current_channel, &self.transfers);
                self.flood
                    .on_query(transfers, now, from, msg, channel, forward, out);
            }

            msg @ Message::QueryHit {
                provider,
                provider_channel,
                ..
            } => {
                let (ttl, timeout) = (self.config.ttl, self.config.chunk_timeout);
                if Flood::on_hit(&mut self.transfers, msg, ttl, timeout, out) {
                    // Connect to the provider: it tends to watch what we
                    // watch (the paper's link-building rule after a
                    // successful search).
                    let link_kind = self.neighbors.classify(provider_channel);
                    self.connect_to(provider, link_kind, out);
                }
            }

            msg @ (Message::ChunkRequest { .. } | Message::ChunkData { .. }) => {
                let progress = self
                    .flood
                    .on_chunk(&mut self.transfers, now, from, msg, out);
                if progress.started {
                    self.schedule_prefetch(out);
                }
            }

            // The provider lost the video (logoff race).
            Message::ChunkUnavailable { id, .. } => self.fall_back_to_server(id, out),

            Message::ConnectRequest {
                kind: _,
                channel,
                video: _,
            } => {
                let PeerAddr::Peer(requester) = from else {
                    return;
                };
                // A known requester's link is refreshed (`try_add` records
                // its channel); a new one needs room in its bucket.
                let kind = self.neighbors.classify(channel);
                let known = self.neighbors.contains(requester);
                let answer = if self.neighbors.try_add(requester, channel) || known {
                    Message::ConnectAccept {
                        kind,
                        channel: self.current_channel,
                        video: None,
                    }
                } else {
                    Message::ConnectReject { kind }
                };
                out.to_peer(requester, answer);
            }

            Message::ConnectAccept {
                kind: _,
                channel,
                video: _,
            } => {
                let PeerAddr::Peer(accepter) = from else {
                    return;
                };
                self.prober.answered(accepter);
                // Adds the link, or records the channel of a known one.
                self.neighbors.try_add(accepter, channel);
            }

            Message::ConnectReject { .. } => {
                if let PeerAddr::Peer(rejecter) = from {
                    self.prober.answered(rejecter);
                    self.neighbors.remove(rejecter);
                }
            }

            Message::Probe { nonce } => Prober::acknowledge(from, nonce, out),

            Message::ProbeAck { nonce } => self.prober.acked(nonce),

            Message::Leave => {
                if let PeerAddr::Peer(p) = from {
                    self.neighbors.remove(p);
                }
            }

            Message::JoinResponse {
                video: _,
                channel_contacts,
                category_contacts,
            } => {
                for contact in channel_contacts.iter().copied() {
                    self.connect_to(contact, LinkKind::Inner, out);
                }
                for contact in category_contacts.iter().copied() {
                    self.connect_to(contact, LinkKind::Inter, out);
                }
            }

            Message::PopularityDigest { channel, ranked } => {
                match self.digests.binary_search_by_key(&channel, |(c, _)| *c) {
                    Ok(at) => self.digests[at].1 = ranked,
                    Err(at) => self.digests.insert(at, (channel, ranked)),
                }
            }

            // Messages other protocols use; a SocialTube peer ignores them.
            Message::CacheDigest { .. }
            | Message::JoinRequest { .. }
            | Message::VideoRequest { .. }
            | Message::ProviderLookup { .. }
            | Message::WatchStarted { .. }
            | Message::WatchStopped { .. }
            | Message::SubscriptionUpdate { .. }
            | Message::LogOff
            | Message::OverlayContacts { .. }
            | Message::ProviderList { .. } => {}
        }
    }

    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if !self.online {
            return;
        }
        match timer {
            TimerKind::ProbeTick => self.prober.tick(
                self.neighbors.iter().map(|n| n.node),
                self.config.probe_interval,
                self.config.probe_timeout,
                out,
            ),

            TimerKind::ProbeDeadline { neighbor, nonce } => {
                // No answer in time: the neighbor failed abruptly.
                let node = self.transfers.node();
                if self.prober.expired(node, neighbor, nonce, out) {
                    self.neighbors.remove(neighbor);
                }
            }

            TimerKind::SearchDeadline { id, phase } => {
                if self.transfers.searching(id) == Some(phase) {
                    self.advance_phase(id, out);
                }
            }

            // Transfer stalled (provider died).
            TimerKind::ChunkDeadline { id } => {
                if self.transfers.get(id).is_some_and(|t| !t.at_origin()) {
                    self.fall_back_to_server(id, out);
                }
            }

            TimerKind::PrefetchKick => {
                let Some(channel) = self.current_channel else {
                    return;
                };
                let ranked = self.ranked_videos(channel);
                let targets: Vec<VideoId> = ranked
                    .iter()
                    .copied()
                    .filter(|v| !self.flood.cache().has_first_chunk(*v))
                    .take(self.config.prefetch_count)
                    .collect();
                for video in targets {
                    self.start_search(now, video, TransferKind::Prefetch, 0, true, out);
                }
            }
        }
    }

    fn link_count(&self) -> usize {
        self.neighbors.len()
    }

    fn is_online(&self) -> bool {
        self.online
    }

    fn has_cached(&self, video: VideoId) -> bool {
        self.flood.cache().has_full(video)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{ChunkSource, Command};
    use socialtube_model::CatalogBuilder;

    /// Two channels in one category, one channel elsewhere; two videos per
    /// channel.
    fn fixture() -> (Arc<Catalog>, Vec<ChannelId>, Vec<VideoId>) {
        let mut b = CatalogBuilder::new();
        let news = b.add_category();
        let other = b.add_category();
        let c0 = b.add_channel([news]);
        let c1 = b.add_channel([news]);
        let c2 = b.add_channel([other]);
        let mut vids = Vec::new();
        for ch in [c0, c1, c2] {
            for i in 0..2 {
                let v = b.add_video(ch, 100, i);
                b.set_views(v, 1000 / (i as u64 + 1));
                vids.push(v);
            }
        }
        (Arc::new(b.build()), vec![c0, c1, c2], vids)
    }

    fn peer(node: u32) -> SocialTubePeer {
        let (catalog, chans, _) = fixture();
        SocialTubePeer::new(
            NodeId::new(node),
            catalog,
            vec![chans[0]],
            SocialTubeConfig::default(),
        )
    }

    fn sent_to_server(out: &Outbox) -> Vec<&Message> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::ToServer { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    fn sent_to_peers(out: &Outbox) -> Vec<(NodeId, &Message)> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::ToPeer { to, msg } => Some((*to, msg)),
                _ => None,
            })
            .collect()
    }

    fn reports(out: &Outbox) -> Vec<&Report> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::Report(r) => Some(r),
                _ => None,
            })
            .collect()
    }

    /// Delivers the first chunk of `video` as a prefetch nobody asked for.
    fn prefetch_first_chunk(p: &mut SocialTubePeer, video: VideoId, out: &mut Outbox) {
        let first = Message::ChunkData {
            id: RequestId::new(NodeId::new(9), 0),
            video,
            chunk: 0,
            bits: 100,
            kind: TransferKind::Prefetch,
        };
        p.on_message(SimTime::ZERO, PeerAddr::Peer(NodeId::new(9)), first, out);
    }

    #[test]
    fn login_reports_subscriptions_and_arms_probing() {
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        assert!(p.is_online());
        assert!(matches!(
            sent_to_server(&out)[0],
            Message::SubscriptionUpdate { subscribed } if subscribed.len() == 1
        ));
        assert!(out.commands().iter().any(|c| matches!(
            c,
            Command::Timer {
                kind: TimerKind::ProbeTick,
                ..
            }
        )));
    }

    #[test]
    fn first_watch_with_no_neighbors_goes_to_server() {
        let (_, _, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        let server_msgs = sent_to_server(&out);
        // Joins the channel overlay and requests the video from the server.
        assert!(server_msgs
            .iter()
            .any(|m| matches!(m, Message::JoinRequest { .. })));
        assert!(server_msgs
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
        assert!(reports(&out)
            .iter()
            .any(|r| matches!(r, Report::ServerFallback { .. })));
    }

    #[test]
    fn cached_video_plays_instantly() {
        let (catalog, _, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        out.drain();
        // Seed the cache by completing one full download from the server.
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        let total = catalog.video(vids[0]).unwrap().chunk_count();
        let id = RequestId::new(NodeId::new(0), 0);
        for chunk in 0..total {
            p.on_message(
                SimTime::ZERO,
                PeerAddr::Server,
                Message::ChunkData {
                    id,
                    video: vids[0],
                    chunk,
                    bits: 100,
                    kind: TransferKind::Playback,
                },
                &mut out,
            );
        }
        assert!(p.has_cached(vids[0]));
        out.drain();
        // Watch it again: cache hit, no network traffic for the video.
        p.watch(SimTime::from_micros(1), vids[0], &mut out);
        let rs = reports(&out);
        assert!(rs.iter().any(|r| matches!(
            r,
            Report::PlaybackStarted {
                source: ChunkSource::Cache,
                ..
            }
        )));
        assert!(sent_to_server(&out)
            .iter()
            .all(|m| !matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn search_deadline_advances_channel_to_category_to_server() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[0]);
        p.neighbors.set_current_channel(Some(chans[0]));
        // One inner and one inter neighbor.
        p.neighbors.try_add(NodeId::new(6), Some(chans[0]));
        p.neighbors.try_add(NodeId::new(7), Some(chans[1]));
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();

        let id = RequestId::new(NodeId::new(0), 0);
        // Channel deadline: escalate to category scope.
        p.on_timer(
            SimTime::from_micros(1),
            TimerKind::SearchDeadline {
                id,
                phase: SearchPhase::Channel,
            },
            &mut out,
        );
        let sent = sent_to_peers(&out);
        assert!(sent.iter().any(|(to, m)| *to == NodeId::new(7)
            && matches!(
                m,
                Message::Query {
                    scope: QueryScope::Category(_),
                    ..
                }
            )));
        out.drain();

        // Category deadline: fall back to the server.
        p.on_timer(
            SimTime::from_micros(2),
            TimerKind::SearchDeadline {
                id,
                phase: SearchPhase::Category,
            },
            &mut out,
        );
        assert!(sent_to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn stale_search_deadline_is_ignored() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[0]);
        p.neighbors.set_current_channel(Some(chans[0]));
        p.neighbors.try_add(NodeId::new(6), Some(chans[0]));
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        let id = RequestId::new(NodeId::new(0), 0);
        // A hit arrives before the deadline.
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(6)),
            Message::QueryHit {
                id,
                video: vids[0],
                provider: NodeId::new(6),
                provider_channel: Some(chans[0]),
                ttl: 2,
            },
            &mut out,
        );
        out.drain();
        // The stale deadline must not re-run the phase.
        p.on_timer(
            SimTime::from_micros(1),
            TimerKind::SearchDeadline {
                id,
                phase: SearchPhase::Channel,
            },
            &mut out,
        );
        assert!(sent_to_server(&out).is_empty());
        assert!(sent_to_peers(&out).is_empty());
    }

    #[test]
    fn probing_keeps_the_neighbor_that_acks_and_evicts_the_silent_one() {
        let (_, chans, _) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        let (acking, silent) = (NodeId::new(6), NodeId::new(7));
        p.neighbors.try_add(acking, Some(chans[0]));
        p.neighbors.try_add(silent, Some(chans[0]));
        out.drain();
        p.on_timer(SimTime::ZERO, TimerKind::ProbeTick, &mut out);
        let probes: Vec<(NodeId, u64)> = sent_to_peers(&out)
            .iter()
            .filter_map(|(to, m)| match m {
                Message::Probe { nonce } => Some((*to, *nonce)),
                _ => None,
            })
            .collect();
        assert_eq!(probes.len(), 2, "one probe per neighbor");
        out.drain();
        for (neighbor, nonce) in probes {
            if neighbor == acking {
                let ack = Message::ProbeAck { nonce };
                p.on_message(SimTime::ZERO, PeerAddr::Peer(neighbor), ack, &mut out);
            }
            let deadline = TimerKind::ProbeDeadline { neighbor, nonce };
            p.on_timer(SimTime::from_micros(1), deadline, &mut out);
        }
        assert!(p.neighbors().contains(acking));
        assert!(!p.neighbors().contains(silent));
        let lost = Report::NeighborLost {
            node: NodeId::new(0),
            neighbor: silent,
        };
        assert_eq!(reports(&out), [&lost]);
    }

    #[test]
    fn logout_notifies_neighbors_but_remembers_them() {
        let (_, chans, _) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.neighbors.try_add(NodeId::new(6), Some(chans[0]));
        out.drain();
        p.on_logout(SimTime::ZERO, &mut out);
        assert!(!p.is_online());
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(6) && matches!(m, Message::Leave)));
        assert!(sent_to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::LogOff)));
        // The link memory survives for next login's reconnect attempt.
        assert_eq!(p.link_count(), 1);
        out.drain();
        p.on_login(SimTime::from_micros(10), &mut out);
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(6) && matches!(m, Message::ConnectRequest { .. })));
    }

    #[test]
    fn prefetch_kick_prefetches_top_videos() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[0]);
        p.neighbors.set_current_channel(Some(chans[0]));
        out.drain();
        // With no neighbors, prefetch misses are dropped silently — no
        // origin traffic, no reports.
        p.on_timer(SimTime::ZERO, TimerKind::PrefetchKick, &mut out);
        assert!(sent_to_server(&out)
            .iter()
            .all(|m| !matches!(m, Message::VideoRequest { .. })));
        assert!(reports(&out)
            .iter()
            .all(|r| !matches!(r, Report::ServerFallback { .. })));
        assert_eq!(p.active_searches(), 0);
        out.drain();
        // With an inner neighbor, prefetch floods the channel overlay for
        // the top-M popular videos not yet cached.
        p.neighbors.try_add(NodeId::new(9), Some(chans[0]));
        prefetch_first_chunk(&mut p, vids[0], &mut out);
        p.on_timer(SimTime::from_micros(1), TimerKind::PrefetchKick, &mut out);
        let queries = sent_to_peers(&out)
            .iter()
            .filter(|(to, m)| *to == NodeId::new(9) && matches!(m, Message::Query { .. }))
            .count();
        // Channel 0 has two videos; one is already (partially) cached.
        assert_eq!(queries, 1);
    }

    #[test]
    fn prefetched_video_starts_playback_instantly() {
        let (_, _, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        prefetch_first_chunk(&mut p, vids[0], &mut out);
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        assert!(reports(&out).iter().any(|r| matches!(
            r,
            Report::PlaybackStarted {
                source: ChunkSource::Prefetched,
                ..
            }
        )));
        // Remaining chunks are still fetched (search active).
        assert_eq!(p.active_searches(), 1);
    }

    #[test]
    fn channel_switch_sheds_out_of_community_links() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[2]);
        p.neighbors.set_current_channel(Some(chans[2]));
        p.neighbors.try_add(NodeId::new(6), Some(chans[2]));
        out.drain();
        // Switch to channel 0 (category News): the chans[2] link (category
        // Other) is shed with a Leave.
        p.watch(SimTime::ZERO, vids[0], &mut out);
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(6) && matches!(m, Message::Leave)));
        assert!(!p.neighbors().contains(NodeId::new(6)));
    }

    #[test]
    fn connect_handshake_is_capacity_limited() {
        let (catalog, chans, _) = fixture();
        let config = SocialTubeConfig {
            inner_links: 1,
            ..SocialTubeConfig::default()
        };
        let mut p = SocialTubePeer::new(NodeId::new(0), catalog, vec![chans[0]], config);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[0]);
        p.neighbors.set_current_channel(Some(chans[0]));
        out.drain();
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(6)),
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: Some(chans[0]),
                video: None,
            },
            &mut out,
        );
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(_, m)| matches!(m, Message::ConnectAccept { .. })));
        out.drain();
        // Second inner connect: table full, rejected.
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(7)),
            Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: Some(chans[0]),
                video: None,
            },
            &mut out,
        );
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(7) && matches!(m, Message::ConnectReject { .. })));
        assert_eq!(p.link_count(), 1);
    }

    #[test]
    fn chunk_unavailable_falls_back_to_server() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.current_channel = Some(chans[0]);
        p.neighbors.set_current_channel(Some(chans[0]));
        p.neighbors.try_add(NodeId::new(6), Some(chans[0]));
        out.drain();
        p.watch(SimTime::ZERO, vids[0], &mut out);
        out.drain();
        let id = RequestId::new(NodeId::new(0), 0);
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(6)),
            Message::QueryHit {
                id,
                video: vids[0],
                provider: NodeId::new(6),
                provider_channel: Some(chans[0]),
                ttl: 2,
            },
            &mut out,
        );
        out.drain();
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(6)),
            Message::ChunkUnavailable { id, video: vids[0] },
            &mut out,
        );
        assert!(sent_to_server(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn subscription_changes_are_reported_and_shed_links() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        out.drain();

        // Subscribe to a new channel: reported once, idempotent after.
        p.subscribe(chans[2], &mut out);
        assert!(matches!(
            sent_to_server(&out)[0],
            Message::SubscriptionUpdate { subscribed } if subscribed.len() == 2
        ));
        out.drain();
        p.subscribe(chans[2], &mut out);
        assert!(sent_to_server(&out).is_empty(), "idempotent subscribe");

        // Watch in chans[0]'s category, keep a link to chans[2] (category
        // Other) alive purely through the subscription...
        p.watch(SimTime::ZERO, vids[0], &mut out);
        p.neighbors.try_add(NodeId::new(6), Some(chans[2]));
        out.drain();
        // ...then unsubscribe: the link loses its justification and sheds.
        p.unsubscribe(chans[2], &mut out);
        assert!(sent_to_server(&out).iter().any(
            |m| matches!(m, Message::SubscriptionUpdate { subscribed } if subscribed.len() == 1)
        ));
        assert!(sent_to_peers(&out)
            .iter()
            .any(|(to, m)| *to == NodeId::new(6) && matches!(m, Message::Leave)));
        assert!(!p.neighbors().contains(NodeId::new(6)));
    }

    #[test]
    fn offline_subscription_changes_are_silent() {
        let (_, chans, _) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.subscribe(chans[1], &mut out);
        p.unsubscribe(chans[0], &mut out);
        assert!(out.commands().is_empty());
        assert_eq!(p.subscriptions(), &[chans[1]]);
        // The next login reports the final set.
        p.on_login(SimTime::ZERO, &mut out);
        assert!(matches!(
            sent_to_server(&out)[0],
            Message::SubscriptionUpdate { subscribed } if subscribed[..] == [chans[1]]
        ));
    }

    #[test]
    fn offline_peer_ignores_everything() {
        let (_, chans, vids) = fixture();
        let mut p = peer(0);
        let mut out = Outbox::new();
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Peer(NodeId::new(6)),
            Message::Query {
                id: RequestId::new(NodeId::new(6), 0),
                video: vids[0],
                ttl: 2,
                origin: NodeId::new(6),
                scope: QueryScope::Channel(chans[0]),
            },
            &mut out,
        );
        p.on_timer(SimTime::ZERO, TimerKind::ProbeTick, &mut out);
        assert!(out.commands().is_empty());
    }
}
