//! PA-VoD: peer-assisted VoD with server-directed, currently-watching
//! providers and no persistent cache.

use std::sync::Arc;

use socialtube::{
    serve_from_origin, IndexedTracker, Message, Outbox, PeerAddr, RequestId, SearchPhase,
    ServerOutbox, SocialTubeConfig, TimerKind, TransferKind, Transfers, VodPeer, VodServer,
};
use socialtube_model::{Catalog, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimRng, SimTime};

/// How many candidate providers the server returns per lookup, and the
/// most a peer tries before asking the server itself.
pub const PROVIDERS_PER_LOOKUP: usize = 5;

/// A PA-VoD peer.
///
/// No overlay is maintained: every request is a server lookup for peers
/// *currently watching* the video (the PA-VoD design point the paper
/// criticizes — "since videos on YouTube tend to be short, many videos do
/// not have peer providers so the server must provide the videos instead").
/// The peer holds only the video it is currently watching, and stops
/// providing when it moves on.
#[derive(Debug)]
pub struct PaVodPeer {
    /// How long a peer transfer may stall before the server takes over.
    chunk_timeout: SimDuration,
    /// How long to wait for the server's provider list before asking again.
    lookup_timeout: SimDuration,
    online: bool,
    /// The video currently held (id, chunks downloaded).
    holding: Option<(VideoId, u32)>,
    /// Requests in flight; the providers the server named are their
    /// candidates.
    transfers: Transfers,
}

impl PaVodPeer {
    /// Creates an offline PA-VoD peer with the run's shared parameters, of
    /// which it reads the chunk and lookup deadlines.
    pub fn new(node: NodeId, catalog: Arc<Catalog>, config: &SocialTubeConfig) -> Self {
        Self {
            chunk_timeout: config.chunk_timeout,
            lookup_timeout: config.lookup_timeout,
            online: false,
            holding: None,
            transfers: Transfers::new(node, catalog),
        }
    }

    /// Asks the next provider the server named for what request `id` has
    /// not received yet; the server itself when none is left.
    fn try_next_candidate(&mut self, id: RequestId, out: &mut Outbox) {
        let Some(t) = self.transfers.get_mut(id) else {
            return;
        };
        t.from_chunk = t.received;
        let timeout = self.chunk_timeout;
        if self.transfers.next_candidate(id, timeout, out).is_none() {
            self.transfers.ask_origin(id, out);
        }
    }
}

impl VodPeer for PaVodPeer {
    fn node(&self) -> NodeId {
        self.transfers.node()
    }

    fn on_login(&mut self, _now: SimTime, _out: &mut Outbox) {
        self.online = true;
    }

    fn on_logout(&mut self, _now: SimTime, out: &mut Outbox) {
        self.online = false;
        if let Some((video, _)) = self.holding.take() {
            out.to_server(Message::WatchStopped { video });
        }
        out.to_server(Message::LogOff);
        self.transfers.clear();
    }

    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox) {
        debug_assert!(self.online, "watch() on an offline peer");
        // Moving on: the previous video is dropped and no longer provided.
        if let Some((previous, _)) = self.holding.take() {
            out.to_server(Message::WatchStopped { video: previous });
        }
        self.holding = Some((video, 0));
        let id = self
            .transfers
            .begin(now, video, TransferKind::Playback, 0, false);
        out.to_server(Message::ProviderLookup { id, video });
        out.timer(
            self.lookup_timeout,
            TimerKind::SearchDeadline {
                id,
                phase: SearchPhase::Server,
            },
        );
    }

    fn on_message(&mut self, _now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox) {
        if !self.online {
            return;
        }
        match msg {
            Message::ProviderList { id, providers, .. } => {
                if self.transfers.searching(id).is_none() {
                    return;
                }
                let offered = providers.len().min(PROVIDERS_PER_LOOKUP);
                self.transfers.set_candidates(id, &providers[..offered]);
                self.try_next_candidate(id, out);
            }

            Message::ChunkRequest {
                id,
                video,
                from_chunk,
                kind,
            } => {
                let held = self.has_cached(video);
                self.transfers
                    .serve(held, from, id, video, from_chunk, kind, out);
            }

            Message::ChunkData {
                id,
                video,
                chunk,
                bits,
                kind,
            } => {
                if !self.transfers.has_chunk(video, chunk) {
                    return;
                }
                if let Some((held, chunks)) = &mut self.holding {
                    if *held == video {
                        *chunks = (*chunks).max(chunk + 1);
                    }
                }
                let progress = self
                    .transfers
                    .on_chunk(from, id, video, chunk, bits, kind, out);
                if progress.done {
                    // Fully downloaded: now a provider until the next watch.
                    out.to_server(Message::WatchStarted { video });
                }
            }

            Message::ChunkUnavailable { id, .. } => self.try_next_candidate(id, out),

            _ => {}
        }
    }

    fn on_timer(&mut self, _now: SimTime, timer: TimerKind, out: &mut Outbox) {
        if !self.online {
            return;
        }
        match timer {
            TimerKind::SearchDeadline { id, .. } => {
                // The provider list never arrived: go straight to the server.
                let nothing_yet = self.transfers.get(id).is_some_and(|t| t.received == 0);
                if nothing_yet && self.transfers.searching(id).is_some() {
                    self.try_next_candidate(id, out);
                }
            }
            TimerKind::ChunkDeadline { id }
                if self.transfers.get(id).is_some_and(|t| !t.at_origin()) =>
            {
                self.try_next_candidate(id, out);
            }
            _ => {}
        }
    }

    fn link_count(&self) -> usize {
        // PA-VoD maintains no overlay; only transient transfer connections.
        self.transfers
            .iter()
            .filter(|(_, t)| t.provider.is_some())
            .count()
    }

    fn is_online(&self) -> bool {
        self.online
    }

    fn has_cached(&self, video: VideoId) -> bool {
        let total = self.transfers.chunks_in(video);
        matches!(self.holding, Some((v, chunks)) if v == video && chunks >= total)
    }
}

/// The PA-VoD server: tracks which online peers currently hold each video
/// and serves everything peers cannot.
#[derive(Debug)]
pub struct PaVodServer {
    catalog: Arc<Catalog>,
    /// Peers currently holding (fully downloaded, still watching) a video,
    /// one group per video id (video ids are contiguous). A node can be in
    /// more than one: a download that completes after its user moved on
    /// registers the old video again, and only a log-off takes it out.
    watching: IndexedTracker,
    rng: SimRng,
}

impl PaVodServer {
    /// Creates a server over `catalog`.
    pub fn new(catalog: Arc<Catalog>, rng: SimRng) -> Self {
        let videos = catalog.video_count();
        Self {
            catalog,
            watching: IndexedTracker::new(videos),
            rng,
        }
    }

    /// Current provider count for `video` (tests and diagnostics).
    pub fn providers_of(&self, video: VideoId) -> usize {
        self.watching.groups().members(video.index()).len()
    }
}

impl VodServer for PaVodServer {
    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut ServerOutbox) {
        match msg {
            Message::ProviderLookup { id, video } => {
                let providers = self.watching.groups().pick(
                    &mut self.rng,
                    video.index(),
                    from,
                    PROVIDERS_PER_LOOKUP,
                );
                out.to_peer(
                    from,
                    Message::ProviderList {
                        id,
                        video,
                        providers: providers.into(),
                    },
                );
            }

            Message::WatchStarted { video } => self.watching.join(video.index(), from),

            Message::WatchStopped { video } => self.watching.leave(video.index(), from),

            Message::LogOff => self.watching.leave_all(from),

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
        self.watching.groups().tracked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube::Command;
    use socialtube_model::CatalogBuilder;

    fn fixture() -> (Arc<Catalog>, VideoId) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let v = b.add_video(ch, 100, 0);
        (Arc::new(b.build()), v)
    }

    fn peer(catalog: Arc<Catalog>) -> PaVodPeer {
        PaVodPeer::new(NodeId::new(0), catalog, &SocialTubeConfig::default())
    }

    fn server_msgs(out: &Outbox) -> Vec<&Message> {
        out.commands()
            .iter()
            .filter_map(|c| match c {
                Command::ToServer { msg } => Some(msg),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn watch_asks_server_for_providers() {
        let (catalog, v) = fixture();
        let mut p = peer(catalog);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, v, &mut out);
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::ProviderLookup { .. })));
    }

    #[test]
    fn empty_provider_list_falls_back_to_server() {
        let (catalog, v) = fixture();
        let mut p = peer(catalog);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, v, &mut out);
        out.drain();
        let id = RequestId::new(NodeId::new(0), 0);
        p.on_message(
            SimTime::ZERO,
            PeerAddr::Server,
            Message::ProviderList {
                id,
                video: v,
                providers: vec![].into(),
            },
            &mut out,
        );
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn at_most_providers_per_lookup_are_tried_before_the_server() {
        let (catalog, v) = fixture();
        let mut p = peer(catalog);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, v, &mut out);
        let id = RequestId::new(NodeId::new(0), 0);
        let providers: Vec<NodeId> = (1..=7).map(NodeId::new).collect();
        let list = Message::ProviderList {
            id,
            video: v,
            providers: providers.clone().into(),
        };
        p.on_message(SimTime::ZERO, PeerAddr::Server, list, &mut out);
        for tried in &providers[..PROVIDERS_PER_LOOKUP] {
            assert!(server_msgs(&out)
                .iter()
                .all(|m| !matches!(m, Message::VideoRequest { .. })));
            assert_eq!(p.transfers.get(id).unwrap().provider, Some(*tried));
            let gone = Message::ChunkUnavailable { id, video: v };
            p.on_message(SimTime::ZERO, PeerAddr::Peer(*tried), gone, &mut out);
        }
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn finishing_a_video_registers_as_provider_until_next_watch() {
        let (catalog, v) = fixture();
        let mut p = peer(Arc::clone(&catalog));
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, v, &mut out);
        out.drain();
        let id = RequestId::new(NodeId::new(0), 0);
        let total = catalog.video(v).unwrap().chunk_count();
        for chunk in 0..total {
            p.on_message(
                SimTime::ZERO,
                PeerAddr::Server,
                Message::ChunkData {
                    id,
                    video: v,
                    chunk,
                    bits: 10,
                    kind: TransferKind::Playback,
                },
                &mut out,
            );
        }
        assert!(p.has_cached(v));
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::WatchStarted { .. })));
        out.drain();
        // Next watch drops the held video.
        p.watch(SimTime::from_micros(1), v, &mut out);
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::WatchStopped { .. })));
        assert!(!p.has_cached(v), "PA-VoD does not cache past videos");
    }

    #[test]
    fn server_tracks_watchers() {
        let (catalog, v) = fixture();
        let mut s = PaVodServer::new(catalog, SimRng::seed(1));
        let mut out = ServerOutbox::new();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::WatchStarted { video: v },
            &mut out,
        );
        s.on_message(
            SimTime::ZERO,
            NodeId::new(2),
            Message::WatchStarted { video: v },
            &mut out,
        );
        assert_eq!(s.providers_of(v), 2);
        assert_eq!(s.tracked_entries(), 2);
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::WatchStopped { video: v },
            &mut out,
        );
        assert_eq!(s.providers_of(v), 1);
        s.on_message(SimTime::ZERO, NodeId::new(2), Message::LogOff, &mut out);
        assert_eq!(s.providers_of(v), 0);
    }

    /// A download that completes after its user moved on registers the old
    /// video again; nothing but the log-off takes the node out of it. After
    /// every message the lists equal plain swept lists and the count their
    /// sum.
    #[test]
    fn late_finish_lingers_until_log_off_and_the_count_stays_exact() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let (a, later) = (b.add_video(ch, 100, 0), b.add_video(ch, 100, 1));
        let mut s = PaVodServer::new(Arc::new(b.build()), SimRng::seed(1));
        let mut reference: Vec<Vec<NodeId>> = vec![Vec::new(); 2];
        let mut step = |node: u32, msg: Message| {
            let node = NodeId::new(node);
            match &msg {
                Message::WatchStarted { video } if !reference[video.index()].contains(&node) => {
                    reference[video.index()].push(node);
                }
                Message::WatchStopped { video } => reference[video.index()].retain(|n| *n != node),
                Message::LogOff => reference.iter_mut().for_each(|l| l.retain(|n| *n != node)),
                _ => {}
            }
            s.on_message(SimTime::ZERO, node, msg, &mut ServerOutbox::new());
            for video in [a, later] {
                let members = s.watching.groups().members(video.index());
                assert_eq!(members, reference[video.index()], "{video}");
            }
            assert_eq!(
                s.tracked_entries(),
                reference.iter().map(Vec::len).sum::<usize>()
            );
        };
        step(2, Message::WatchStarted { video: a }); // a bystander holding A
        step(1, Message::WatchStarted { video: a }); // finish A
        step(1, Message::WatchStopped { video: a }); // watch B
        step(1, Message::WatchStarted { video: a }); // late finish of A
        step(1, Message::WatchStarted { video: later }); // finish B
        step(3, Message::WatchStarted { video: a });
        step(1, Message::WatchStopped { video: later }); // logging off...
        step(1, Message::LogOff); // ...which is what leaves A
        step(1, Message::LogOff);
        assert_eq!(
            s.watching.groups().members(a.index()),
            [NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(s.providers_of(later), 0);
    }

    #[test]
    fn server_lookup_excludes_requester() {
        let (catalog, v) = fixture();
        let mut s = PaVodServer::new(catalog, SimRng::seed(1));
        let mut out = ServerOutbox::new();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::WatchStarted { video: v },
            &mut out,
        );
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::ProviderLookup {
                id: RequestId::new(NodeId::new(1), 0),
                video: v,
            },
            &mut out,
        );
        let providers = out
            .commands()
            .iter()
            .find_map(|c| match c {
                socialtube::ServerCommand::ToPeer {
                    msg: Message::ProviderList { providers, .. },
                    ..
                } => Some(providers.clone()),
                _ => None,
            })
            .expect("provider list");
        assert!(providers.is_empty());
    }

    #[test]
    fn lookup_timeout_forces_server_service() {
        let (catalog, v) = fixture();
        let mut p = peer(catalog);
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        p.watch(SimTime::ZERO, v, &mut out);
        out.drain();
        let id = RequestId::new(NodeId::new(0), 0);
        p.on_timer(
            SimTime::from_micros(1),
            TimerKind::SearchDeadline {
                id,
                phase: SearchPhase::Server,
            },
            &mut out,
        );
        assert!(server_msgs(&out)
            .iter()
            .any(|m| matches!(m, Message::VideoRequest { .. })));
    }

    #[test]
    fn pavod_maintains_no_persistent_links() {
        let (catalog, v) = fixture();
        let mut p = peer(Arc::clone(&catalog));
        let mut out = Outbox::new();
        p.on_login(SimTime::ZERO, &mut out);
        assert_eq!(p.link_count(), 0);
        p.watch(SimTime::ZERO, v, &mut out);
        assert_eq!(p.link_count(), 0, "no links until a provider is engaged");
    }
}
