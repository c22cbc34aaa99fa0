//! The chunk-transfer rules have one implementation
//! (`socialtube::Transfers`), and so do the flooding rules
//! (`socialtube::Flood`); each protocol only decides how a provider is
//! found and which neighbours a flood reaches. This drives the same
//! transfer scenarios through all three peers, and the same flood scenarios
//! through the two flooding peers, behind `Box<dyn VodPeer>` and compares
//! the commands they emit.

use std::sync::Arc;

use socialtube::{
    ChunkSource, Command, LinkKind, Message, Outbox, PeerAddr, QueryScope, Report, RequestId,
    SocialTubeConfig, SocialTubePeer, TimerKind, TransferKind, VodPeer, SEEN_QUERY_WINDOW,
};
use socialtube_baselines::{NetTubePeer, PaVodPeer};
use socialtube_model::{Catalog, CatalogBuilder, ChannelId, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimRng, SimTime};

const ME: NodeId = NodeId::new(0);
const P1: NodeId = NodeId::new(1);
const P2: NodeId = NodeId::new(2);
const REQUESTER: NodeId = NodeId::new(7);
const NEIGHBOR: NodeId = NodeId::new(9);
/// The catalog's one channel, the video watched, and one nobody holds.
const CHANNEL: ChannelId = ChannelId::new(0);
const VIDEO: VideoId = VideoId::new(0);
const OTHER: VideoId = VideoId::new(1);
/// A video the catalog does not have.
const UNKNOWN: VideoId = VideoId::new(2);
/// The watching peer's one request.
const ID: RequestId = RequestId(0);
/// When the user selects the video.
const T0: SimTime = SimTime::from_micros(1_000);
/// The `chunk_timeout` all three default configs share.
const CHUNK_TIMEOUT: SimDuration = SimDuration::from_secs(60);
/// Payload size of the chunks the test injects.
const BITS: u64 = 10;

fn catalog() -> Arc<Catalog> {
    let mut b = CatalogBuilder::new();
    let category = b.add_category();
    assert_eq!(b.add_channel([category]), CHANNEL);
    assert_eq!(b.add_video(CHANNEL, 100, 0), VIDEO);
    assert_eq!(b.add_video(CHANNEL, 100, 1), OTHER);
    Arc::new(b.build())
}

/// One protocol's row: its peer, and its own way of learning about
/// providers `P1` then `P2` for a watched video.
struct Case {
    name: &'static str,
    peer: Box<dyn VodPeer>,
    /// Logs in, watches `VIDEO` at `T0` and runs the protocol's discovery
    /// up to the point where `P1` has been asked.
    discover: fn(&mut dyn VodPeer, &mut Outbox),
    /// Whether `P2` is kept as the next candidate (a server-named provider
    /// list) or dropped (first query hit wins).
    keeps_candidates: bool,
}

fn cases() -> Vec<Case> {
    let config = SocialTubeConfig::default();
    vec![
        Case {
            name: "SocialTube",
            peer: Box::new(SocialTubePeer::new(
                ME,
                catalog(),
                vec![CHANNEL],
                config.clone(),
            )),
            discover: |peer, out| {
                peer.on_login(SimTime::ZERO, out);
                // One channel neighbor to flood, then hits from P1 and P2.
                let connect = Message::ConnectRequest {
                    kind: LinkKind::Inner,
                    channel: Some(CHANNEL),
                    video: None,
                };
                peer.on_message(SimTime::ZERO, PeerAddr::Peer(NEIGHBOR), connect, out);
                peer.watch(T0, VIDEO, out);
                for provider in [P1, P2] {
                    let hit = Message::QueryHit {
                        id: ID,
                        video: VIDEO,
                        provider,
                        provider_channel: Some(CHANNEL),
                        ttl: 1,
                    };
                    peer.on_message(T0, PeerAddr::Peer(provider), hit, out);
                }
            },
            keeps_candidates: false,
        },
        Case {
            name: "NetTube",
            peer: Box::new(NetTubePeer::new(ME, catalog(), &config, SimRng::seed(1))),
            discover: |peer, out| {
                peer.on_login(SimTime::ZERO, out);
                peer.watch(T0, VIDEO, out);
                let contacts = Message::OverlayContacts {
                    video: VIDEO,
                    contacts: vec![P1, P2].into(),
                };
                peer.on_message(T0, PeerAddr::Server, contacts, out);
            },
            keeps_candidates: true,
        },
        Case {
            name: "PA-VoD",
            peer: Box::new(PaVodPeer::new(ME, catalog(), &config)),
            discover: |peer, out| {
                peer.on_login(SimTime::ZERO, out);
                peer.watch(T0, VIDEO, out);
                let providers = Message::ProviderList {
                    id: ID,
                    video: VIDEO,
                    providers: vec![P1, P2].into(),
                };
                peer.on_message(T0, PeerAddr::Server, providers, out);
            },
            keeps_candidates: true,
        },
    ]
}

/// Drains `out`, keeping what the transfer rules emit; discovery, link
/// building and prefetch scheduling are the protocols' own.
fn transfer_commands(out: &mut Outbox) -> Vec<Command> {
    out.drain()
        .filter(|c| {
            matches!(
                c,
                Command::ToPeer {
                    msg: Message::ChunkRequest { .. }
                        | Message::ChunkData { .. }
                        | Message::ChunkUnavailable { .. },
                    ..
                } | Command::ToServer {
                    msg: Message::VideoRequest { .. }
                } | Command::Timer {
                    kind: TimerKind::ChunkDeadline { .. },
                    ..
                } | Command::Report(
                    Report::ChunkReceived { .. }
                        | Report::PlaybackStarted { .. }
                        | Report::ServerFallback { .. }
                )
            )
        })
        .collect()
}

fn ask(provider: NodeId, from_chunk: u32) -> [Command; 2] {
    [
        Command::ToPeer {
            to: provider,
            msg: Message::ChunkRequest {
                id: ID,
                video: VIDEO,
                from_chunk,
                kind: TransferKind::Playback,
            },
        },
        Command::Timer {
            delay: CHUNK_TIMEOUT,
            kind: TimerKind::ChunkDeadline { id: ID },
        },
    ]
}

fn ask_server(from_chunk: u32) -> [Command; 2] {
    let video = VIDEO;
    [
        Command::Report(Report::ServerFallback { node: ME, video }),
        Command::ToServer {
            msg: Message::VideoRequest {
                id: ID,
                video,
                from_chunk,
                kind: TransferKind::Playback,
            },
        },
    ]
}

fn received(source: ChunkSource) -> Command {
    Command::Report(Report::ChunkReceived {
        node: ME,
        video: VIDEO,
        bits: BITS,
        source,
        kind: TransferKind::Playback,
    })
}

fn deliver(peer: &mut dyn VodPeer, from: PeerAddr, chunk: u32, out: &mut Outbox) {
    let data = Message::ChunkData {
        id: ID,
        video: VIDEO,
        chunk,
        bits: BITS,
        kind: TransferKind::Playback,
    };
    peer.on_message(SimTime::from_micros(500_000), from, data, out);
}

/// What `REQUESTER` gets back for a `ChunkRequest`.
fn request(
    peer: &mut dyn VodPeer,
    video: VideoId,
    from_chunk: u32,
    kind: TransferKind,
) -> Vec<Message> {
    let mut out = Outbox::new();
    let msg = Message::ChunkRequest {
        id: RequestId::new(REQUESTER, 0),
        video,
        from_chunk,
        kind,
    };
    let now = SimTime::from_micros(900_000);
    peer.on_message(now, PeerAddr::Peer(REQUESTER), msg, &mut out);
    out.drain()
        .map(|c| match c {
            Command::ToPeer { to, msg } if to == REQUESTER => msg,
            other => panic!("a chunk request is answered to its sender only: {other:?}"),
        })
        .collect()
}

#[test]
fn all_three_peers_move_chunks_by_the_same_rules() {
    assert_eq!(ID, RequestId::new(ME, 0));
    let video = catalog().video(VIDEO).unwrap().clone();
    let (total, bits) = (video.chunk_count(), video.chunk_size_bits());
    let late = T0 + CHUNK_TIMEOUT;
    for mut case in cases() {
        let name = case.name;
        let peer = case.peer.as_mut();
        let mut out = Outbox::new();

        // A found provider is asked from chunk 0, under a deadline.
        (case.discover)(peer, &mut out);
        assert_eq!(transfer_commands(&mut out), ask(P1, 0), "{name}");

        // A chunk the catalog does not have (the wire carries any index) is
        // dropped before anything stores or counts it.
        for (video, chunk) in [(VIDEO, total), (VIDEO, u32::MAX), (UNKNOWN, 0)] {
            let data = Message::ChunkData {
                id: ID,
                video,
                chunk,
                bits: BITS,
                kind: TransferKind::Playback,
            };
            peer.on_message(T0, PeerAddr::Peer(P1), data, &mut out);
            assert_eq!(out.commands(), [], "{name}: chunk {chunk} of {video:?}");
            assert!(
                !peer.has_cached(video),
                "{name}: chunk {chunk} of {video:?}"
            );
        }

        // Playback is reported on the first chunk, once.
        deliver(peer, PeerAddr::Peer(P1), 0, &mut out);
        let started = Command::Report(Report::PlaybackStarted {
            node: ME,
            video: VIDEO,
            requested_at: T0,
            source: ChunkSource::Peer,
        });
        let from_peer = received(ChunkSource::Peer);
        assert_eq!(
            transfer_commands(&mut out),
            [from_peer.clone(), started],
            "{name}"
        );
        deliver(peer, PeerAddr::Peer(P1), 1, &mut out);
        assert_eq!(transfer_commands(&mut out), [from_peer], "{name}");

        // The provider stalls: the next candidate, or with none the server,
        // continues from the next missing chunk.
        peer.on_timer(late, TimerKind::ChunkDeadline { id: ID }, &mut out);
        if case.keeps_candidates {
            assert_eq!(transfer_commands(&mut out), ask(P2, 2), "{name}");
            let gone = Message::ChunkUnavailable {
                id: ID,
                video: VIDEO,
            };
            peer.on_message(late, PeerAddr::Peer(P2), gone, &mut out);
        }
        assert_eq!(transfer_commands(&mut out), ask_server(2), "{name}");

        // The rest arrives from the server; resuming a request that already
        // started does not start it again. The last chunk ends it.
        for chunk in 2..total {
            assert!(!peer.has_cached(VIDEO), "{name}: {chunk} still missing");
            deliver(peer, PeerAddr::Server, chunk, &mut out);
            let from_server = [received(ChunkSource::Server)];
            assert_eq!(transfer_commands(&mut out), from_server, "{name}: {chunk}");
        }
        assert!(peer.has_cached(VIDEO), "{name}");
        peer.on_timer(late, TimerKind::ChunkDeadline { id: ID }, &mut out);
        assert_eq!(transfer_commands(&mut out), [], "{name}: request forgotten");

        // Serving what is held: through the last chunk for playback, the
        // one requested chunk for a prefetch, nothing past the end.
        let chunks = |range: std::ops::Range<u32>, kind| -> Vec<Message> {
            range
                .map(|chunk| Message::ChunkData {
                    id: RequestId::new(REQUESTER, 0),
                    video: VIDEO,
                    chunk,
                    bits,
                    kind,
                })
                .collect()
        };
        let (playback, prefetch) = (TransferKind::Playback, TransferKind::Prefetch);
        for (from_chunk, kind, want) in [
            (0, playback, 0..total),
            (5, playback, 5..total),
            (3, prefetch, 3..4),
            (total - 1, prefetch, total - 1..total),
            (total, playback, 0..0),
            (total, prefetch, 0..0),
        ] {
            assert_eq!(
                request(peer, VIDEO, from_chunk, kind),
                chunks(want, kind),
                "{name}: {kind:?} from {from_chunk}"
            );
        }

        // A video not held is refused.
        let refused = Message::ChunkUnavailable {
            id: RequestId::new(REQUESTER, 0),
            video: OTHER,
        };
        assert_eq!(request(peer, OTHER, 0, playback), [refused], "{name}");
    }
}

/// The simulator's loops deliver every peer message without asking
/// `is_online()` first: a logged-off peer drops whatever it is sent,
/// including what it answered a moment before.
#[test]
fn a_logged_off_peer_drops_what_it_is_sent() {
    let id = RequestId::new(REQUESTER, 0);
    let total = catalog().video(VIDEO).unwrap().chunk_count();
    for mut case in cases() {
        let name = case.name;
        let peer = case.peer.as_mut();
        let mut out = Outbox::new();
        (case.discover)(peer, &mut out);
        for chunk in 0..total {
            deliver(peer, PeerAddr::Peer(P1), chunk, &mut out);
        }
        let playback = TransferKind::Playback;
        assert_eq!(request(peer, VIDEO, 0, playback).len(), total as usize);

        peer.on_logout(SimTime::from_micros(950_000), &mut out);
        out.drain();
        let links = peer.link_count();
        for msg in [
            Message::Query {
                id,
                video: VIDEO,
                ttl: 2,
                origin: REQUESTER,
                scope: QueryScope::Channel(CHANNEL),
            },
            Message::ChunkRequest {
                id,
                video: VIDEO,
                from_chunk: 0,
                kind: playback,
            },
            Message::Probe { nonce: 1 },
        ] {
            let now = SimTime::from_micros(1_000_000);
            peer.on_message(now, PeerAddr::Peer(REQUESTER), msg.clone(), &mut out);
            assert_eq!(out.commands(), [], "{name}: {msg:?} while logged off");
            assert_eq!(peer.link_count(), links, "{name}: {msg:?}");
        }
        assert!(!peer.is_online(), "{name}");
    }
}

/// The flood's neighbours: the one a query arrives from, its origin, and
/// two more.
const SENDER: NodeId = NodeId::new(3);
const ORIGIN: NodeId = NodeId::new(4);
const N1: NodeId = NodeId::new(5);
const N2: NodeId = NodeId::new(6);

/// The two flooding peers, logged in with `SENDER`, `ORIGIN`, `N1` and `N2`
/// as neighbours a `CHANNEL` query reaches, holding `VIDEO` in full and
/// nothing of `OTHER`.
fn flooding_peers() -> Vec<(&'static str, Box<dyn VodPeer>)> {
    let config = SocialTubeConfig::default();
    let net = NetTubePeer::new(ME, catalog(), &config, SimRng::seed(1));
    let social = SocialTubePeer::new(ME, catalog(), vec![CHANNEL], config);
    let mut peers: Vec<(&'static str, Box<dyn VodPeer>)> =
        vec![("SocialTube", Box::new(social)), ("NetTube", Box::new(net))];
    let total = catalog().video(VIDEO).unwrap().chunk_count();
    for (_, peer) in &mut peers {
        let mut out = Outbox::new();
        peer.on_login(SimTime::ZERO, &mut out);
        for neighbor in [SENDER, ORIGIN, N1, N2] {
            let connect = Message::ConnectRequest {
                kind: LinkKind::Inner,
                channel: Some(CHANNEL),
                video: Some(VIDEO),
            };
            peer.on_message(SimTime::ZERO, PeerAddr::Peer(neighbor), connect, &mut out);
        }
        for chunk in 0..total {
            deliver(peer.as_mut(), PeerAddr::Server, chunk, &mut out);
        }
    }
    peers
}

/// A query of `ORIGIN`'s with request counter `n`.
fn query(n: u32, video: VideoId, ttl: u8) -> Message {
    Message::Query {
        id: RequestId::new(ORIGIN, n),
        video,
        ttl,
        origin: ORIGIN,
        scope: QueryScope::Channel(CHANNEL),
    }
}

/// What the peer emits when `from` delivers `msg`.
fn flood(peer: &mut dyn VodPeer, from: NodeId, msg: Message) -> Vec<Command> {
    let mut out = Outbox::new();
    peer.on_message(SimTime::from_micros(5), PeerAddr::Peer(from), msg, &mut out);
    out.drain().collect()
}

/// `query(n, OTHER, ttl)` passed on to `N1` and `N2` with `ttl − 1`.
fn forwarded(n: u32, ttl: u8) -> Vec<Command> {
    let msg = query(n, OTHER, ttl - 1);
    [N1, N2]
        .map(|to| Command::ToPeer {
            to,
            msg: msg.clone(),
        })
        .into()
}

/// `ME`'s answer to `query(n, VIDEO, ttl)`, sent to the origin.
fn hit(n: u32, ttl: u8) -> Vec<Command> {
    let msg = Message::QueryHit {
        id: RequestId::new(ORIGIN, n),
        video: VIDEO,
        provider: ME,
        provider_channel: None,
        ttl,
    };
    vec![Command::ToPeer { to: ORIGIN, msg }]
}

#[test]
fn both_flooding_peers_flood_by_the_same_rules() {
    for (name, mut peer) in flooding_peers() {
        let peer = peer.as_mut();

        // A forward skips the sender and the origin, with `ttl − 1`.
        assert_eq!(
            flood(peer, SENDER, query(0, OTHER, 2)),
            forwarded(0, 2),
            "{name}"
        );

        // A duplicate is dropped, whoever delivers it.
        assert_eq!(flood(peer, N1, query(0, OTHER, 2)), [], "{name}: duplicate");

        // The window holds `SEEN_QUERY_WINDOW` ids: query 0 is a duplicate
        // until that many newer ids push it out, then it is fresh again.
        let window = SEEN_QUERY_WINDOW as u32;
        for n in 1..window {
            assert_eq!(flood(peer, SENDER, query(n, OTHER, 2)), forwarded(n, 2));
        }
        assert_eq!(flood(peer, N1, query(0, OTHER, 2)), [], "{name}: in window");
        assert_eq!(
            flood(peer, SENDER, query(window, OTHER, 2)),
            forwarded(window, 2)
        );
        let again = flood(peer, SENDER, query(0, OTHER, 2));
        assert_eq!(again, forwarded(0, 2), "{name}: evicted");

        // A query this peer started is dropped.
        let own = Message::Query {
            id: RequestId::new(ME, 0),
            video: VIDEO,
            ttl: 2,
            origin: ME,
            scope: QueryScope::Channel(CHANNEL),
        };
        assert_eq!(flood(peer, SENDER, own), [], "{name}: own query");

        // TTL 0 is answered, or reported expired, and never forwarded.
        let expired = Command::Report(Report::TtlExpired {
            node: ME,
            video: OTHER,
        });
        let n = window + 1;
        assert_eq!(flood(peer, SENDER, query(n, OTHER, 0)), [expired], "{name}");
        assert_eq!(flood(peer, SENDER, query(n + 1, VIDEO, 0)), hit(n + 1, 0));

        // A hit goes to the origin, not the sender, and ends the flood.
        assert_eq!(flood(peer, SENDER, query(n + 2, VIDEO, 2)), hit(n + 2, 2));

        // A logged-off peer drops everything, fresh queries included.
        peer.on_logout(SimTime::from_micros(10), &mut Outbox::new());
        for msg in [query(n + 3, OTHER, 2), query(n + 4, VIDEO, 2)] {
            assert_eq!(flood(peer, SENDER, msg), [], "{name}: logged off");
        }
    }
}
