//! Every decodable message is safe input: whatever a socket can carry to a
//! daemon, from whichever sender, costs no peer and no server a panic.
//!
//! The wire codec already refuses malformed bytes; this drives what it
//! accepts — every `Message` variant, with video, channel, category and
//! node ids inside the catalog, just past it and at `u32::MAX` — into one
//! [`Peer`] of each protocol in four states (fresh, logged in, with a
//! transfer in flight, logged off) and into each protocol's server. What
//! they queue in reply goes through the same [`CommandInterpreter`] flush
//! the simulator and the daemons run.

use std::collections::VecDeque;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::{collection, TestRng};
use socialtube::harness::{CommandInterpreter, PeerSubstrate, ServerSubstrate};
use socialtube::{
    LinkKind, Message, Outbox, PeerAddr, QueryScope, RequestId, ServerOutbox, SocialTubeConfig,
    SocialTubePeer, SocialTubeServer, TimerKind, TransferKind, VodPeer, VodServer,
};
use socialtube_baselines::{NetTubePeer, NetTubeServer, PaVodPeer, PaVodServer, Peer};
use socialtube_model::{Catalog, CatalogBuilder, CategoryId, ChannelId, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimRng, SimTime};

/// The peer under test.
const ME: NodeId = NodeId::new(0);
/// Nodes 1.. are the peer's possible counterparts.
const NODES: u32 = 4;
const CATEGORIES: u32 = 2;
const CHANNELS: u32 = 3;
const VIDEOS: u32 = 6;
/// Chunks per video (4 s at 320 kbps, half a second each).
const CHUNKS: u32 = 8;
/// Number of `Message` variants [`AnyMessage`] draws from.
const VARIANTS: u32 = 23;

fn catalog() -> Arc<Catalog> {
    let mut b = CatalogBuilder::new();
    let categories = [b.add_category("a"), b.add_category("b")];
    let channels = [
        b.add_channel("c0", [categories[0]]),
        b.add_channel("c1", [categories[0], categories[1]]),
        b.add_channel("c2", [categories[1]]),
    ];
    for i in 0..VIDEOS {
        let v = b.add_video(channels[i as usize % channels.len()], 4, i);
        b.set_views(v, u64::from(VIDEOS - i) * 10);
    }
    let catalog = Arc::new(b.build());
    assert_eq!(catalog.video_count() as u32, VIDEOS);
    assert_eq!(
        catalog.video(VideoId::new(0)).unwrap().chunk_count(),
        CHUNKS
    );
    catalog
}

/// An id below `count`, exactly `count` (just past the catalog) or
/// `u32::MAX`, half of them in range.
fn id(count: u32) -> impl Strategy<Value = u32> {
    prop_oneof![0..count, 0..count, Just(count), Just(u32::MAX)]
}

/// Draws one value of `strategy`.
fn draw<S: Strategy>(strategy: S, rng: &mut TestRng) -> S::Value {
    strategy.pick(rng)
}

/// Any message, with its ids drawn by [`id`].
struct AnyMessage;

impl AnyMessage {
    fn video(rng: &mut TestRng) -> VideoId {
        VideoId::new(draw(id(VIDEOS), rng))
    }

    fn channel(rng: &mut TestRng) -> ChannelId {
        ChannelId::new(draw(id(CHANNELS), rng))
    }

    fn node(rng: &mut TestRng) -> NodeId {
        NodeId::new(draw(id(NODES), rng))
    }

    fn nodes(rng: &mut TestRng) -> Arc<[NodeId]> {
        (0..draw(0usize..5, rng)).map(|_| Self::node(rng)).collect()
    }

    /// Some node's first four requests (so replies can match the peer's
    /// own), or any id.
    fn request(rng: &mut TestRng) -> RequestId {
        match draw(0u32..3, rng) {
            0 => RequestId(draw(any::<u64>(), rng)),
            _ => RequestId::new(Self::node(rng), draw(0u32..4, rng)),
        }
    }

    fn chunk(rng: &mut TestRng) -> u32 {
        draw(id(CHUNKS), rng)
    }

    fn transfer(rng: &mut TestRng) -> TransferKind {
        [TransferKind::Playback, TransferKind::Prefetch][draw(0usize..2, rng)]
    }

    fn link(rng: &mut TestRng) -> LinkKind {
        [LinkKind::Inner, LinkKind::Inter][draw(0usize..2, rng)]
    }

    fn maybe<T>(rng: &mut TestRng, f: fn(&mut TestRng) -> T) -> Option<T> {
        draw(any::<bool>(), rng).then(|| f(rng))
    }
}

impl Strategy for AnyMessage {
    type Value = Message;

    fn pick(&self, rng: &mut TestRng) -> Message {
        type M = AnyMessage;
        match draw(0..VARIANTS, rng) {
            0 => Message::Query {
                id: M::request(rng),
                video: M::video(rng),
                ttl: draw(any::<u8>(), rng),
                origin: M::node(rng),
                scope: match draw(0u32..3, rng) {
                    0 => QueryScope::Channel(M::channel(rng)),
                    1 => QueryScope::Category(CategoryId::new(draw(id(CATEGORIES), rng))),
                    _ => QueryScope::PerVideo,
                },
            },
            1 => Message::QueryHit {
                id: M::request(rng),
                video: M::video(rng),
                provider: M::node(rng),
                provider_channel: M::maybe(rng, M::channel),
                ttl: draw(any::<u8>(), rng),
            },
            2 => Message::ChunkRequest {
                id: M::request(rng),
                video: M::video(rng),
                from_chunk: M::chunk(rng),
                kind: M::transfer(rng),
            },
            3 => Message::ChunkData {
                id: M::request(rng),
                video: M::video(rng),
                chunk: M::chunk(rng),
                bits: draw(prop_oneof![0..1_000_000u64, Just(u64::MAX)], rng),
                kind: M::transfer(rng),
            },
            4 => Message::ChunkUnavailable {
                id: M::request(rng),
                video: M::video(rng),
            },
            5 => Message::ConnectRequest {
                kind: M::link(rng),
                channel: M::maybe(rng, M::channel),
                video: M::maybe(rng, M::video),
            },
            6 => Message::ConnectAccept {
                kind: M::link(rng),
                channel: M::maybe(rng, M::channel),
                video: M::maybe(rng, M::video),
            },
            7 => Message::ConnectReject { kind: M::link(rng) },
            8 => Message::Probe {
                nonce: draw(prop_oneof![0..4u64, any::<u64>()], rng),
            },
            9 => Message::ProbeAck {
                nonce: draw(prop_oneof![0..4u64, any::<u64>()], rng),
            },
            10 => Message::Leave,
            11 => Message::CacheDigest {
                videos: (0..draw(0usize..5, rng)).map(|_| M::video(rng)).collect(),
            },
            12 => Message::JoinRequest {
                video: M::video(rng),
            },
            13 => Message::VideoRequest {
                id: M::request(rng),
                video: M::video(rng),
                from_chunk: M::chunk(rng),
                kind: M::transfer(rng),
            },
            14 => Message::ProviderLookup {
                id: M::request(rng),
                video: M::video(rng),
            },
            15 => Message::WatchStarted {
                video: M::video(rng),
            },
            16 => Message::WatchStopped {
                video: M::video(rng),
            },
            17 => Message::SubscriptionUpdate {
                subscribed: (0..draw(0usize..4, rng)).map(|_| M::channel(rng)).collect(),
            },
            18 => Message::LogOff,
            19 => Message::JoinResponse {
                video: M::video(rng),
                channel_contacts: M::nodes(rng),
                category_contacts: M::nodes(rng),
            },
            20 => Message::OverlayContacts {
                video: M::video(rng),
                contacts: M::nodes(rng),
            },
            21 => Message::ProviderList {
                id: M::request(rng),
                video: M::video(rng),
                providers: M::nodes(rng),
            },
            _ => Message::PopularityDigest {
                channel: M::channel(rng),
                ranked: (0..draw(0usize..5, rng)).map(|_| M::video(rng)).collect(),
            },
        }
    }
}

/// What the flushes route: the server's messages to the peer under test,
/// the peer's messages to the server and the timers it arms queue up;
/// peer-to-peer traffic is dropped.
#[derive(Default)]
struct Wire {
    to_me: VecDeque<Message>,
    to_server: VecDeque<Message>,
    timers: VecDeque<TimerKind>,
}

impl PeerSubstrate for Wire {
    fn peer_control(&mut self, _from: NodeId, _to: NodeId, _msg: Message) {}
    fn peer_bulk(&mut self, _from: NodeId, _to: NodeId, _bits: u64, _msg: Message) {}
    fn to_server(&mut self, _from: NodeId, msg: Message) {
        self.to_server.push_back(msg);
    }
    fn arm_timer(&mut self, _node: NodeId, _delay: SimDuration, kind: TimerKind) {
        self.timers.push_back(kind);
    }
}

impl ServerSubstrate for Wire {
    fn server_control(&mut self, to: NodeId, msg: Message) {
        if to == ME {
            self.to_me.push_back(msg);
        }
    }
    fn server_chunk(&mut self, to: NodeId, _bits: u64, msg: Message) {
        self.server_control(to, msg);
    }
}

/// One protocol's peer and server over one catalog.
struct Stack {
    peer: Peer,
    server: Box<dyn VodServer>,
    origin: CommandInterpreter,
    out: Outbox,
    served: ServerOutbox,
    wire: Wire,
}

impl Stack {
    fn new(protocol: usize) -> Stack {
        let (catalog, config) = (catalog(), SocialTubeConfig::default());
        let subscriptions = vec![ChannelId::new(0), ChannelId::new(1)];
        let (peer, server): (Peer, Box<dyn VodServer>) = match protocol {
            0 => (
                Peer::SocialTube(SocialTubePeer::new(
                    ME,
                    Arc::clone(&catalog),
                    subscriptions,
                    config,
                )),
                Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(1))),
            ),
            1 => (
                Peer::NetTube(NetTubePeer::new(
                    ME,
                    Arc::clone(&catalog),
                    &config,
                    SimRng::seed(2),
                )),
                Box::new(NetTubeServer::new(Arc::clone(&catalog), SimRng::seed(1))),
            ),
            _ => (
                Peer::PaVod(PaVodPeer::new(ME, Arc::clone(&catalog), &config)),
                Box::new(PaVodServer::new(Arc::clone(&catalog), SimRng::seed(1))),
            ),
        };
        Stack {
            peer,
            server,
            origin: CommandInterpreter::new(catalog),
            out: Outbox::new(),
            served: ServerOutbox::new(),
            wire: Wire::default(),
        }
    }

    /// Runs what the peer queued through the interpreter, hands the
    /// server what the peer sent it, and flushes the server's replies.
    fn flush(&mut self, now: SimTime) {
        CommandInterpreter::flush_peer(ME, &mut self.out, &mut self.wire, |_, _| {});
        while let Some(msg) = self.wire.to_server.pop_front() {
            self.server.on_message(now, ME, msg, &mut self.served);
        }
        self.origin
            .flush_server(&mut self.served, &mut self.wire, |_, _| {});
    }

    /// Logs in and watches video 0 with the server as the only
    /// counterpart, until the first chunk has arrived: a transfer in
    /// flight. Search deadlines fire once the messages run out.
    fn mid_transfer(&mut self, now: SimTime) {
        self.peer.on_login(now, &mut self.out);
        self.peer.watch(now, VideoId::new(0), &mut self.out);
        self.flush(now);
        for _ in 0..100 {
            if let Some(msg) = self.wire.to_me.pop_front() {
                let chunk = matches!(msg, Message::ChunkData { .. });
                self.peer
                    .on_message(now, PeerAddr::Server, msg, &mut self.out);
                self.flush(now);
                if chunk {
                    assert!(
                        !self.peer.has_cached(VideoId::new(0)),
                        "transfer already done"
                    );
                    return;
                }
            } else {
                let Some(timer) = self.wire.timers.pop_front() else {
                    break;
                };
                if matches!(timer, TimerKind::SearchDeadline { .. }) {
                    self.peer.on_timer(now, timer, &mut self.out);
                    self.flush(now);
                }
            }
        }
        panic!("no chunk of video 0 ever arrived");
    }
}

/// The states a peer is fuzzed in.
#[derive(Clone, Copy, Debug)]
enum State {
    Fresh,
    LoggedIn,
    MidTransfer,
    LoggedOff,
}

const STATES: [State; 4] = [
    State::Fresh,
    State::LoggedIn,
    State::MidTransfer,
    State::LoggedOff,
];

fn stack_in(protocol: usize, state: State) -> Stack {
    let mut stack = Stack::new(protocol);
    let now = SimTime::ZERO;
    match state {
        State::Fresh => {}
        State::LoggedIn => stack.peer.on_login(now, &mut stack.out),
        State::MidTransfer => stack.mid_transfer(now),
        State::LoggedOff => {
            stack.mid_transfer(now);
            stack.peer.on_logout(now, &mut stack.out);
        }
    }
    stack.flush(now);
    stack.wire = Wire::default();
    stack
}

proptest! {
    /// No sequence of arbitrary messages panics a peer of any protocol in
    /// any of the four states, nor any protocol's server. A peer hears each
    /// message from the server or from the node, the server from the node.
    #[test]
    fn arbitrary_messages_never_panic_a_peer_or_server(
        steps in collection::vec((id(NODES), any::<bool>(), AnyMessage), 1..64),
    ) {
        let at = |i: usize| SimTime::from_micros(1_000 * (i as u64 + 1));
        for protocol in 0..3 {
            for state in STATES {
                let mut stack = stack_in(protocol, state);
                for (i, (node, from_server, msg)) in steps.iter().enumerate() {
                    let from = match from_server {
                        true => PeerAddr::Server,
                        false => PeerAddr::Peer(NodeId::new(*node)),
                    };
                    stack.peer.on_message(at(i), from, msg.clone(), &mut stack.out);
                    stack.flush(at(i));
                }
            }
            // The server with the peer registered, mid-transfer.
            let mut stack = stack_in(protocol, State::MidTransfer);
            for (i, (node, _, msg)) in steps.iter().enumerate() {
                let from = NodeId::new(*node);
                stack.server.on_message(at(i), from, msg.clone(), &mut stack.served);
                stack.flush(at(i));
            }
        }
    }
}

/// The generator reaches every variant, so the property covers them all.
#[test]
fn any_message_draws_every_variant() {
    let mut tags = std::collections::BTreeSet::new();
    proptest::run_property("any_message_draws_every_variant", |rng, _| {
        for _ in 0..8 {
            tags.insert(AnyMessage.pick(rng).tag());
        }
    });
    assert_eq!(tags.len(), VARIANTS as usize, "{tags:?}");
}

/// Each protocol's peer reaches each of the four states the property
/// starts from.
#[test]
fn every_state_is_reachable_for_every_protocol() {
    for protocol in 0..3 {
        for state in STATES {
            let stack = stack_in(protocol, state);
            let online = matches!(state, State::LoggedIn | State::MidTransfer);
            assert_eq!(
                stack.peer.is_online(),
                online,
                "protocol {protocol}, {state:?}"
            );
        }
    }
}
