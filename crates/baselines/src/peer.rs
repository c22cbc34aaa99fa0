//! [`Peer`]: a peer of any of the three protocols, held by value.

use socialtube::{Message, Outbox, PeerAddr, SocialTubePeer, TimerKind, VodPeer};
use socialtube_model::{NodeId, VideoId};
use socialtube_sim::SimTime;

use crate::{NetTubePeer, PaVodPeer};

/// A peer of any of the three protocols, held by value: the one peer
/// value both platforms run.
///
/// The simulator keeps its whole population in one `Vec` of these, so a
/// delivery's first load is the receiving peer's own struct rather than a
/// box pointer and then the struct; each TCP daemon owns one. A PA-VoD
/// peer pads to the size of the largest variant, about 113 KB over a
/// 300-peer population.
#[allow(clippy::large_enum_variant)] // by-value peers are the point
#[derive(Debug)]
pub enum Peer {
    /// A SocialTube peer (with or without prefetch).
    SocialTube(SocialTubePeer),
    /// A NetTube peer (with or without prefetch).
    NetTube(NetTubePeer),
    /// A PA-VoD peer.
    PaVod(PaVodPeer),
}

/// Runs `$body` with `$peer` bound to whichever protocol's peer `$value`
/// holds.
macro_rules! with_peer {
    ($value:expr, $peer:ident => $body:expr) => {
        match $value {
            Peer::SocialTube($peer) => $body,
            Peer::NetTube($peer) => $body,
            Peer::PaVod($peer) => $body,
        }
    };
}

impl VodPeer for Peer {
    fn node(&self) -> NodeId {
        with_peer!(self, p => p.node())
    }

    fn on_login(&mut self, now: SimTime, out: &mut Outbox) {
        with_peer!(self, p => p.on_login(now, out))
    }

    fn on_logout(&mut self, now: SimTime, out: &mut Outbox) {
        with_peer!(self, p => p.on_logout(now, out))
    }

    fn watch(&mut self, now: SimTime, video: VideoId, out: &mut Outbox) {
        with_peer!(self, p => p.watch(now, video, out))
    }

    fn on_message(&mut self, now: SimTime, from: PeerAddr, msg: Message, out: &mut Outbox) {
        with_peer!(self, p => p.on_message(now, from, msg, out))
    }

    fn on_timer(&mut self, now: SimTime, timer: TimerKind, out: &mut Outbox) {
        with_peer!(self, p => p.on_timer(now, timer, out))
    }

    fn link_count(&self) -> usize {
        with_peer!(self, p => p.link_count())
    }

    fn is_online(&self) -> bool {
        with_peer!(self, p => p.is_online())
    }

    fn has_cached(&self, video: VideoId) -> bool {
        with_peer!(self, p => p.has_cached(video))
    }
}
