//! The SocialTube server: tracker for the community overlay plus origin
//! video store.

use std::collections::HashMap;
use std::sync::Arc;

use socialtube_model::{Catalog, ChannelId, NodeId, VideoId};
use socialtube_sim::{SimRng, SimTime};

use crate::messages::Message;
use crate::tracker::{serve_from_origin, Tracker};
use crate::traits::{ServerOutbox, VodServer};

/// Maximum channel contacts returned on join (the joining node's
/// inner-link budget; paper `N_l` = 5).
const MAX_CHANNEL_CONTACTS: usize = 5;
/// Maximum category contacts returned on join (the joining node's
/// inter-link budget; paper `N_h` = 10).
const MAX_CATEGORY_CONTACTS: usize = 10;

/// The centralized server of the SocialTube system.
///
/// Two roles (Section IV-A):
///
/// * **Tracker** — keeps per-channel membership of online subscribers so it
///   can hand joining nodes a random contact inside the channel overlay and
///   one contact per channel across the category cluster. Users report only
///   *subscription changes*, so the server tracks far less state than
///   NetTube's per-video watch reports.
/// * **Origin store** — serves any video the P2P overlays cannot, through a
///   bounded upload pipe (modelled by the driver), and publishes per-channel
///   popularity rankings that drive prefetching (Section IV-B).
#[derive(Debug)]
pub struct SocialTubeServer {
    catalog: Arc<Catalog>,
    /// Channels each known node subscribes to (latest report, shared with
    /// the peer's own copy — subscription sets are immutable once sent).
    subscriptions: HashMap<NodeId, Arc<[ChannelId]>>,
    /// Online subscribers per channel — the joinable channel overlays, one
    /// group per channel id (channel ids are contiguous).
    ///
    /// Invariant: a node is a member of channel *c* only if *c* is in
    /// `subscriptions[node]`, so removing a node means leaving the
    /// channels of its recorded set, not every channel — and the tracker
    /// needs no node → groups index of its own.
    members: Tracker,
    /// Lazily built per-channel popularity rankings, shared across every
    /// digest sent for the channel (the catalog is immutable, so rankings
    /// never change within a run).
    popularity: Vec<Option<Arc<[VideoId]>>>,
    rng: SimRng,
}

impl SocialTubeServer {
    /// Creates a server over `catalog` with deterministic contact selection
    /// seeded by `rng`.
    pub fn new(catalog: Arc<Catalog>, rng: SimRng) -> Self {
        let channels = catalog.channel_count();
        Self {
            catalog,
            subscriptions: HashMap::new(),
            members: Tracker::new(channels),
            popularity: vec![None; channels],
            rng,
        }
    }

    /// Online members of `channel`'s overlay (tests and diagnostics).
    pub fn channel_members(&self, channel: ChannelId) -> &[NodeId] {
        self.members.members(channel.index())
    }

    /// Takes `node` out of every overlay it is in — by the invariant on
    /// `members`, those of its recorded subscription set.
    fn remove_everywhere(&mut self, node: NodeId) {
        let Some(subscribed) = self.subscriptions.get(&node) else {
            return;
        };
        for channel in subscribed.iter() {
            self.members.leave(channel.index(), node);
        }
    }

    /// The channel's popularity ranking, computed once and shared by every
    /// digest sent afterwards.
    fn ranked(&mut self, channel: ChannelId) -> Arc<[VideoId]> {
        self.popularity[channel.index()]
            .get_or_insert_with(|| self.catalog.channel_videos_by_popularity(channel).into())
            .clone()
    }
}

impl VodServer for SocialTubeServer {
    fn on_message(&mut self, _now: SimTime, from: NodeId, msg: Message, out: &mut ServerOutbox) {
        match msg {
            Message::SubscriptionUpdate { subscribed } => {
                // Re-home the node's memberships to the new subscription set.
                self.remove_everywhere(from);
                for ch in subscribed.iter().copied() {
                    // A channel the catalog lacks is refused here: it gets
                    // no overlay membership and no digest.
                    if self.catalog.channel(ch).is_err() {
                        continue;
                    }
                    self.members.join(ch.index(), from);
                    // Publish the channel's popularity ranking so the node
                    // can prefetch (Section IV-B: "the server provides the
                    // popularities of videos in each channel to its
                    // subscribers periodically").
                    let ranked = self.ranked(ch);
                    out.to_peer(
                        from,
                        Message::PopularityDigest {
                            channel: ch,
                            ranked,
                        },
                    );
                }
                self.subscriptions.insert(from, subscribed);
            }

            Message::LogOff => self.remove_everywhere(from),

            Message::JoinRequest { video } => {
                let Ok(v) = self.catalog.video(video) else {
                    return;
                };
                let channel = v.channel();
                let subscribed = self
                    .subscriptions
                    .get(&from)
                    .is_some_and(|subs| subs.contains(&channel));

                // A subscriber joins the channel overlay (possibly as its
                // first node); a non-subscriber is only served contacts
                // without entering the overlay (Section IV-A).
                let channel_contacts =
                    self.members
                        .pick(&mut self.rng, channel.index(), from, MAX_CHANNEL_CONTACTS);
                if subscribed {
                    self.members.join(channel.index(), from);
                }

                let category = self
                    .catalog
                    .channel(channel)
                    .ok()
                    .and_then(|c| c.primary_category());
                let mut category_contacts = Vec::new();
                if let Some(cat) = category {
                    // One contact per sibling channel that has one.
                    for &sibling in self.catalog.channels_in_category(cat) {
                        if category_contacts.len() >= MAX_CATEGORY_CONTACTS {
                            break;
                        }
                        if sibling == channel {
                            continue;
                        }
                        let members = self.members.members(sibling.index());
                        if let Some(contact) = self.rng.pick_except(members, &from) {
                            category_contacts.push(*contact);
                        }
                    }
                }

                out.to_peer(
                    from,
                    Message::JoinResponse {
                        video,
                        channel_contacts: channel_contacts.into(),
                        category_contacts: category_contacts.into(),
                    },
                );
                // Non-subscribers still receive the digest of the channel
                // they are watching so prefetching can work there.
                let ranked = self.ranked(channel);
                out.to_peer(from, Message::PopularityDigest { channel, ranked });
            }

            Message::VideoRequest {
                id,
                video,
                from_chunk,
                kind,
            } => serve_from_origin(&self.catalog, from, id, video, from_chunk, kind, out),

            // Messages belonging to the baseline protocols or peer↔peer
            // traffic; the SocialTube server ignores them.
            _ => {}
        }
    }

    fn tracked_entries(&self) -> usize {
        self.members.tracked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RequestId;
    use crate::traits::{Report, ServerCommand, TransferKind};
    use socialtube_model::CatalogBuilder;

    fn fixture() -> (Arc<Catalog>, Vec<ChannelId>, Vec<VideoId>) {
        let mut b = CatalogBuilder::new();
        let news = b.add_category();
        let c0 = b.add_channel([news]);
        let c1 = b.add_channel([news]);
        let v0 = b.add_video(c0, 100, 0);
        let v1 = b.add_video(c1, 100, 0);
        b.set_views(v0, 100);
        b.set_views(v1, 50);
        (Arc::new(b.build()), vec![c0, c1], vec![v0, v1])
    }

    fn server() -> (SocialTubeServer, Vec<ChannelId>, Vec<VideoId>) {
        let (catalog, chans, vids) = fixture();
        (SocialTubeServer::new(catalog, SimRng::seed(1)), chans, vids)
    }

    fn login(s: &mut SocialTubeServer, node: u32, subs: Vec<ChannelId>, out: &mut ServerOutbox) {
        s.on_message(
            SimTime::ZERO,
            NodeId::new(node),
            Message::SubscriptionUpdate {
                subscribed: subs.into(),
            },
            out,
        );
    }

    #[test]
    fn subscription_update_builds_membership_and_sends_digests() {
        let (mut s, chans, _) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0]], &mut out);
        assert_eq!(s.channel_members(chans[0]), &[NodeId::new(1)]);
        assert!(out.commands().iter().any(|c| matches!(
            c,
            ServerCommand::ToPeer {
                msg: Message::PopularityDigest { .. },
                ..
            }
        )));
    }

    #[test]
    fn subscription_update_refuses_unknown_channels() {
        let (mut s, chans, _) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0], ChannelId::new(999)], &mut out);
        assert_eq!(s.channel_members(chans[0]), &[NodeId::new(1)]);
        assert!(s.channel_members(ChannelId::new(999)).is_empty());
        assert_eq!(s.tracked_entries(), 1);
        let digests: Vec<ChannelId> = out
            .commands()
            .iter()
            .filter_map(|c| match c {
                ServerCommand::ToPeer {
                    msg: Message::PopularityDigest { channel, .. },
                    ..
                } => Some(*channel),
                _ => None,
            })
            .collect();
        assert_eq!(digests, [chans[0]], "a digest only for the known one");
        // Re-homing and logging off leave through the recorded set, the
        // refused channel included.
        login(&mut s, 1, vec![ChannelId::new(999)], &mut out);
        assert!(s.channel_members(chans[0]).is_empty());
        s.on_message(SimTime::ZERO, NodeId::new(1), Message::LogOff, &mut out);
        assert_eq!(s.tracked_entries(), 0);
    }

    #[test]
    fn join_returns_channel_contact_for_subscribers() {
        let (mut s, chans, vids) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0]], &mut out);
        login(&mut s, 2, vec![chans[0]], &mut out);
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(2),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        let response = out
            .commands()
            .iter()
            .find_map(|c| match c {
                ServerCommand::ToPeer {
                    msg:
                        Message::JoinResponse {
                            channel_contacts, ..
                        },
                    ..
                } => Some(channel_contacts.clone()),
                _ => None,
            })
            .expect("join response");
        assert_eq!(&response[..], &[NodeId::new(1)]);
    }

    #[test]
    fn first_subscriber_gets_no_contact_but_joins_overlay() {
        let (mut s, chans, vids) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0]], &mut out);
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        let contact = out
            .commands()
            .iter()
            .find_map(|c| match c {
                ServerCommand::ToPeer {
                    msg:
                        Message::JoinResponse {
                            channel_contacts, ..
                        },
                    ..
                } => Some(channel_contacts.clone()),
                _ => None,
            })
            .expect("join response");
        assert!(contact.is_empty());
        assert!(s.channel_members(chans[0]).contains(&NodeId::new(1)));
    }

    #[test]
    fn join_returns_category_contacts_across_channels() {
        let (mut s, chans, vids) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[1]], &mut out);
        login(&mut s, 2, vec![chans[0]], &mut out);
        out.drain();
        // Node 2 joins for a chans[0] video; chans[1] has member node 1.
        s.on_message(
            SimTime::ZERO,
            NodeId::new(2),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        let contacts = out
            .commands()
            .iter()
            .find_map(|c| match c {
                ServerCommand::ToPeer {
                    msg:
                        Message::JoinResponse {
                            category_contacts, ..
                        },
                    ..
                } => Some(category_contacts.clone()),
                _ => None,
            })
            .expect("join response");
        assert_eq!(&contacts[..], &[NodeId::new(1)]);
    }

    #[test]
    fn non_subscriber_join_does_not_enter_overlay() {
        let (mut s, chans, vids) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[1]], &mut out);
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        assert!(!s.channel_members(chans[0]).contains(&NodeId::new(1)));
    }

    #[test]
    fn logoff_removes_membership() {
        let (mut s, chans, _) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0], chans[1]], &mut out);
        assert_eq!(s.tracked_entries(), 2);
        s.on_message(SimTime::ZERO, NodeId::new(1), Message::LogOff, &mut out);
        assert_eq!(s.tracked_entries(), 0);
    }

    #[test]
    fn video_request_serves_and_reports() {
        let (mut s, _, vids) = server();
        let mut out = ServerOutbox::new();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::VideoRequest {
                id: RequestId::new(NodeId::new(1), 0),
                video: vids[0],
                from_chunk: 0,
                kind: TransferKind::Playback,
            },
            &mut out,
        );
        assert!(out
            .commands()
            .iter()
            .any(|c| matches!(c, ServerCommand::ServeChunks { .. })));
        assert!(out
            .commands()
            .iter()
            .any(|c| matches!(c, ServerCommand::Report(Report::ServedFromOrigin { .. }))));
    }

    #[test]
    fn prefetch_requests_are_not_reported_as_origin_serves() {
        let (mut s, _, vids) = server();
        let mut out = ServerOutbox::new();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::VideoRequest {
                id: RequestId::new(NodeId::new(1), 0),
                video: vids[0],
                from_chunk: 0,
                kind: TransferKind::Prefetch,
            },
            &mut out,
        );
        assert!(out
            .commands()
            .iter()
            .all(|c| !matches!(c, ServerCommand::Report(_))));
    }

    #[test]
    fn resubscription_rehomes_membership() {
        let (mut s, chans, _) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0]], &mut out);
        login(&mut s, 1, vec![chans[1]], &mut out);
        assert!(s.channel_members(chans[0]).is_empty());
        assert_eq!(s.channel_members(chans[1]), &[NodeId::new(1)]);
    }

    /// After every message of a login → join → re-login → log-off
    /// sequence: membership ⊆ recorded subscriptions (what
    /// `remove_everywhere` relies on) and the running count equals the
    /// member lists' total length.
    #[test]
    fn membership_stays_within_subscriptions_and_the_count_stays_exact() {
        fn check(s: &SocialTubeServer) {
            let channels = 0..s.catalog.channel_count();
            let total: usize = channels.clone().map(|c| s.members.members(c).len()).sum();
            assert_eq!(s.tracked_entries(), total);
            for index in channels {
                for node in s.members.members(index) {
                    let subscribed = &s.subscriptions[node];
                    assert!(
                        subscribed.iter().any(|c| c.index() == index),
                        "{node} in channel {index} without subscribing to it"
                    );
                }
            }
        }
        let join = |s: &mut SocialTubeServer, node: u32, video: VideoId| {
            let mut out = ServerOutbox::new();
            let msg = Message::JoinRequest { video };
            s.on_message(SimTime::ZERO, NodeId::new(node), msg, &mut out);
            check(s);
        };
        let (mut s, chans, vids) = server();
        let mut out = ServerOutbox::new();
        login(&mut s, 1, vec![chans[0]], &mut out);
        check(&s);
        login(&mut s, 2, vec![chans[0], chans[1]], &mut out);
        check(&s);
        join(&mut s, 1, vids[0]); // subscriber, already a member
        join(&mut s, 1, vids[1]); // non-subscriber: served, not admitted
        assert_eq!(s.channel_members(chans[1]), &[NodeId::new(2)]);
        join(&mut s, 3, vids[0]); // never logged in
        assert_eq!(s.tracked_entries(), 3);
        // Re-login with a different set re-homes node 1.
        login(&mut s, 1, vec![chans[1]], &mut out);
        check(&s);
        assert_eq!(s.channel_members(chans[0]), &[NodeId::new(2)]);
        assert_eq!(
            s.channel_members(chans[1]),
            &[NodeId::new(2), NodeId::new(1)]
        );
        // A log-off empties the overlays but keeps the recorded set, so a
        // late join (in flight across the log-off) re-admits the node.
        s.on_message(SimTime::ZERO, NodeId::new(1), Message::LogOff, &mut out);
        check(&s);
        assert_eq!(s.tracked_entries(), 2);
        join(&mut s, 1, vids[1]);
        assert_eq!(s.tracked_entries(), 3);
        s.on_message(SimTime::ZERO, NodeId::new(1), Message::LogOff, &mut out);
        s.on_message(SimTime::ZERO, NodeId::new(2), Message::LogOff, &mut out);
        check(&s);
        assert_eq!(s.tracked_entries(), 0);
    }

    #[test]
    fn category_contact_budget_is_respected() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let mut chans = Vec::new();
        let mut vids = Vec::new();
        for _ in 0..20 {
            let c = b.add_channel([cat]);
            vids.push(b.add_video(c, 100, 0));
            chans.push(c);
        }
        let mut s = SocialTubeServer::new(Arc::new(b.build()), SimRng::seed(1));
        let mut out = ServerOutbox::new();
        for (i, ch) in chans.iter().enumerate().skip(1) {
            login(&mut s, i as u32 + 100, vec![*ch], &mut out);
        }
        out.drain();
        s.on_message(
            SimTime::ZERO,
            NodeId::new(1),
            Message::JoinRequest { video: vids[0] },
            &mut out,
        );
        let contacts = out
            .commands()
            .iter()
            .find_map(|c| match c {
                ServerCommand::ToPeer {
                    msg:
                        Message::JoinResponse {
                            category_contacts, ..
                        },
                    ..
                } => Some(category_contacts.len()),
                _ => None,
            })
            .expect("join response");
        assert_eq!(contacts, MAX_CATEGORY_CONTACTS, "19 siblings have a member");
    }
}
