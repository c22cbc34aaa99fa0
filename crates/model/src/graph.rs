//! The subscription social graph.

use std::collections::HashMap;

use crate::{Catalog, CategoryId, ChannelId, ModelError, NodeId, User};

/// The bipartite user↔channel subscription graph plus per-user interests —
/// the *actual established social network in YouTube* that SocialTube
/// leverages (Section I).
///
/// The graph answers the queries the protocols and the trace analysis need:
/// who subscribes to a channel, what a user subscribes to, which categories a
/// user's subscriptions span, and which channels share subscribers (Fig 10).
///
/// # Examples
///
/// ```
/// use socialtube_model::{ChannelId, NodeId, SocialGraph};
///
/// let mut g = SocialGraph::new(2, 1);
/// g.subscribe(NodeId::new(0), ChannelId::new(0));
/// g.subscribe(NodeId::new(1), ChannelId::new(0));
/// assert_eq!(g.subscribers(ChannelId::new(0)).len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct SocialGraph {
    users: Vec<User>,
    /// Subscribers of each channel, indexed by `ChannelId`.
    subscribers: Vec<Vec<NodeId>>,
}

impl SocialGraph {
    /// Creates a graph for `user_count` users and `channel_count` channels,
    /// with no subscriptions.
    pub fn new(user_count: usize, channel_count: usize) -> Self {
        Self {
            users: (0..user_count as u32)
                .map(|i| User::new(NodeId::new(i)))
                .collect(),
            subscribers: vec![Vec::new(); channel_count],
        }
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Looks up a user.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownUser`] if out of range.
    pub fn user(&self, id: NodeId) -> Result<&User, ModelError> {
        self.users
            .get(id.index())
            .ok_or(ModelError::UnknownUser(id))
    }

    /// Mutable access to a user.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownUser`] if out of range.
    pub fn user_mut(&mut self, id: NodeId) -> Result<&mut User, ModelError> {
        self.users
            .get_mut(id.index())
            .ok_or(ModelError::UnknownUser(id))
    }

    /// Iterates over all users.
    pub fn users(&self) -> impl Iterator<Item = &User> {
        self.users.iter()
    }

    /// Subscribes `user` to `channel`, updating both directions.
    ///
    /// Returns `true` if the subscription was newly added.
    ///
    /// # Panics
    ///
    /// Panics if `user` or `channel` is out of range.
    pub fn subscribe(&mut self, user: NodeId, channel: ChannelId) -> bool {
        assert!(
            channel.index() < self.subscribers.len(),
            "channel out of range"
        );
        let added = self.users[user.index()].subscribe(channel);
        if added {
            self.subscribers[channel.index()].push(user);
        }
        added
    }

    /// Returns the subscribers of `channel` in subscription order.
    ///
    /// Unknown channels yield an empty slice.
    pub fn subscribers(&self, channel: ChannelId) -> &[NodeId] {
        self.subscribers
            .get(channel.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns the number of subscribers of `channel` (Fig 4 statistic).
    pub fn subscriber_count(&self, channel: ChannelId) -> usize {
        self.subscribers(channel).len()
    }

    /// Returns the distinct categories covered by `user`'s subscriptions
    /// (the `C_c` set of Section III-D), resolved through `catalog`.
    ///
    /// # Errors
    ///
    /// Returns an error if the user is unknown or a subscription references
    /// an unknown channel.
    pub fn subscribed_categories(
        &self,
        user: NodeId,
        catalog: &Catalog,
    ) -> Result<Vec<CategoryId>, ModelError> {
        let u = self.user(user)?;
        let mut cats: Vec<CategoryId> = Vec::new();
        for ch in u.subscriptions() {
            for cat in catalog.channel(*ch)?.categories() {
                if !cats.contains(cat) {
                    cats.push(*cat);
                }
            }
        }
        Ok(cats)
    }

    /// Computes edges between channels weighted by shared-subscriber count,
    /// keeping only pairs sharing at least `threshold` subscribers — the
    /// construction behind the paper's Fig 10 channel-clustering graph.
    ///
    /// Runs in `O(Σ_u d_u²)` over user subscription degrees, which is fine
    /// because users subscribe to few channels.
    pub fn shared_subscriber_edges(&self, threshold: usize) -> Vec<SharedSubscriberEdge> {
        let mut counts: HashMap<(ChannelId, ChannelId), usize> = HashMap::new();
        for user in &self.users {
            let subs = user.subscriptions();
            for i in 0..subs.len() {
                for j in (i + 1)..subs.len() {
                    let key = if subs[i] < subs[j] {
                        (subs[i], subs[j])
                    } else {
                        (subs[j], subs[i])
                    };
                    *counts.entry(key).or_insert(0) += 1;
                }
            }
        }
        let mut edges: Vec<SharedSubscriberEdge> = counts
            .into_iter()
            .filter(|(_, shared)| *shared >= threshold)
            .map(|((a, b), shared)| SharedSubscriberEdge { a, b, shared })
            .collect();
        edges.sort_by(|x, y| {
            y.shared
                .cmp(&x.shared)
                .then(x.a.cmp(&y.a))
                .then(x.b.cmp(&y.b))
        });
        edges
    }
}

/// One edge of the Fig 10 channel graph: channels `a` and `b` share
/// `shared` subscribers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedSubscriberEdge {
    /// First channel (smaller identifier).
    pub a: ChannelId,
    /// Second channel (larger identifier).
    pub b: ChannelId,
    /// Number of users subscribed to both.
    pub shared: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CatalogBuilder;

    fn graph3() -> SocialGraph {
        let mut g = SocialGraph::new(3, 3);
        g.subscribe(NodeId::new(0), ChannelId::new(0));
        g.subscribe(NodeId::new(0), ChannelId::new(1));
        g.subscribe(NodeId::new(1), ChannelId::new(0));
        g.subscribe(NodeId::new(1), ChannelId::new(1));
        g.subscribe(NodeId::new(2), ChannelId::new(2));
        g
    }

    #[test]
    fn subscribe_updates_both_directions() {
        let g = graph3();
        assert_eq!(
            g.subscribers(ChannelId::new(0)),
            &[NodeId::new(0), NodeId::new(1)]
        );
        assert!(g
            .user(NodeId::new(0))
            .unwrap()
            .subscriptions()
            .contains(&ChannelId::new(1)));
    }

    #[test]
    fn duplicate_subscription_not_double_counted() {
        let mut g = graph3();
        assert!(!g.subscribe(NodeId::new(0), ChannelId::new(0)));
        assert_eq!(g.subscriber_count(ChannelId::new(0)), 2);
    }

    #[test]
    fn shared_subscriber_edges_apply_threshold() {
        let g = graph3();
        let edges = g.shared_subscriber_edges(2);
        assert_eq!(
            edges,
            vec![SharedSubscriberEdge {
                a: ChannelId::new(0),
                b: ChannelId::new(1),
                shared: 2
            }]
        );
        assert!(g.shared_subscriber_edges(3).is_empty());
    }

    #[test]
    fn subscribed_categories_resolve_through_catalog() {
        let mut b = CatalogBuilder::new();
        let gaming = b.add_category();
        let music = b.add_category();
        b.add_channel([gaming]);
        b.add_channel([gaming, music]);
        b.add_channel([music]);
        let catalog = b.build();

        let g = graph3();
        let cats = g.subscribed_categories(NodeId::new(0), &catalog).unwrap();
        assert_eq!(cats, vec![gaming, music]);
        let cats2 = g.subscribed_categories(NodeId::new(2), &catalog).unwrap();
        assert_eq!(cats2, vec![music]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Shared-subscriber edges are canonical (a < b), unique, meet
            /// the threshold, and shrink monotonically as it rises.
            #[test]
            fn shared_edges_are_canonical_and_monotone(
                subs in proptest::collection::vec((0u32..30, 0u32..8), 0..150),
                threshold in 1usize..4,
            ) {
                let mut g = SocialGraph::new(30, 8);
                for (u, c) in subs {
                    g.subscribe(NodeId::new(u), ChannelId::new(c));
                }
                let edges = g.shared_subscriber_edges(threshold);
                let mut seen = std::collections::HashSet::new();
                for e in &edges {
                    prop_assert!(e.a < e.b, "edge not canonical");
                    prop_assert!(e.shared >= threshold);
                    prop_assert!(seen.insert((e.a, e.b)), "duplicate edge");
                }
                let stricter = g.shared_subscriber_edges(threshold + 1);
                prop_assert!(stricter.len() <= edges.len());
            }

            /// Subscription bookkeeping is consistent in both directions.
            #[test]
            fn subscriptions_are_bidirectional(
                subs in proptest::collection::vec((0u32..20, 0u32..5), 0..100),
            ) {
                let mut g = SocialGraph::new(20, 5);
                for (u, c) in subs {
                    g.subscribe(NodeId::new(u), ChannelId::new(c));
                }
                for u in 0..20u32 {
                    let user = g.user(NodeId::new(u)).expect("user exists");
                    for ch in user.subscriptions() {
                        prop_assert!(
                            g.subscribers(*ch).contains(&NodeId::new(u)),
                            "forward edge without reverse"
                        );
                    }
                }
                for c in 0..5u32 {
                    for n in g.subscribers(ChannelId::new(c)) {
                        prop_assert!(
                            g.user(*n)
                                .expect("user exists")
                                .subscriptions()
                                .contains(&ChannelId::new(c)),
                            "reverse edge without forward"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_user_is_an_error() {
        let g = graph3();
        assert!(g.user(NodeId::new(99)).is_err());
    }
}
