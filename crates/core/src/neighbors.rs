//! The SocialTube neighbor table: inner-links and inter-links.

use socialtube_model::{Catalog, CategoryId, ChannelId, NodeId};

use crate::messages::LinkKind;

/// One overlay neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Neighbor {
    /// The neighbor's node identifier.
    pub(crate) node: NodeId,
    /// The channel the neighbor was last known to be watching (`None` until
    /// learned). Determines whether the link is inner or inter relative to
    /// our current channel.
    pub(crate) channel: Option<ChannelId>,
}

/// Bounded table of overlay links (Section IV-A).
///
/// A node keeps at most `N_l` *inner-links* — neighbors in the channel it is
/// currently watching — and at most `N_h` *inter-links* — neighbors in other
/// channels of the same interest category. The split is *relative to the
/// current channel*: when the node switches channels, links re-classify, and
/// links that fit neither bucket are shed (the paper: "u9 maintains no links
/// to users outside of his/her channel or category").
#[derive(Clone, Debug)]
pub(crate) struct NeighborTable {
    neighbors: Vec<Neighbor>,
    inner_cap: usize,
    inter_cap: usize,
    current_channel: Option<ChannelId>,
}

impl NeighborTable {
    /// Creates an empty table with the given capacities (`N_l`, `N_h`).
    pub(crate) fn new(inner_cap: usize, inter_cap: usize) -> Self {
        Self {
            neighbors: Vec::new(),
            inner_cap,
            inter_cap,
            current_channel: None,
        }
    }

    /// Sets the channel the node is currently watching. Does **not** shed
    /// links; the peer calls `shed_out_of_community` afterwards with the
    /// catalog.
    pub(crate) fn set_current_channel(&mut self, channel: Option<ChannelId>) {
        self.current_channel = channel;
    }

    /// Total links maintained (the maintenance-overhead metric).
    pub(crate) fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// All neighbors.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.neighbors.iter()
    }

    /// Classifies the link to `neighbor_channel` relative to the current
    /// channel: same channel → inner, anything else → inter.
    pub(crate) fn classify(&self, neighbor_channel: Option<ChannelId>) -> LinkKind {
        match (self.current_channel, neighbor_channel) {
            (Some(mine), Some(theirs)) if mine == theirs => LinkKind::Inner,
            _ => LinkKind::Inter,
        }
    }

    /// Returns `true` if `node` is a neighbor.
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.neighbors.iter().any(|n| n.node == node)
    }

    /// The links of `kind` relative to the current channel, in table order.
    pub(crate) fn of_kind(&self, kind: LinkKind) -> impl Iterator<Item = &Neighbor> {
        self.neighbors
            .iter()
            .filter(move |n| self.classify(n.channel) == kind)
    }

    /// Whether a link of `kind` can still be added.
    pub(crate) fn has_capacity(&self, kind: LinkKind) -> bool {
        let cap = match kind {
            LinkKind::Inner => self.inner_cap,
            LinkKind::Inter => self.inter_cap,
        };
        self.of_kind(kind).count() < cap
    }

    /// Tries to add a link to `node` (last seen in `channel`). Returns
    /// `false` when the relevant bucket is full, the node is already a
    /// neighbor (updating its channel), or it would self-link.
    pub(crate) fn try_add(&mut self, node: NodeId, channel: Option<ChannelId>) -> bool {
        if let Some(existing) = self.neighbors.iter_mut().find(|n| n.node == node) {
            existing.channel = channel;
            return false;
        }
        let kind = self.classify(channel);
        if !self.has_capacity(kind) {
            return false;
        }
        self.neighbors.push(Neighbor { node, channel });
        true
    }

    /// Removes the link to `node`. Returns `true` if it existed.
    pub(crate) fn remove(&mut self, node: NodeId) -> bool {
        let before = self.neighbors.len();
        self.neighbors.retain(|n| n.node != node);
        self.neighbors.len() != before
    }

    /// Drops links that belong to neither the current channel overlay, nor
    /// one of the node's `subscribed` channels (a subscriber stays in the
    /// overlays of the channels it subscribes to), nor the current
    /// channel's category cluster. Returns the dropped node ids (so the
    /// caller can send `Leave`). Links with unknown channel are kept (they
    /// will be reclassified when learned or cleaned by probing).
    pub(crate) fn shed_out_of_community(
        &mut self,
        catalog: &Catalog,
        subscribed: &[ChannelId],
    ) -> Vec<NodeId> {
        let Some(current) = self.current_channel else {
            return Vec::new();
        };
        let my_categories: Vec<CategoryId> = catalog
            .channel(current)
            .map(|c| c.categories().to_vec())
            .unwrap_or_default();
        let mut dropped = Vec::new();
        self.neighbors.retain(|n| {
            let keep = match n.channel {
                None => true,
                Some(ch) if ch == current => true,
                Some(ch) if subscribed.contains(&ch) => true,
                Some(ch) => catalog
                    .channel(ch)
                    .map(|c| c.categories().iter().any(|cat| my_categories.contains(cat)))
                    .unwrap_or(false),
            };
            if !keep {
                dropped.push(n.node);
            }
            keep
        });
        // Enforce caps after reclassification: shed newest-first overflow.
        self.enforce_caps(&mut dropped);
        dropped
    }

    fn enforce_caps(&mut self, dropped: &mut Vec<NodeId>) {
        let mut inner_seen = 0;
        let mut inter_seen = 0;
        let current = self.current_channel;
        let inner_cap = self.inner_cap;
        let inter_cap = self.inter_cap;
        self.neighbors.retain(|n| {
            let is_inner = matches!((current, n.channel), (Some(m), Some(t)) if m == t);
            let keep = if is_inner {
                inner_seen += 1;
                inner_seen <= inner_cap
            } else {
                inter_seen += 1;
                inter_seen <= inter_cap
            };
            if !keep {
                dropped.push(n.node);
            }
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_model::CatalogBuilder;

    fn table() -> NeighborTable {
        let mut t = NeighborTable::new(2, 3);
        t.set_current_channel(Some(ChannelId::new(0)));
        t
    }

    fn nodes_of(t: &NeighborTable, kind: LinkKind) -> Vec<NodeId> {
        t.of_kind(kind).map(|n| n.node).collect()
    }

    #[test]
    fn a_same_channel_link_is_inner() {
        let mut table = NeighborTable::new(2, 3);
        table.set_current_channel(Some(ChannelId::new(0)));
        assert!(table.try_add(NodeId::new(1), Some(ChannelId::new(0))));
        assert_eq!(table.of_kind(LinkKind::Inner).count(), 1);
    }

    #[test]
    fn classification_follows_current_channel() {
        let t = table();
        assert_eq!(t.classify(Some(ChannelId::new(0))), LinkKind::Inner);
        assert_eq!(t.classify(Some(ChannelId::new(1))), LinkKind::Inter);
        assert_eq!(t.classify(None), LinkKind::Inter);
    }

    #[test]
    fn inner_capacity_enforced() {
        let mut t = table();
        assert!(t.try_add(NodeId::new(1), Some(ChannelId::new(0))));
        assert!(t.try_add(NodeId::new(2), Some(ChannelId::new(0))));
        assert!(!t.try_add(NodeId::new(3), Some(ChannelId::new(0))));
        assert_eq!(t.of_kind(LinkKind::Inner).count(), 2);
        assert!(!t.has_capacity(LinkKind::Inner));
        assert!(t.has_capacity(LinkKind::Inter));
    }

    #[test]
    fn duplicate_add_updates_channel_only() {
        let mut t = table();
        assert!(t.try_add(NodeId::new(1), Some(ChannelId::new(0))));
        assert!(!t.try_add(NodeId::new(1), Some(ChannelId::new(5))));
        assert_eq!(t.len(), 1);
        assert_eq!(nodes_of(&t, LinkKind::Inter), vec![NodeId::new(1)]);
    }

    #[test]
    fn remove_and_contains() {
        let mut t = table();
        t.try_add(NodeId::new(1), Some(ChannelId::new(0)));
        assert!(t.contains(NodeId::new(1)));
        assert!(t.remove(NodeId::new(1)));
        assert!(!t.remove(NodeId::new(1)));
        assert!(t.neighbors.is_empty());
    }

    #[test]
    fn switching_channel_reclassifies() {
        let mut t = table();
        t.try_add(NodeId::new(1), Some(ChannelId::new(0)));
        t.try_add(NodeId::new(2), Some(ChannelId::new(1)));
        assert_eq!(nodes_of(&t, LinkKind::Inner), vec![NodeId::new(1)]);
        t.set_current_channel(Some(ChannelId::new(1)));
        assert_eq!(nodes_of(&t, LinkKind::Inner), vec![NodeId::new(2)]);
        assert_eq!(nodes_of(&t, LinkKind::Inter), vec![NodeId::new(1)]);
    }

    #[test]
    fn shed_drops_out_of_category_links() {
        // Channels 0 and 1 share a category; channel 2 is elsewhere.
        let mut b = CatalogBuilder::new();
        let shared = b.add_category();
        let other = b.add_category();
        let c0 = b.add_channel([shared]);
        let c1 = b.add_channel([shared]);
        let c2 = b.add_channel([other]);
        let catalog = b.build();

        let mut t = NeighborTable::new(2, 3);
        t.set_current_channel(Some(c0));
        t.try_add(NodeId::new(1), Some(c0));
        t.try_add(NodeId::new(2), Some(c1));
        t.try_add(NodeId::new(3), Some(c2));
        t.try_add(NodeId::new(4), None);
        let dropped = t.shed_out_of_community(&catalog, &[]);
        assert_eq!(dropped, vec![NodeId::new(3)]);
        assert!(t.contains(NodeId::new(1)));
        assert!(t.contains(NodeId::new(2)));
        assert!(t.contains(NodeId::new(4)), "unknown-channel links kept");
    }

    #[test]
    fn shed_enforces_caps_after_switch() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let c0 = b.add_channel([cat]);
        let c1 = b.add_channel([cat]);
        let catalog = b.build();

        let mut t = NeighborTable::new(2, 1);
        t.set_current_channel(Some(c0));
        t.try_add(NodeId::new(1), Some(c0));
        t.try_add(NodeId::new(2), Some(c0));
        t.try_add(NodeId::new(3), Some(c1));
        assert_eq!(t.len(), 3);
        // Switch to c1: nodes 1,2 become inter (cap 1) -> one must go.
        t.set_current_channel(Some(c1));
        let dropped = t.shed_out_of_community(&catalog, &[]);
        assert_eq!(dropped.len(), 1);
        assert_eq!(t.of_kind(LinkKind::Inter).count(), 1);
        assert_eq!(nodes_of(&t, LinkKind::Inner), vec![NodeId::new(3)]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            Add(u32, Option<u32>),
            Remove(u32),
            Switch(Option<u32>),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..40, proptest::option::of(0u32..6)).prop_map(|(n, c)| Op::Add(n, c)),
                (0u32..40).prop_map(Op::Remove),
                proptest::option::of(0u32..6).prop_map(Op::Switch),
            ]
        }

        proptest! {
            /// Under any operation sequence: no duplicate neighbors, and the
            /// per-kind capacities hold whenever links are *added* (switches
            /// may temporarily reclassify past the cap until shedding runs,
            /// exactly as the protocol does).
            #[test]
            fn no_duplicates_and_adds_respect_caps(
                ops in proptest::collection::vec(op_strategy(), 0..200)
            ) {
                let mut t = NeighborTable::new(3, 5);
                for op in ops {
                    match op {
                        Op::Add(n, c) => {
                            let channel = c.map(ChannelId::new);
                            let kind = t.classify(channel);
                            let had_capacity = t.has_capacity(kind);
                            let known = t.contains(NodeId::new(n));
                            let added = t.try_add(NodeId::new(n), channel);
                            prop_assert!(!(added && known), "duplicate add");
                            prop_assert!(had_capacity || !added, "over-cap add");
                        }
                        Op::Remove(n) => {
                            t.remove(NodeId::new(n));
                        }
                        Op::Switch(c) => {
                            t.set_current_channel(c.map(ChannelId::new));
                        }
                    }
                    // Invariant: node ids are unique.
                    let mut nodes: Vec<NodeId> = t.iter().map(|n| n.node).collect();
                    nodes.sort_unstable();
                    let before = nodes.len();
                    nodes.dedup();
                    prop_assert_eq!(nodes.len(), before, "duplicate neighbor");
                    // Invariant: inner + inter partitions the table.
                    prop_assert_eq!(
                        t.of_kind(LinkKind::Inner).count() + t.of_kind(LinkKind::Inter).count(),
                        t.len()
                    );
                }
            }

            /// Shedding never *increases* the table.
            #[test]
            fn shedding_is_monotone(
                adds in proptest::collection::vec((0u32..40, 0u32..6), 0..50),
                switch_to in 0u32..6,
            ) {
                let mut b = socialtube_model::CatalogBuilder::new();
                let cats: Vec<_> = (0..3).map(|_| b.add_category()).collect();
                for i in 0..6u32 {
                    b.add_channel([cats[(i % 3) as usize]]);
                }
                let catalog = b.build();
                let mut t = NeighborTable::new(3, 5);
                t.set_current_channel(Some(ChannelId::new(0)));
                for (n, c) in adds {
                    t.try_add(NodeId::new(n), Some(ChannelId::new(c)));
                }
                let before = t.len();
                t.set_current_channel(Some(ChannelId::new(switch_to)));
                let dropped = t.shed_out_of_community(&catalog, &[]);
                prop_assert_eq!(t.len() + dropped.len(), before);
                prop_assert!(t.of_kind(LinkKind::Inner).count() <= 3);
                prop_assert!(t.of_kind(LinkKind::Inter).count() <= 5);
            }
        }
    }
}
