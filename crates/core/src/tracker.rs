//! What the three servers share: dense group → member lists with a
//! running count, contact draws that exclude the requester, and serving a
//! `VideoRequest` from the origin store. What a group *is* (a channel's
//! subscribers, a video's overlay, a video's current holders) and when a
//! node joins or leaves it stays with the protocol.

use std::collections::HashMap;

use socialtube_model::{Catalog, ChunkIndex, NodeId, VideoId};
use socialtube_sim::SimRng;

use crate::messages::RequestId;
use crate::traits::{Report, ServerOutbox, TransferKind};

/// Member lists of densely numbered groups, in join order, and their
/// total size.
#[derive(Debug)]
pub struct Tracker {
    groups: Vec<Vec<NodeId>>,
    /// Σ member-list lengths, kept as members come and go: the driver reads
    /// it after every server message.
    tracked: usize,
}

impl Tracker {
    /// `groups` empty groups.
    pub(crate) fn new(groups: usize) -> Self {
        Self {
            groups: vec![Vec::new(); groups],
            tracked: 0,
        }
    }

    /// Members of `group` in join order (none for an unknown group).
    pub fn members(&self, group: usize) -> &[NodeId] {
        self.groups.get(group).map_or(&[], Vec::as_slice)
    }

    /// Total membership across all groups.
    pub fn tracked(&self) -> usize {
        self.tracked
    }

    /// Adds `node` to `group`. Returns `false` if it already was a member
    /// or the group is unknown.
    pub(crate) fn join(&mut self, group: usize, node: NodeId) -> bool {
        match self.groups.get_mut(group) {
            Some(members) if !members.contains(&node) => {
                members.push(node);
                self.tracked += 1;
                true
            }
            _ => false,
        }
    }

    /// Takes `node` out of `group`, keeping the others' order.
    pub(crate) fn leave(&mut self, group: usize, node: NodeId) {
        if let Some(members) = self.groups.get_mut(group) {
            let before = members.len();
            members.retain(|n| *n != node);
            self.tracked -= before - members.len();
        }
    }

    /// Up to `n` distinct members of `group` other than `except`, drawn
    /// uniformly without copying the member list.
    pub fn pick(&self, rng: &mut SimRng, group: usize, except: NodeId, n: usize) -> Vec<NodeId> {
        rng.pick_distinct_except(self.members(group), &except, n)
    }
}

/// A [`Tracker`] that also remembers each node's groups, so a node can
/// leave all of them without a sweep over every group. For a server whose
/// protocol state does not already record that (the SocialTube server's
/// subscription sets do, so it uses the bare [`Tracker`]).
#[derive(Debug)]
pub struct IndexedTracker {
    tracker: Tracker,
    /// Invariant: `g ∈ joined[node]` ⇔ `node ∈ tracker.members(g)`.
    joined: HashMap<NodeId, Vec<usize>>,
}

impl IndexedTracker {
    /// `groups` empty groups.
    pub fn new(groups: usize) -> Self {
        Self {
            tracker: Tracker::new(groups),
            joined: HashMap::new(),
        }
    }

    /// The member lists, for reading and drawing.
    pub fn groups(&self) -> &Tracker {
        &self.tracker
    }

    /// Adds `node` to `group` (no-op for a member or an unknown group).
    pub fn join(&mut self, group: usize, node: NodeId) {
        if self.tracker.join(group, node) {
            self.joined.entry(node).or_default().push(group);
        }
    }

    /// Takes `node` out of `group`.
    pub fn leave(&mut self, group: usize, node: NodeId) {
        self.tracker.leave(group, node);
        if let Some(groups) = self.joined.get_mut(&node) {
            groups.retain(|g| *g != group);
        }
    }

    /// Takes `node` out of every group it is in.
    pub fn leave_all(&mut self, node: NodeId) {
        for group in self.joined.remove(&node).unwrap_or_default() {
            self.tracker.leave(group, node);
        }
    }
}

/// Origin service, the same for every protocol: a `VideoRequest` for a
/// video the catalog knows is served through the origin store, and a
/// playback request is reported as an origin serve.
pub fn serve_from_origin(
    catalog: &Catalog,
    to: NodeId,
    id: RequestId,
    video: VideoId,
    from_chunk: ChunkIndex,
    kind: TransferKind,
    out: &mut ServerOutbox,
) {
    if catalog.video(video).is_err() {
        return;
    }
    if kind == TransferKind::Playback {
        out.report(Report::ServedFromOrigin { node: to, video });
    }
    out.serve_chunks(to, id, video, from_chunk, kind);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trivially correct tracker: plain lists, swept and summed.
    struct Reference(Vec<Vec<NodeId>>);

    impl Reference {
        fn join(&mut self, group: usize, node: NodeId) {
            if let Some(members) = self.0.get_mut(group) {
                if !members.contains(&node) {
                    members.push(node);
                }
            }
        }

        fn leave(&mut self, group: usize, node: NodeId) {
            if let Some(members) = self.0.get_mut(group) {
                members.retain(|n| *n != node);
            }
        }

        fn leave_all(&mut self, node: NodeId) {
            for members in &mut self.0 {
                members.retain(|n| *n != node);
            }
        }
    }

    fn check(tracker: &IndexedTracker, reference: &Reference) {
        let groups = reference.0.len();
        for (group, members) in reference.0.iter().enumerate() {
            assert_eq!(tracker.groups().members(group), members, "group {group}");
        }
        assert!(tracker.groups().members(groups).is_empty());
        let total: usize = reference.0.iter().map(Vec::len).sum();
        assert_eq!(tracker.groups().tracked(), total);
        // The index names exactly the groups a node is in.
        for node in (0..NODES).map(NodeId::new) {
            let joined = tracker.joined.get(&node).map_or(&[][..], Vec::as_slice);
            for (group, members) in reference.0.iter().enumerate() {
                let member = members.contains(&node);
                assert_eq!(joined.contains(&group), member, "{node} / group {group}");
            }
        }
    }

    const NODES: u32 = 8;

    #[test]
    fn matches_plain_lists_after_every_operation() {
        const GROUPS: usize = 6;
        let mut rng = SimRng::seed(14);
        let mut tracker = IndexedTracker::new(GROUPS);
        let mut reference = Reference(vec![Vec::new(); GROUPS]);
        let nodes: Vec<NodeId> = (0..NODES).map(NodeId::new).collect();
        // One group past the end: unknown groups are ignored, not grown.
        let groups: Vec<usize> = (0..=GROUPS).collect();
        for _ in 0..3_000 {
            let node = *rng.pick(&nodes).expect("nodes");
            let group = *rng.pick(&groups).expect("groups");
            match rng.pick(&[0, 0, 0, 1, 1, 2]).expect("ops") {
                0 => {
                    tracker.join(group, node);
                    reference.join(group, node);
                }
                1 => {
                    tracker.leave(group, node);
                    reference.leave(group, node);
                }
                _ => {
                    tracker.leave_all(node);
                    reference.leave_all(node);
                }
            }
            check(&tracker, &reference);
        }
    }

    #[test]
    fn picks_exclude_the_requester_and_unknown_groups_stay_empty() {
        let mut tracker = Tracker::new(1);
        for n in 0..10 {
            assert!(tracker.join(0, NodeId::new(n)));
        }
        assert!(!tracker.join(0, NodeId::new(3)), "already a member");
        assert!(!tracker.join(1, NodeId::new(3)), "unknown group");
        let requester = NodeId::new(4);
        let mut rng = SimRng::seed(3);
        let picked = tracker.pick(&mut rng, 0, requester, 20);
        assert_eq!(picked.len(), 9, "everyone but the requester");
        assert!(!picked.contains(&requester));
        assert!(tracker.pick(&mut rng, 1, requester, 3).is_empty());
    }
}
