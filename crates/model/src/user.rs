//! Users: interests, channel subscriptions, and favorites.

use crate::{CategoryId, ChannelId, NodeId, VideoId};

/// One registered user of the VoD service, i.e. one peer node.
///
/// A user has a small set of personal interests (Fig 13: ~60% of users have
/// fewer than 10) and subscribes to channels that largely match those
/// interests (Fig 12). The user's favorite videos define their interests in
/// the paper's methodology (Section III-D).
///
/// # Examples
///
/// ```
/// use socialtube_model::{CategoryId, ChannelId, NodeId, SocialGraph};
///
/// let mut graph = SocialGraph::new(1, 8);
/// let me = NodeId::new(0);
/// graph.user_mut(me).unwrap().add_interest(CategoryId::new(1));
/// graph.subscribe(me, ChannelId::new(7));
/// let user = graph.user(me).unwrap();
/// assert_eq!(user.subscriptions(), &[ChannelId::new(7)]);
/// assert_eq!(user.interests(), &[CategoryId::new(1)]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct User {
    id: NodeId,
    interests: Vec<CategoryId>,
    subscriptions: Vec<ChannelId>,
    favorites: Vec<VideoId>,
}

impl User {
    /// Creates a user with no interests or subscriptions.
    pub(crate) fn new(id: NodeId) -> Self {
        Self {
            id,
            interests: Vec::new(),
            subscriptions: Vec::new(),
            favorites: Vec::new(),
        }
    }

    /// Returns this user's node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Returns the user's personal interest categories.
    pub fn interests(&self) -> &[CategoryId] {
        &self.interests
    }

    /// Returns the channels this user subscribes to.
    pub fn subscriptions(&self) -> &[ChannelId] {
        &self.subscriptions
    }

    /// Adds an interest category (idempotent).
    pub fn add_interest(&mut self, category: CategoryId) {
        if !self.interests.contains(&category) {
            self.interests.push(category);
        }
    }

    /// Subscribes to `channel` (idempotent). Returns `true` if newly added.
    pub(crate) fn subscribe(&mut self, channel: ChannelId) -> bool {
        if self.subscriptions.contains(&channel) {
            false
        } else {
            self.subscriptions.push(channel);
            true
        }
    }

    /// Marks `video` as a favorite (idempotent).
    pub fn add_favorite(&mut self, video: VideoId) {
        if !self.favorites.contains(&video) {
            self.favorites.push(video);
        }
    }

    /// Computes the paper's interest/subscription similarity metric
    /// `|C_u ∩ C_c| / |C_u|` (Section III-D, Fig 12), where `C_u` is this
    /// user's interest set and `C_c` the categories of subscribed channels.
    ///
    /// Returns `None` when the user has no interests (metric undefined).
    pub fn interest_similarity(&self, subscribed_categories: &[CategoryId]) -> Option<f64> {
        if self.interests.is_empty() {
            return None;
        }
        let overlap = self
            .interests
            .iter()
            .filter(|c| subscribed_categories.contains(c))
            .count();
        Some(overlap as f64 / self.interests.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_is_idempotent() {
        let mut u = User::new(NodeId::new(0));
        assert!(u.subscribe(ChannelId::new(1)));
        assert!(!u.subscribe(ChannelId::new(1)));
        assert_eq!(u.subscriptions().len(), 1);
    }

    #[test]
    fn interests_and_favorites_deduplicate() {
        let mut u = User::new(NodeId::new(0));
        u.add_interest(CategoryId::new(2));
        u.add_interest(CategoryId::new(2));
        u.add_favorite(VideoId::new(9));
        u.add_favorite(VideoId::new(9));
        assert_eq!(u.interests().len(), 1);
        assert_eq!(u.favorites.len(), 1);
    }

    #[test]
    fn similarity_matches_paper_definition() {
        let mut u = User::new(NodeId::new(0));
        u.add_interest(CategoryId::new(1));
        u.add_interest(CategoryId::new(2));
        u.add_interest(CategoryId::new(3));
        // Subscribed channels cover categories {2, 3, 9}: overlap 2 of 3.
        let sim = u
            .interest_similarity(&[CategoryId::new(2), CategoryId::new(3), CategoryId::new(9)])
            .unwrap();
        assert!((sim - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_undefined_without_interests() {
        let u = User::new(NodeId::new(0));
        assert_eq!(u.interest_similarity(&[CategoryId::new(1)]), None);
    }
}
