//! Channels: one uploader's page of videos, focused on a few categories.

use crate::{CategoryId, ChannelId, VideoId};

/// A YouTube channel — the *community* unit of SocialTube's lower-level
/// overlay.
///
/// A channel features all videos of one uploader and is classified into a
/// small number of interest categories (the trace analysis, Fig 11, shows
/// channels focus on few categories). Subscribers of the same channel are
/// connected into one lower-level overlay.
///
/// # Examples
///
/// ```
/// use socialtube_model::CatalogBuilder;
///
/// let mut builder = CatalogBuilder::new();
/// let (comedy, music) = (builder.add_category(), builder.add_category());
/// let id = builder.add_channel([music]);
/// let catalog = builder.build();
/// let channel = catalog.channel(id).unwrap();
/// assert_eq!(channel.primary_category(), Some(music));
/// assert!(!channel.has_category(comedy));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Channel {
    id: ChannelId,
    categories: Vec<CategoryId>,
    videos: Vec<VideoId>,
}

impl Channel {
    /// Creates an empty channel classified under `categories`.
    ///
    /// Duplicate categories are removed; order of first occurrence is kept.
    pub(crate) fn new(id: ChannelId, mut categories: Vec<CategoryId>) -> Self {
        let mut seen = Vec::new();
        categories.retain(|c| {
            if seen.contains(c) {
                false
            } else {
                seen.push(*c);
                true
            }
        });
        Self {
            id,
            categories,
            videos: Vec::new(),
        }
    }

    /// Returns this channel's identifier.
    pub fn id(&self) -> ChannelId {
        self.id
    }

    /// Returns the interest categories this channel is classified under.
    pub fn categories(&self) -> &[CategoryId] {
        &self.categories
    }

    /// Returns the primary (first) category, if any.
    pub fn primary_category(&self) -> Option<CategoryId> {
        self.categories.first().copied()
    }

    /// Returns `true` if the channel is classified under `category`.
    pub fn has_category(&self, category: CategoryId) -> bool {
        self.categories.contains(&category)
    }

    /// Returns the videos uploaded to this channel, in upload order.
    pub fn videos(&self) -> &[VideoId] {
        &self.videos
    }

    /// Returns the number of videos in the channel (Fig 6 statistic).
    pub fn video_count(&self) -> usize {
        self.videos.len()
    }

    /// Appends a video to the channel (upload order preserved).
    pub(crate) fn push_video(&mut self, video: VideoId) {
        self.videos.push(video);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_categories_are_dropped() {
        let c = Channel::new(
            ChannelId::new(0),
            vec![CategoryId::new(1), CategoryId::new(1), CategoryId::new(2)],
        );
        assert_eq!(c.categories(), &[CategoryId::new(1), CategoryId::new(2)]);
    }

    #[test]
    fn primary_category_is_first() {
        let c = Channel::new(
            ChannelId::new(0),
            vec![CategoryId::new(9), CategoryId::new(2)],
        );
        assert_eq!(c.primary_category(), Some(CategoryId::new(9)));
        let empty = Channel::new(ChannelId::new(1), vec![]);
        assert_eq!(empty.primary_category(), None);
    }

    #[test]
    fn videos_keep_upload_order() {
        let mut c = Channel::new(ChannelId::new(0), vec![]);
        c.push_video(VideoId::new(5));
        c.push_video(VideoId::new(3));
        assert_eq!(c.videos(), &[VideoId::new(5), VideoId::new(3)]);
        assert_eq!(c.video_count(), 2);
    }
}
