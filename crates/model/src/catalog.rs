//! The catalog: every category, channel and video, with indices.

use crate::{CategoryId, Channel, ChannelId, ModelError, Video, VideoId};

/// Immutable index of all categories, channels and videos in the system.
///
/// The catalog plays the role of YouTube's central metadata store: it knows
/// which channel hosts each video, which category each channel belongs to,
/// and the view counts the server uses to publish per-channel popularity
/// rankings for prefetching (Section IV-B).
///
/// Build one with [`CatalogBuilder`]; the catalog itself is cheap to share
/// (`Arc<Catalog>`) between thousands of simulated peers.
///
/// # Examples
///
/// ```
/// use socialtube_model::CatalogBuilder;
///
/// let mut b = CatalogBuilder::new();
/// let music = b.add_category();
/// let ch = b.add_channel([music]);
/// let v0 = b.add_video(ch, 100, 0);
/// let v1 = b.add_video(ch, 200, 1);
/// b.set_views(v0, 1_000);
/// b.set_views(v1, 5_000);
/// let catalog = b.build();
///
/// // v1 is more popular, so it ranks first for prefetching.
/// assert_eq!(catalog.channel_videos_by_popularity(ch), vec![v1, v0]);
/// ```
#[derive(Clone, Debug)]
pub struct Catalog {
    channels: Vec<Channel>,
    videos: Vec<Video>,
    /// Channels in each category, indexed by `CategoryId`: one entry per
    /// category.
    channels_by_category: Vec<Vec<ChannelId>>,
    /// Per-channel video lists sorted by descending view count.
    popularity_rank: Vec<Vec<VideoId>>,
}

impl Catalog {
    /// Number of interest categories.
    pub fn category_count(&self) -> usize {
        self.channels_by_category.len()
    }

    /// Number of channels.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Number of videos.
    pub fn video_count(&self) -> usize {
        self.videos.len()
    }

    /// Looks up a channel.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownChannel`] if out of range.
    pub fn channel(&self, id: ChannelId) -> Result<&Channel, ModelError> {
        self.channels
            .get(id.index())
            .ok_or(ModelError::UnknownChannel(id))
    }

    /// Looks up a video.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownVideo`] if out of range.
    pub fn video(&self, id: VideoId) -> Result<&Video, ModelError> {
        self.videos
            .get(id.index())
            .ok_or(ModelError::UnknownVideo(id))
    }

    /// Iterates over all channels.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.channels.iter()
    }

    /// Iterates over all videos.
    pub fn videos(&self) -> impl Iterator<Item = &Video> {
        self.videos.iter()
    }

    /// Iterates over all category identifiers.
    pub fn categories(&self) -> impl Iterator<Item = CategoryId> {
        (0..self.category_count() as u32).map(CategoryId::new)
    }

    /// Returns the channels classified under `category`.
    ///
    /// Unknown categories yield an empty slice.
    pub fn channels_in_category(&self, category: CategoryId) -> &[ChannelId] {
        self.channels_by_category
            .get(category.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns the channel's videos ordered by descending view count —
    /// the ranking the server publishes for channel-facilitated prefetching.
    ///
    /// Unknown channels yield an empty list.
    pub fn channel_videos_by_popularity(&self, channel: ChannelId) -> Vec<VideoId> {
        self.popularity_rank
            .get(channel.index())
            .cloned()
            .unwrap_or_default()
    }

    /// Returns the `m` most popular videos of `channel`.
    pub fn top_videos(&self, channel: ChannelId, m: usize) -> Vec<VideoId> {
        let mut ranked = self.channel_videos_by_popularity(channel);
        ranked.truncate(m);
        ranked
    }

    /// Total views across all videos of `channel` (Fig 5 statistic).
    pub fn channel_total_views(&self, channel: ChannelId) -> u64 {
        self.channel(channel)
            .map(|c| {
                c.videos()
                    .iter()
                    .filter_map(|v| self.video(*v).ok())
                    .map(Video::views)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Returns the category of the channel hosting `video` (its primary
    /// category), used to route cross-channel queries.
    ///
    /// # Errors
    ///
    /// Returns an error if the video or its channel is unknown.
    pub fn video_category(&self, video: VideoId) -> Result<Option<CategoryId>, ModelError> {
        let v = self.video(video)?;
        Ok(self.channel(v.channel())?.primary_category())
    }
}

/// Incremental builder for a [`Catalog`].
///
/// The builder assigns dense identifiers in insertion order and computes the
/// per-channel popularity ranking and the category index at [`build`] time.
///
/// [`build`]: CatalogBuilder::build
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    categories: u32,
    channels: Vec<Channel>,
    videos: Vec<Video>,
}

impl CatalogBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new interest category and returns its identifier.
    pub fn add_category(&mut self) -> CategoryId {
        let id = CategoryId::new(self.categories);
        self.categories += 1;
        id
    }

    /// Registers a new channel under the given categories.
    ///
    /// # Panics
    ///
    /// Panics if any category has not been registered.
    pub fn add_channel(&mut self, categories: impl IntoIterator<Item = CategoryId>) -> ChannelId {
        let categories: Vec<CategoryId> = categories.into_iter().collect();
        for c in &categories {
            assert!(c.as_u32() < self.categories, "category {c} not registered");
        }
        let id = ChannelId::new(self.channels.len() as u32);
        self.channels.push(Channel::new(id, categories));
        id
    }

    /// Adds a video of `length_secs` seconds to `channel`, uploaded on
    /// `upload_day`, and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if `channel` has not been registered.
    pub fn add_video(&mut self, channel: ChannelId, length_secs: u32, upload_day: u32) -> VideoId {
        assert!(
            channel.index() < self.channels.len(),
            "channel {channel} not registered"
        );
        let id = VideoId::new(self.videos.len() as u32);
        self.videos
            .push(Video::new(id, channel, length_secs, upload_day));
        self.channels[channel.index()].push_video(id);
        id
    }

    /// Sets the total view count of `video`.
    ///
    /// # Panics
    ///
    /// Panics if `video` has not been registered.
    pub fn set_views(&mut self, video: VideoId, views: u64) {
        self.videos[video.index()].set_views(views);
    }

    /// Sets the favorite count of `video`.
    ///
    /// # Panics
    ///
    /// Panics if `video` has not been registered.
    pub fn set_favorites(&mut self, video: VideoId, favorites: u64) {
        self.videos[video.index()].set_favorites(favorites);
    }

    /// Mutable access to a registered video (e.g. to adjust bitrate).
    ///
    /// # Panics
    ///
    /// Panics if `video` has not been registered.
    pub fn video_mut(&mut self, video: VideoId) -> &mut Video {
        &mut self.videos[video.index()]
    }

    /// Number of videos registered so far.
    pub fn video_count(&self) -> usize {
        self.videos.len()
    }

    /// Finalizes the catalog, computing all indices.
    pub fn build(self) -> Catalog {
        let mut channels_by_category: Vec<Vec<ChannelId>> =
            vec![Vec::new(); self.categories as usize];
        for channel in &self.channels {
            for category in channel.categories() {
                channels_by_category[category.index()].push(channel.id());
            }
        }
        let mut popularity_rank: Vec<Vec<VideoId>> = Vec::with_capacity(self.channels.len());
        for channel in &self.channels {
            let mut ranked: Vec<VideoId> = channel.videos().to_vec();
            ranked.sort_by(|a, b| {
                let (va, vb) = (&self.videos[a.index()], &self.videos[b.index()]);
                vb.views().cmp(&va.views()).then(a.cmp(b))
            });
            popularity_rank.push(ranked);
        }
        Catalog {
            channels: self.channels,
            videos: self.videos,
            channels_by_category,
            popularity_rank,
        }
    }
}

impl Extend<(ChannelId, u32, u32)> for CatalogBuilder {
    /// Extends the builder with `(channel, length_secs, upload_day)` video
    /// descriptors.
    fn extend<T: IntoIterator<Item = (ChannelId, u32, u32)>>(&mut self, iter: T) {
        for (channel, length, day) in iter {
            self.add_video(channel, length, day);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Catalog, ChannelId, Vec<VideoId>) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let vids = vec![
            b.add_video(ch, 60, 0),
            b.add_video(ch, 120, 1),
            b.add_video(ch, 180, 2),
        ];
        b.set_views(vids[0], 10);
        b.set_views(vids[1], 1000);
        b.set_views(vids[2], 100);
        (b.build(), ch, vids)
    }

    #[test]
    fn popularity_ranking_is_descending_by_views() {
        let (cat, ch, v) = tiny();
        assert_eq!(cat.channel_videos_by_popularity(ch), vec![v[1], v[2], v[0]]);
        assert_eq!(cat.top_videos(ch, 2), vec![v[1], v[2]]);
    }

    #[test]
    fn ranking_ties_break_by_id_for_determinism() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let v0 = b.add_video(ch, 60, 0);
        let v1 = b.add_video(ch, 60, 0);
        b.set_views(v0, 5);
        b.set_views(v1, 5);
        let cat = b.build();
        assert_eq!(cat.channel_videos_by_popularity(ch), vec![v0, v1]);
    }

    #[test]
    fn category_index_lists_member_channels() {
        let mut b = CatalogBuilder::new();
        let gaming = b.add_category();
        let music = b.add_category();
        let ch1 = b.add_channel([gaming]);
        let ch2 = b.add_channel([gaming, music]);
        let cat = b.build();
        assert_eq!(cat.channels_in_category(gaming), &[ch1, ch2]);
        assert_eq!(cat.channels_in_category(music), &[ch2]);
        assert!(cat.channels_in_category(CategoryId::new(99)).is_empty());
    }

    #[test]
    fn lookups_error_on_unknown_ids() {
        let (cat, _, _) = tiny();
        assert_eq!(
            cat.video(VideoId::new(999)),
            Err(ModelError::UnknownVideo(VideoId::new(999)))
        );
        assert_eq!(
            cat.channel(ChannelId::new(999)),
            Err(ModelError::UnknownChannel(ChannelId::new(999)))
        );
    }

    #[test]
    fn total_views_sums_channel_videos() {
        let (cat, ch, _) = tiny();
        assert_eq!(cat.channel_total_views(ch), 1110);
    }

    #[test]
    fn video_category_routes_to_primary() {
        let (cat, _, v) = tiny();
        assert_eq!(cat.video_category(v[0]).unwrap(), Some(CategoryId::new(0)));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn adding_video_to_unknown_channel_panics() {
        let mut b = CatalogBuilder::new();
        b.add_video(ChannelId::new(0), 60, 0);
    }

    #[test]
    fn extend_adds_videos() {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        b.extend([(ch, 30, 0), (ch, 40, 1)]);
        assert_eq!(b.video_count(), 2);
    }
}
