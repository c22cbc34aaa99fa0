//! Videos and their chunked representation.

use crate::{ChannelId, VideoId};

/// Average bitrate of a YouTube video reported by Cheng et al. and used by
/// the paper (Section IV-B), in kilobits per second.
pub const DEFAULT_BITRATE_KBPS: u32 = 320;

/// Number of chunks a video is divided into.
///
/// Table I's value is garbled in the available text; 8 keeps the prefetch
/// unit (one chunk) small relative to a video — the paper's premise that
/// "prefetched chunks of short videos are very small in size" — while
/// keeping per-transfer event counts tractable in simulation.
pub const DEFAULT_CHUNKS_PER_VIDEO: u32 = 8;

/// Index of one chunk within a video (`0..Video::chunk_count()`).
pub type ChunkIndex = u32;

/// A short video hosted in one channel.
///
/// Videos carry the metadata the paper's crawl collected via the YouTube
/// Data API: total views, upload date, length, and favorite count. The
/// popularity fields drive both the trace analysis (Figs 7–9) and
/// SocialTube's channel-facilitated prefetching.
///
/// # Examples
///
/// ```
/// use socialtube_model::{ChannelId, Video, VideoId};
///
/// let video = Video::new(VideoId::new(0), ChannelId::new(0), 120, 10);
/// assert_eq!(video.length_secs(), 120);
/// assert_eq!(video.chunk_count(), 8);
/// assert!(video.size_bits() > 0);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Video {
    id: VideoId,
    channel: ChannelId,
    /// Playback length in seconds.
    length_secs: u32,
    /// Day (offset from the trace epoch) the video was uploaded.
    upload_day: u32,
    /// Total view count accumulated in the trace.
    views: u64,
    /// Number of times users marked this video as a favorite.
    favorites: u64,
    /// Encoding bitrate in kbps.
    bitrate_kbps: u32,
}

impl Video {
    /// Creates a video with the default bitrate and zero popularity.
    pub fn new(id: VideoId, channel: ChannelId, length_secs: u32, upload_day: u32) -> Self {
        Self {
            id,
            channel,
            length_secs,
            upload_day,
            views: 0,
            favorites: 0,
            bitrate_kbps: DEFAULT_BITRATE_KBPS,
        }
    }

    /// Returns this video's identifier.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// Returns the channel that hosts this video.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }

    /// Returns the playback length in seconds.
    pub fn length_secs(&self) -> u32 {
        self.length_secs
    }

    /// Returns the day offset (from the trace epoch) of the upload.
    pub fn upload_day(&self) -> u32 {
        self.upload_day
    }

    /// Returns the total number of views.
    pub fn views(&self) -> u64 {
        self.views
    }

    /// Returns the number of times the video was marked as a favorite.
    pub fn favorites(&self) -> u64 {
        self.favorites
    }

    /// Returns the encoding bitrate in kbps.
    pub fn bitrate_kbps(&self) -> u32 {
        self.bitrate_kbps
    }

    /// Returns the number of chunks the video is divided into: every
    /// video has [`DEFAULT_CHUNKS_PER_VIDEO`].
    pub fn chunk_count(&self) -> u32 {
        DEFAULT_CHUNKS_PER_VIDEO
    }

    /// Sets the total view count.
    pub fn set_views(&mut self, views: u64) {
        self.views = views;
    }

    /// Sets the favorite count.
    pub fn set_favorites(&mut self, favorites: u64) {
        self.favorites = favorites;
    }

    /// Sets the encoding bitrate in kbps.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate_kbps` is zero.
    pub fn set_bitrate_kbps(&mut self, bitrate_kbps: u32) {
        assert!(bitrate_kbps > 0, "bitrate must be positive");
        self.bitrate_kbps = bitrate_kbps;
    }

    /// Total size of the encoded video in bits (`length × bitrate`).
    pub fn size_bits(&self) -> u64 {
        u64::from(self.length_secs) * u64::from(self.bitrate_kbps) * 1_000
    }

    /// Size of one chunk in bits.
    ///
    /// All chunks are equal-sized; the last chunk absorbs rounding.
    pub fn chunk_size_bits(&self) -> u64 {
        self.size_bits() / u64::from(DEFAULT_CHUNKS_PER_VIDEO)
    }

    /// Average daily view frequency given the video has been online for
    /// `now_day - upload_day + 1` days (used for Fig 3).
    ///
    /// Returns `0.0` when `now_day` precedes the upload day.
    pub fn view_frequency(&self, now_day: u32) -> f64 {
        if now_day < self.upload_day {
            return 0.0;
        }
        let days_online = u64::from(now_day - self.upload_day) + 1;
        self.views as f64 / days_online as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Video {
        Video::new(VideoId::new(1), ChannelId::new(2), 100, 5)
    }

    #[test]
    fn size_follows_length_and_bitrate() {
        let mut v = sample();
        v.set_bitrate_kbps(320);
        assert_eq!(v.size_bits(), 100 * 320 * 1000);
        assert_eq!(v.chunk_count(), DEFAULT_CHUNKS_PER_VIDEO);
        assert_eq!(v.chunk_size_bits(), v.size_bits() / 8);
    }

    #[test]
    fn view_frequency_counts_days_online_inclusive() {
        let mut v = sample();
        v.set_views(300);
        // uploaded day 5, observed day 7 -> 3 days online.
        assert!((v.view_frequency(7) - 100.0).abs() < 1e-9);
        // observed the same day it was uploaded -> 1 day online.
        assert!((v.view_frequency(5) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn view_frequency_before_upload_is_zero() {
        let mut v = sample();
        v.set_views(300);
        assert_eq!(v.view_frequency(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "bitrate must be positive")]
    fn zero_bitrate_rejected() {
        sample().set_bitrate_kbps(0);
    }
}
