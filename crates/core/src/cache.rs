//! The per-node video cache.

use socialtube_model::{ChunkIndex, VideoId};

/// State of one cached video.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEntry {
    /// Number of leading chunks present (`chunks == total` means the full
    /// video is cached and this node can act as a provider).
    pub(crate) chunks: u32,
    /// Total chunks the video has.
    pub(crate) total: u32,
}

impl CacheEntry {
    /// Whether every chunk is present.
    pub(crate) fn is_full(&self) -> bool {
        self.chunks >= self.total
    }
}

/// Cache of watched videos and prefetched first chunks.
///
/// NetTube introduced (and SocialTube keeps) the rule that a node caches all
/// videos watched during a session and keeps them for the next session to
/// act as a provider; prefetching additionally stores first chunks of videos
/// likely to be watched (Section IV). Since YouTube videos are short, the
/// paper treats capacity as effectively unbounded; a capacity can still be
/// configured, in which case whole *videos* are evicted LRU (first chunks
/// count like videos).
///
/// # Examples
///
/// A [`Flood`](crate::Flood) fills its cache from the chunks delivered to
/// it: the first chunk makes a partial entry, the last one a full entry.
///
/// ```
/// use std::sync::Arc;
///
/// use socialtube::{Flood, Message, Outbox, PeerAddr, RequestId, TransferKind, Transfers};
/// use socialtube_model::{CatalogBuilder, NodeId};
/// use socialtube_sim::SimTime;
///
/// let mut catalog = CatalogBuilder::new();
/// let category = catalog.add_category();
/// let channel = catalog.add_channel([category]);
/// let video = catalog.add_video(channel, 60, 0);
/// let me = NodeId::new(0);
/// let mut transfers = Transfers::new(me, Arc::new(catalog.build()));
/// let (mut flood, mut out) = (Flood::new(None), Outbox::new());
/// let last = transfers.chunks_in(video) - 1;
/// for chunk in [0, last] {
///     let data = Message::ChunkData {
///         id: RequestId::new(me, 0),
///         video,
///         chunk,
///         bits: 1,
///         kind: TransferKind::Playback,
///     };
///     flood.on_chunk(&mut transfers, SimTime::ZERO, PeerAddr::Server, data, &mut out);
///     assert!(flood.cache().has_first_chunk(video));
///     assert_eq!(flood.cache().has_full(video), chunk == last);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct VideoCache {
    /// Cached videos sorted by id for binary search. A node caches at most
    /// a session's worth of videos, so a sorted vec stays small, compact
    /// and allocation-light where a hash map pays per-entry overhead on
    /// every lookup of the chunk-transfer hot path.
    entries: Vec<(VideoId, CacheEntry, u64)>,
    /// The [`filter_bit`]s of the full entries (nothing un-fills an entry,
    /// and `remove` recomputes them): a clear bit answers `has_full`
    /// without touching `entries`, a set bit may be another video's. Two
    /// words rather than a `u128`, whose 16-byte alignment would pad every
    /// peer.
    full: [u64; 2],
    capacity: Option<usize>,
    clock: u64,
}

/// The filter bit of `video`: the top 7 bits of a multiplicative hash, so
/// consecutive ids of one channel spread over the 128 bits.
fn filter_bit(video: VideoId) -> (usize, u64) {
    let bit = video.as_u32().wrapping_mul(0x9E37_79B1) >> 25;
    ((bit >> 6) as usize, 1 << (bit & 63))
}

impl VideoCache {
    /// A cache without a capacity bound (the paper's setting).
    pub(crate) fn unbounded() -> Self {
        Self {
            entries: Vec::new(),
            full: [0; 2],
            capacity: None,
            clock: 0,
        }
    }

    /// A cache bounded to `capacity` videos with LRU eviction.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            entries: Vec::new(),
            full: [0; 2],
            capacity: Some(capacity),
            clock: 0,
        }
    }

    /// Builds from an optional capacity (`None` = unbounded).
    pub(crate) fn from_config(capacity: Option<usize>) -> Self {
        match capacity {
            Some(c) => Self::with_capacity(c),
            None => Self::unbounded(),
        }
    }

    /// Whether the full video is cached. Most probes of a flood are for
    /// videos this cache does not hold in full, and the filter refuses
    /// those without the binary search.
    pub fn has_full(&self, video: VideoId) -> bool {
        let (word, mask) = filter_bit(video);
        self.full[word] & mask != 0 && self.get(video).is_some_and(|(e, _)| e.is_full())
    }

    /// Whether at least the first chunk is cached.
    pub fn has_first_chunk(&self, video: VideoId) -> bool {
        self.get(video).is_some_and(|(e, _)| e.chunks >= 1)
    }

    /// Number of leading chunks cached for `video` (0 when absent).
    pub fn chunks_of(&self, video: VideoId) -> u32 {
        self.get(video).map_or(0, |(e, _)| e.chunks)
    }

    fn get(&self, video: VideoId) -> Option<(CacheEntry, u64)> {
        self.position(video)
            .ok()
            .map(|at| (self.entries[at].1, self.entries[at].2))
    }

    fn position(&self, video: VideoId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&video, |(v, _, _)| *v)
    }

    /// Upserts `video`, applying `update` to its entry (a fresh `(0 chunks,
    /// total)` entry for a new video) and stamping the LRU clock.
    fn upsert(&mut self, video: VideoId, total: u32, update: impl FnOnce(&mut CacheEntry)) {
        let clock = self.clock;
        let entry = match self.position(video) {
            Ok(at) => {
                update(&mut self.entries[at].1);
                self.entries[at].2 = clock;
                self.entries[at].1
            }
            Err(at) => {
                let mut entry = CacheEntry { chunks: 0, total };
                update(&mut entry);
                self.entries.insert(at, (video, entry, clock));
                entry
            }
        };
        if entry.is_full() {
            let (word, mask) = filter_bit(video);
            self.full[word] |= mask;
        }
    }

    /// Records that chunks `0..=chunk` of `video` are now present.
    pub(crate) fn record_chunk(
        &mut self,
        video: VideoId,
        chunk: ChunkIndex,
        total: u32,
        used_at: u64,
    ) {
        self.touch_clock(used_at);
        self.upsert(video, total, |e| e.chunks = e.chunks.max(chunk + 1));
        self.evict_if_needed(video);
    }

    /// Marks `video` recently used (e.g. it was served to a peer).
    pub(crate) fn touch(&mut self, video: VideoId, used_at: u64) {
        self.touch_clock(used_at);
        let clock = self.clock;
        if let Ok(at) = self.position(video) {
            self.entries[at].2 = clock;
        }
    }

    /// Removes `video` from the cache. Returns `true` if it was present.
    pub(crate) fn remove(&mut self, video: VideoId) -> bool {
        match self.position(video) {
            Ok(at) => {
                self.entries.remove(at);
                // Another full video may share the bit: rebuild from what
                // is left (eviction is rare, and the paper's cache never
                // evicts).
                let mut full = [0; 2];
                for video in self.full_videos() {
                    let (word, mask) = filter_bit(video);
                    full[word] |= mask;
                }
                self.full = full;
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over fully cached videos (potential provider inventory),
    /// in ascending id order.
    pub fn full_videos(&self) -> impl Iterator<Item = VideoId> + '_ {
        self.entries
            .iter()
            .filter(|(_, e, _)| e.is_full())
            .map(|(v, _, _)| *v)
    }

    fn touch_clock(&mut self, used_at: u64) {
        // Monotonic LRU clock: external timestamps may repeat, internal
        // increments break ties.
        self.clock = self.clock.max(used_at).wrapping_add(1);
    }

    fn evict_if_needed(&mut self, just_inserted: VideoId) {
        let Some(cap) = self.capacity else { return };
        while self.entries.len() > cap {
            let victim = self
                .entries
                .iter()
                .filter(|(v, _, _)| *v != just_inserted)
                .min_by_key(|(_, _, used)| *used)
                .map(|(v, _, _)| *v);
            match victim {
                Some(v) => {
                    self.remove(v);
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_and_partial_are_distinguished() {
        let mut c = VideoCache::unbounded();
        c.record_chunk(VideoId::new(1), 0, 2, 0);
        assert!(c.has_first_chunk(VideoId::new(1)));
        assert!(!c.has_full(VideoId::new(1)));
        c.record_chunk(VideoId::new(1), 1, 2, 1);
        assert!(c.has_full(VideoId::new(1)));
        assert_eq!(c.chunks_of(VideoId::new(1)), 2);
    }

    #[test]
    fn record_chunk_accumulates() {
        let mut c = VideoCache::unbounded();
        c.record_chunk(VideoId::new(1), 0, 3, 0);
        assert_eq!(c.chunks_of(VideoId::new(1)), 1);
        c.record_chunk(VideoId::new(1), 2, 3, 1);
        assert!(c.has_full(VideoId::new(1)));
        // Re-recording an early chunk never regresses.
        c.record_chunk(VideoId::new(1), 0, 3, 2);
        assert!(c.has_full(VideoId::new(1)));
    }

    #[test]
    fn first_chunk_never_downgrades_full_video() {
        let mut c = VideoCache::unbounded();
        c.record_chunk(VideoId::new(1), 1, 2, 0);
        c.record_chunk(VideoId::new(1), 0, 2, 1);
        assert!(c.has_full(VideoId::new(1)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = VideoCache::with_capacity(2);
        c.record_chunk(VideoId::new(1), 1, 2, 1);
        c.record_chunk(VideoId::new(2), 1, 2, 2);
        c.touch(VideoId::new(1), 3);
        c.record_chunk(VideoId::new(3), 1, 2, 4);
        // Video 2 was least recently used.
        assert!(c.has_full(VideoId::new(1)));
        assert!(!c.has_full(VideoId::new(2)));
        assert!(c.has_full(VideoId::new(3)));
        assert_eq!(c.entries.len(), 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = VideoCache::with_capacity(3);
        for i in 0..20 {
            c.record_chunk(VideoId::new(i), 1, 2, i as u64);
            assert!(c.entries.len() <= 3);
        }
    }

    #[test]
    fn newest_insert_survives_eviction() {
        let mut c = VideoCache::with_capacity(1);
        c.record_chunk(VideoId::new(1), 1, 2, 1);
        c.record_chunk(VideoId::new(2), 1, 2, 2);
        assert!(c.has_full(VideoId::new(2)));
        assert!(!c.has_full(VideoId::new(1)));
    }

    #[test]
    fn full_videos_lists_only_complete_entries() {
        let mut c = VideoCache::unbounded();
        c.record_chunk(VideoId::new(1), 1, 2, 0);
        c.record_chunk(VideoId::new(2), 0, 2, 1);
        let full: Vec<VideoId> = c.full_videos().collect();
        assert_eq!(full, vec![VideoId::new(1)]);
    }

    #[test]
    fn remove_reports_presence() {
        let mut c = VideoCache::unbounded();
        c.record_chunk(VideoId::new(1), 1, 2, 0);
        assert!(c.remove(VideoId::new(1)));
        assert!(!c.remove(VideoId::new(1)));
        assert!(c.entries.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        VideoCache::with_capacity(0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        #[derive(Clone, Debug)]
        enum Op {
            Full(u32),
            First(u32),
            Chunk(u32, u32),
            Touch(u32),
            Remove(u32),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u32..30).prop_map(Op::Full),
                (0u32..30).prop_map(Op::First),
                (0u32..30, 0u32..8).prop_map(|(v, c)| Op::Chunk(v, c)),
                (0u32..30).prop_map(Op::Touch),
                (0u32..30).prop_map(Op::Remove),
            ]
        }

        proptest! {
            /// Capacity is never exceeded and chunk counts never regress.
            #[test]
            fn bounded_and_monotone(
                ops in proptest::collection::vec(op_strategy(), 0..300),
                cap in 1usize..8,
            ) {
                let mut cache = VideoCache::with_capacity(cap);
                for (step, op) in ops.into_iter().enumerate() {
                    let t = step as u64;
                    match op {
                        Op::Full(v) => cache.record_chunk(VideoId::new(v), 7, 8, t),
                        Op::First(v) => cache.record_chunk(VideoId::new(v), 0, 8, t),
                        Op::Chunk(v, c) => {
                            let before = cache.chunks_of(VideoId::new(v));
                            cache.record_chunk(VideoId::new(v), c, 8, t);
                            prop_assert!(cache.chunks_of(VideoId::new(v)) >= before);
                        }
                        Op::Touch(v) => cache.touch(VideoId::new(v), t),
                        Op::Remove(v) => {
                            cache.remove(VideoId::new(v));
                        }
                    }
                    prop_assert!(cache.entries.len() <= cap, "capacity exceeded");
                    // full_videos is a subset of cached videos.
                    prop_assert!(cache.full_videos().count() <= cache.entries.len());
                }
            }

            /// After every operation the filtered cache answers every probe
            /// as a filter-free model does, bounded and unbounded, over ids
            /// of which a third share one filter bit.
            #[test]
            fn answers_match_a_filter_free_model(
                ops in proptest::collection::vec(op_strategy(), 0..300),
                cap in 0usize..8,
            ) {
                let shared = filter_bit(VideoId::new(0));
                let pool: Vec<u32> = (0..)
                    .filter(|v| filter_bit(VideoId::new(*v)) == shared)
                    .take(10)
                    .chain(1..21)
                    .collect();
                let mut cache = VideoCache::from_config((cap > 0).then_some(cap));
                // video → (chunks of 8, step last used); operations stamp
                // in step order, as the cache's own clock does.
                let mut model: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
                for (step, op) in ops.into_iter().enumerate() {
                    let t = step as u64;
                    let mut upsert = |v: u32, chunks: &dyn Fn(u32) -> u32| {
                        let e = model.entry(v).or_insert((0, step));
                        *e = (chunks(e.0), step);
                        Some(v)
                    };
                    let inserted = match op {
                        Op::Full(v) => {
                            cache.record_chunk(VideoId::new(pool[v as usize]), 7, 8, t);
                            upsert(pool[v as usize], &|_| 8)
                        }
                        Op::First(v) => {
                            cache.record_chunk(VideoId::new(pool[v as usize]), 0, 8, t);
                            upsert(pool[v as usize], &|k| k.max(1))
                        }
                        Op::Chunk(v, c) => {
                            cache.record_chunk(VideoId::new(pool[v as usize]), c, 8, t);
                            upsert(pool[v as usize], &|k| k.max(c + 1))
                        }
                        Op::Touch(v) => {
                            cache.touch(VideoId::new(pool[v as usize]), t);
                            if let Some(e) = model.get_mut(&pool[v as usize]) {
                                e.1 = step;
                            }
                            None
                        }
                        Op::Remove(v) => {
                            let removed = model.remove(&pool[v as usize]).is_some();
                            prop_assert_eq!(cache.remove(VideoId::new(pool[v as usize])), removed);
                            None
                        }
                    };
                    // Least recently used first, never the video just inserted.
                    while let Some(v) = inserted.filter(|_| cap > 0 && model.len() > cap) {
                        let victim = model.iter().filter(|(w, _)| **w != v).min_by_key(|(_, e)| e.1);
                        let victim = *victim.expect("a second entry").0;
                        model.remove(&victim);
                    }
                    for &v in &pool {
                        let (video, chunks) = (VideoId::new(v), model.get(&v).map_or(0, |e| e.0));
                        prop_assert_eq!(cache.has_full(video), chunks == 8, "{}", v);
                        prop_assert_eq!(cache.has_first_chunk(video), chunks >= 1, "{}", v);
                        prop_assert_eq!(cache.chunks_of(video), chunks, "{}", v);
                    }
                }
            }

            /// An unbounded cache never evicts: everything inserted stays.
            #[test]
            fn unbounded_keeps_everything(videos in proptest::collection::vec(0u32..1000, 0..100)) {
                let mut cache = VideoCache::unbounded();
                for (i, v) in videos.iter().enumerate() {
                    cache.record_chunk(VideoId::new(*v), 1, 2, i as u64);
                }
                for v in &videos {
                    prop_assert!(cache.has_full(VideoId::new(*v)));
                }
            }
        }
    }

    #[test]
    fn from_config_selects_mode() {
        let mut bounded = VideoCache::from_config(Some(1));
        bounded.record_chunk(VideoId::new(1), 1, 2, 0);
        bounded.record_chunk(VideoId::new(2), 1, 2, 1);
        assert_eq!(bounded.entries.len(), 1);

        let mut unbounded = VideoCache::from_config(None);
        for i in 0..100 {
            unbounded.record_chunk(VideoId::new(i), 1, 2, i as u64);
        }
        assert_eq!(unbounded.entries.len(), 100);
    }
}
