//! The [`Recorder`] trait and its implementations.

use crate::dims::Dim;
use crate::snapshot::MetricsSnapshot;
use crate::timeline::{Timeline, TracePhase};

/// Monotonic event counters a run can bump.
///
/// The first block is the paper's resolution split (where a video request
/// was satisfied); the second covers cache/prefetch effectiveness and
/// overlay repair; the third is engine-level dispatch accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Counter {
    /// Search resolved in the channel overlay (SocialTube phase 1 /
    /// NetTube's single flood phase).
    ResolvedChannel,
    /// Search resolved in the category cluster (SocialTube phase 2).
    ResolvedCategory,
    /// Search fell back to the server.
    ResolvedServer,
    /// A flooded query died with TTL exhausted at a non-holder.
    TtlExpired,
    /// Playback started straight from the local session cache.
    CacheHit,
    /// Playback needed a transfer (cache did not hold the video).
    CacheMiss,
    /// Playback started instantly from a prefetched first chunk.
    PrefetchHit,
    /// Playback found no prefetched chunk to start from.
    PrefetchMiss,
    /// A speculative prefetch search missed the community and was dropped.
    PrefetchAbandoned,
    /// A neighbor was declared dead by probe timeout and evicted
    /// (the overlay-repair event).
    NeighborLost,
    /// The server satisfied a request from its origin store.
    OriginServe,
    /// Engine dispatched a session-login event.
    EvLogin,
    /// Engine dispatched a session-logout event.
    EvLogout,
    /// Engine dispatched a next-video selection event.
    EvNextVideo,
    /// Engine dispatched a watch-end event.
    EvWatchEnd,
    /// Engine dispatched a peer-to-peer message delivery.
    EvPeerMsg,
    /// Engine dispatched a peer-to-server message delivery.
    EvServerMsg,
    /// Engine dispatched a peer timer expiry.
    EvPeerTimer,
}

impl Counter {
    /// Every counter, in serialization order.
    pub const ALL: [Counter; 18] = [
        Counter::ResolvedChannel,
        Counter::ResolvedCategory,
        Counter::ResolvedServer,
        Counter::TtlExpired,
        Counter::CacheHit,
        Counter::CacheMiss,
        Counter::PrefetchHit,
        Counter::PrefetchMiss,
        Counter::PrefetchAbandoned,
        Counter::NeighborLost,
        Counter::OriginServe,
        Counter::EvLogin,
        Counter::EvLogout,
        Counter::EvNextVideo,
        Counter::EvWatchEnd,
        Counter::EvPeerMsg,
        Counter::EvServerMsg,
        Counter::EvPeerTimer,
    ];

    /// Number of counters.
    pub(crate) const COUNT: usize = Self::ALL.len();

    /// Stable snake_case key used in serialized snapshots.
    pub(crate) fn key(self) -> &'static str {
        match self {
            Counter::ResolvedChannel => "resolved_channel",
            Counter::ResolvedCategory => "resolved_category",
            Counter::ResolvedServer => "resolved_server",
            Counter::TtlExpired => "ttl_expired",
            Counter::CacheHit => "cache_hit",
            Counter::CacheMiss => "cache_miss",
            Counter::PrefetchHit => "prefetch_hit",
            Counter::PrefetchMiss => "prefetch_miss",
            Counter::PrefetchAbandoned => "prefetch_abandoned",
            Counter::NeighborLost => "neighbor_lost",
            Counter::OriginServe => "origin_serve",
            Counter::EvLogin => "ev_login",
            Counter::EvLogout => "ev_logout",
            Counter::EvNextVideo => "ev_next_video",
            Counter::EvWatchEnd => "ev_watch_end",
            Counter::EvPeerMsg => "ev_peer_msg",
            Counter::EvServerMsg => "ev_server_msg",
            Counter::EvPeerTimer => "ev_peer_timer",
        }
    }
}

/// The fixed-bucket histograms a run can feed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(usize)]
pub enum HistKind {
    /// Hop count of successful P2P search resolutions (linear buckets).
    SearchHops,
    /// Engine event-queue depth, sampled once per simulated minute plus
    /// the peak at drain (log2 buckets).
    QueueDepth,
    /// Per-transfer wait in a peer's upload link before serialization
    /// started, in µs (log2 buckets).
    PeerUploadWaitUs,
    /// Per-chunk wait in the server's bounded upload pipe, in µs
    /// (log2 buckets).
    ServerQueueWaitUs,
}

impl HistKind {
    /// Every histogram kind, in serialization order.
    pub const ALL: [HistKind; 4] = [
        HistKind::SearchHops,
        HistKind::QueueDepth,
        HistKind::PeerUploadWaitUs,
        HistKind::ServerQueueWaitUs,
    ];

    /// Stable snake_case key used in serialized snapshots.
    pub(crate) fn key(self) -> &'static str {
        match self {
            HistKind::SearchHops => "search_hops",
            HistKind::QueueDepth => "queue_depth",
            HistKind::PeerUploadWaitUs => "peer_upload_wait_us",
            HistKind::ServerQueueWaitUs => "server_queue_wait_us",
        }
    }

    /// Whether buckets are linear (one per value) or powers of two.
    fn linear(self) -> bool {
        matches!(self, HistKind::SearchHops)
    }
}

/// A fixed-bucket histogram: 32 value buckets plus one overflow bucket,
/// with running count, sum and max. Never allocates after construction.
///
/// Linear kinds put value `v` in bucket `v` (last bucket collects
/// `v >= 32`); log2 kinds put `v` in bucket `⌈log2(v+1)⌉` so bucket `i > 0`
/// covers `[2^(i-1), 2^i - 1]`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    kind: HistKind,
    buckets: [u64; Self::BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Total bucket count (32 value buckets + overflow).
    pub(crate) const BUCKETS: usize = 33;

    /// An empty histogram of `kind`.
    pub(crate) fn new(kind: HistKind) -> Self {
        Self {
            kind,
            buckets: [0; Self::BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index `value` falls into for `kind`.
    pub(crate) fn bucket_index(kind: HistKind, value: u64) -> usize {
        if kind.linear() {
            (value as usize).min(Self::BUCKETS - 1)
        } else if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(Self::BUCKETS - 1)
        }
    }

    /// Inclusive lower bound of bucket `i` for `kind`.
    pub(crate) fn bucket_lower_bound(kind: HistKind, i: usize) -> u64 {
        if kind.linear() || i == 0 {
            i as u64
        } else {
            1u64 << (i - 1)
        }
    }

    /// Records one observation.
    pub(crate) fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(self.kind, value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// This histogram's kind.
    pub(crate) fn kind(&self) -> HistKind {
        self.kind
    }

    /// Adds `other`'s observations (of the same kind) into this histogram.
    pub(crate) fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.kind, other.kind);
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observed value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive lower bound, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (Self::bucket_lower_bound(self.kind, i), *c))
    }
}

/// A timeline track: Chrome-trace renders one lane per track.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Track {
    /// The driver's event loop.
    Engine,
    /// The central server.
    Server,
    /// One peer, by node id.
    Peer(u32),
}

/// The observation sink driver loops are generic over.
///
/// All methods default to no-ops so implementations override only what
/// they store. Implementations must follow the crate's ownership rule:
/// observe only — no RNG draws, no mutation of anything the simulation
/// reads back.
pub trait Recorder {
    /// `false` only for [`NullRecorder`]: lets hot paths skip computing
    /// an observation's inputs entirely.
    const ENABLED: bool = true;

    /// Bumps `counter` by one.
    fn count(&mut self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Bumps `counter` by `n`.
    fn add(&mut self, counter: Counter, n: u64) {
        let _ = (counter, n);
    }

    /// Records `value` into the `kind` histogram.
    fn observe(&mut self, kind: HistKind, value: u64) {
        let _ = (kind, value);
    }

    /// Bumps `counter` by `n` within `dim`'s slice (see [`Dim`]).
    fn add_dim(&mut self, dim: Dim, counter: Counter, n: u64) {
        let _ = (dim, counter, n);
    }

    /// Records `value` into `dim`'s `kind` histogram.
    fn observe_dim(&mut self, dim: Dim, kind: HistKind, value: u64) {
        let _ = (dim, kind, value);
    }

    /// Opens a named span on `track` at virtual time `ts_us`.
    fn span_begin(&mut self, track: Track, name: &'static str, ts_us: u64) {
        let _ = (track, name, ts_us);
    }

    /// Closes the innermost open span on `track` at virtual time `ts_us`.
    fn span_end(&mut self, track: Track, ts_us: u64) {
        let _ = (track, ts_us);
    }

    /// Marks an instantaneous event on `track`.
    fn instant(&mut self, track: Track, name: &'static str, ts_us: u64) {
        let _ = (track, name, ts_us);
    }

    /// Records a named counter sample (a value-over-time series) on
    /// `track`.
    fn sample(&mut self, track: Track, name: &'static str, ts_us: u64, value: u64) {
        let _ = (track, name, ts_us, value);
    }
}

/// The do-nothing recorder: every observation compiles away.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
}

/// What a [`RunRecorder`] should capture.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub enum RecorderConfig {
    /// Nothing: the run takes the zero-cost [`NullRecorder`] path.
    #[default]
    Off,
    /// Counters, histograms and per-[`Dim`] slices (the metrics snapshot).
    Metrics,
    /// The metrics plus the per-run timeline (spans, instants, counter
    /// series).
    Full,
}

impl RecorderConfig {
    /// Metrics snapshot only — the cheap always-on-in-campaigns mode.
    pub fn metrics_only() -> Self {
        Self::Metrics
    }

    /// Metrics plus full timeline capture.
    pub fn full() -> Self {
        Self::Full
    }

    /// Whether anything at all is being captured.
    pub fn enabled(self) -> bool {
        self != Self::Off
    }
}

/// Everything a recorded run produced.
#[derive(Clone, Debug)]
pub struct RunRecording {
    /// Final counters, histograms and per-[`Dim`] slices.
    pub snapshot: MetricsSnapshot,
    /// The captured timeline, when timeline capture was on.
    pub timeline: Option<Timeline>,
}

/// The per-run recorder: writes counters, histograms and per-[`Dim`]
/// slices straight into the [`MetricsSnapshot`] it finishes into, and
/// events into a [`Timeline`] when the config asks for one.
#[derive(Clone, Debug)]
pub struct RunRecorder {
    snapshot: MetricsSnapshot,
    timeline: Option<Timeline>,
}

impl RunRecorder {
    /// A recorder capturing what `config` asks for (the snapshot is always
    /// kept; only the timeline is optional).
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            snapshot: MetricsSnapshot::default(),
            timeline: (config == RecorderConfig::Full).then(Timeline::new),
        }
    }

    /// Consumes the recorder into its serializable result.
    pub fn finish(self) -> RunRecording {
        RunRecording {
            snapshot: self.snapshot,
            timeline: self.timeline,
        }
    }
}

impl Recorder for RunRecorder {
    fn add(&mut self, counter: Counter, n: u64) {
        self.snapshot.add(counter, n);
    }

    fn observe(&mut self, kind: HistKind, value: u64) {
        self.snapshot.observe(kind, value);
    }

    fn add_dim(&mut self, dim: Dim, counter: Counter, n: u64) {
        self.snapshot.slice_mut(dim).add(counter, n);
    }

    fn observe_dim(&mut self, dim: Dim, kind: HistKind, value: u64) {
        self.snapshot.slice_mut(dim).observe(kind, value);
    }

    fn span_begin(&mut self, track: Track, name: &'static str, ts_us: u64) {
        if let Some(t) = &mut self.timeline {
            t.push(TracePhase::Begin, track, name, ts_us, 0);
        }
    }

    fn span_end(&mut self, track: Track, ts_us: u64) {
        if let Some(t) = &mut self.timeline {
            t.push(TracePhase::End, track, "", ts_us, 0);
        }
    }

    fn instant(&mut self, track: Track, name: &'static str, ts_us: u64) {
        if let Some(t) = &mut self.timeline {
            t.push(TracePhase::Instant, track, name, ts_us, 0);
        }
    }

    fn sample(&mut self, track: Track, name: &'static str, ts_us: u64, value: u64) {
        if let Some(t) = &mut self.timeline {
            t.push(TracePhase::Counter, track, name, ts_us, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_buckets_are_one_per_value_with_overflow() {
        let k = HistKind::SearchHops;
        assert_eq!(Histogram::bucket_index(k, 0), 0);
        assert_eq!(Histogram::bucket_index(k, 1), 1);
        assert_eq!(Histogram::bucket_index(k, 31), 31);
        assert_eq!(Histogram::bucket_index(k, 32), 32);
        assert_eq!(Histogram::bucket_index(k, 1_000_000), 32);
        for i in 0..Histogram::BUCKETS {
            assert_eq!(Histogram::bucket_lower_bound(k, i), i as u64);
        }
    }

    #[test]
    fn log2_bucket_boundaries_are_powers_of_two() {
        let k = HistKind::PeerUploadWaitUs;
        assert_eq!(Histogram::bucket_index(k, 0), 0);
        assert_eq!(Histogram::bucket_index(k, 1), 1);
        assert_eq!(Histogram::bucket_index(k, 2), 2);
        assert_eq!(Histogram::bucket_index(k, 3), 2);
        assert_eq!(Histogram::bucket_index(k, 4), 3);
        assert_eq!(Histogram::bucket_index(k, 7), 3);
        assert_eq!(Histogram::bucket_index(k, 8), 4);
        // Every bucket's lower bound lands back in that bucket, and the
        // value just below it lands in the previous one.
        for i in 1..Histogram::BUCKETS - 1 {
            let lo = Histogram::bucket_lower_bound(k, i);
            assert_eq!(Histogram::bucket_index(k, lo), i, "lower bound of {i}");
            assert_eq!(Histogram::bucket_index(k, lo - 1), i - 1, "below {i}");
        }
        // Overflow: anything at or beyond the last lower bound.
        let last = Histogram::bucket_lower_bound(k, Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(k, last), Histogram::BUCKETS - 1);
        assert_eq!(Histogram::bucket_index(k, u64::MAX), Histogram::BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_max() {
        let mut h = Histogram::new(HistKind::QueueDepth);
        for v in [0, 1, 5, 5, 100] {
            h.record(v);
        }
        assert_eq!((h.count(), h.sum(), h.max()), (5, 111, 100));
        assert_eq!(h.buckets().map(|(_, c)| c).sum::<u64>(), 5);
        assert_eq!(
            h.buckets().collect::<Vec<_>>(),
            vec![(0, 1), (1, 1), (4, 2), (64, 1)]
        );
    }

    #[test]
    fn run_recorder_accumulates() {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.count(Counter::ResolvedChannel);
        r.add(Counter::ResolvedChannel, 2);
        r.observe(HistKind::SearchHops, 3);
        let snap = r.finish().snapshot;
        assert_eq!(snap.counter("resolved_channel"), 3);
        assert_eq!(snap.counter("resolved_server"), 0);
        assert_eq!(snap.histogram("search_hops").map(Histogram::count), Some(1));
        assert_eq!(snap.histogram("queue_depth"), None, "never observed");
    }

    #[test]
    fn run_recorder_attributes_dims() {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.add_dim(Dim::Community(7), Counter::CacheHit, 1);
        r.add_dim(Dim::Community(7), Counter::CacheHit, 2);
        r.add_dim(Dim::Community(2), Counter::CacheMiss, 1);
        r.observe_dim(Dim::Community(2), HistKind::SearchHops, 4);
        let snap = r.finish().snapshot;
        assert_eq!(snap.communities().count(), 2);
        let (_, c7) = snap.communities().last().expect("community 7 slice");
        assert_eq!(c7.counter("cache_hit"), 3);
        assert_eq!(c7.counter("cache_miss"), 0);
        let (_, c2) = snap.communities().next().expect("community 2 slice");
        assert_eq!(c2.histogram("search_hops").map(Histogram::count), Some(1));
        assert_eq!(c7.histogram("search_hops"), None);
        // Run-wide totals are untouched by dim attribution.
        assert_eq!(snap.counter("cache_hit"), 0);
    }

    #[test]
    fn run_recorder_without_timeline_drops_timeline_events() {
        let mut r = RunRecorder::new(RecorderConfig::metrics_only());
        r.instant(Track::Engine, "x", 5);
        r.count(Counter::CacheHit);
        let rec = r.finish();
        assert!(rec.timeline.is_none());
        assert_eq!(rec.snapshot.counter("cache_hit"), 1);
    }

    #[test]
    fn run_recorder_with_timeline_captures_events() {
        let mut r = RunRecorder::new(RecorderConfig::full());
        r.span_begin(Track::Peer(3), "session", 10);
        r.sample(Track::Engine, "queue_depth", 20, 7);
        r.span_end(Track::Peer(3), 30);
        let rec = r.finish();
        let t = rec.timeline.expect("timeline captured");
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.events()[1].value, 7);
    }
}
