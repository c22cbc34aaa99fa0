//! The three evaluation metrics of Section V.

use std::collections::BTreeMap;

use socialtube::{ChunkSource, Report, TransferKind};
use socialtube_model::NodeId;
use socialtube_sim::SimTime;
use socialtube_trace::stats::Percentiles;

/// Accumulates protocol [`Report`]s during a run and computes the paper's
/// metrics:
///
/// * **Startup delay** — selection-to-playback time (Fig 17);
/// * **Normalized peer bandwidth** — per node, the fraction of received
///   chunk bits served by peers (Fig 16, reported as 1st/50th/99th
///   percentiles);
/// * **Maintenance overhead** — links maintained as a function of videos
///   watched (Fig 18; sampled by the driver after each playback).
#[derive(Debug)]
pub struct MetricsCollector {
    node_count: usize,
    startup_delays_ms: Vec<f64>,
    peer_bits: Vec<u64>,
    server_bits: Vec<u64>,
    /// links-by-videos-watched samples: bucket → (sum of links, samples).
    link_samples: BTreeMap<u32, (u64, u64)>,
    playbacks: u64,
    /// Playbacks started, indexed by `ChunkSource as usize`.
    playbacks_by_source: [u64; 4],
    server_fallbacks: u64,
    origin_serves: u64,
    prefetch_bits: u64,
    /// Traffic per simulated minute as `(minute, peer bits, server bits)`.
    /// Append-only: reports arrive in virtual-time order, so the active
    /// minute is always the last element — a chunk report touches it in
    /// O(1) instead of paying a map lookup on the hottest report kind.
    timeline: Vec<(u64, u64, u64)>,
}

impl MetricsCollector {
    /// Creates a collector for `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            startup_delays_ms: Vec::new(),
            peer_bits: vec![0; node_count],
            server_bits: vec![0; node_count],
            link_samples: BTreeMap::new(),
            playbacks: 0,
            playbacks_by_source: [0; 4],
            server_fallbacks: 0,
            origin_serves: 0,
            prefetch_bits: 0,
            timeline: Vec::new(),
        }
    }

    /// The timeline bucket for `minute`, appending it if new. Virtual time
    /// never goes backwards, so earlier buckets are immutable history.
    fn timeline_bucket(&mut self, minute: u64) -> &mut (u64, u64, u64) {
        match self.timeline.last() {
            Some(last) if last.0 == minute => {}
            _ => {
                debug_assert!(self.timeline.last().is_none_or(|l| l.0 < minute));
                self.timeline.push((minute, 0, 0));
            }
        }
        self.timeline.last_mut().expect("bucket just ensured")
    }

    /// Ingests one protocol report delivered at `now`.
    pub fn on_report(&mut self, now: SimTime, report: Report) {
        match report {
            Report::PlaybackStarted {
                requested_at,
                source,
                ..
            } => {
                self.playbacks += 1;
                let delay_ms = now.duration_since(requested_at).as_micros() as f64 / 1_000.0;
                self.startup_delays_ms.push(delay_ms);
                self.playbacks_by_source[source as usize] += 1;
            }
            Report::ChunkReceived {
                node,
                bits,
                source,
                kind,
                ..
            } => {
                if kind == TransferKind::Prefetch {
                    self.prefetch_bits += bits;
                }
                let minute = now.as_micros() / 60_000_000;
                match source {
                    ChunkSource::Peer => {
                        self.add_bits(node, bits, true);
                        self.timeline_bucket(minute).1 += bits;
                    }
                    ChunkSource::Server => {
                        self.add_bits(node, bits, false);
                        self.timeline_bucket(minute).2 += bits;
                    }
                    ChunkSource::Cache | ChunkSource::Prefetched => {}
                }
            }
            Report::ServerFallback { .. } => self.server_fallbacks += 1,
            Report::ServedFromOrigin { .. } => self.origin_serves += 1,
            // Diagnostic reports feed the obs recorder, not the paper's
            // evaluation metrics: ignoring them here keeps MetricsSummary
            // (and the golden fixtures pinning it) unchanged.
            Report::SearchResolved { .. }
            | Report::TtlExpired { .. }
            | Report::NeighborLost { .. }
            | Report::PrefetchAbandoned { .. } => {}
        }
    }

    fn add_bits(&mut self, node: NodeId, bits: u64, from_peer: bool) {
        let idx = node.index();
        if idx >= self.node_count {
            return;
        }
        if from_peer {
            self.peer_bits[idx] += bits;
        } else {
            self.server_bits[idx] += bits;
        }
    }

    /// Records a maintenance sample: `node` maintains `links` links right
    /// after its `videos_watched`-th playback.
    pub fn sample_links(&mut self, videos_watched: u32, links: usize) {
        let entry = self.link_samples.entry(videos_watched).or_insert((0, 0));
        entry.0 += links as u64;
        entry.1 += 1;
    }

    /// Per-node normalized peer bandwidth (nodes that received no bits are
    /// skipped — they never watched anything).
    pub fn normalized_peer_bandwidth(&self) -> Vec<f64> {
        self.peer_bits
            .iter()
            .zip(&self.server_bits)
            .filter(|(p, s)| **p + **s > 0)
            .map(|(p, s)| *p as f64 / (*p + *s) as f64)
            .collect()
    }

    /// Per-simulated-minute traffic series `(minute, peer_bits,
    /// server_bits)` — shows the P2P overlay relieving the origin as
    /// caches warm (an extension beyond the paper's aggregate Fig 16).
    pub fn traffic_timeline(&self) -> Vec<(u64, u64, u64)> {
        self.timeline.clone()
    }

    /// Average maintained links per videos-watched bucket (Fig 18 series).
    pub fn maintenance_curve(&self) -> Vec<(u32, f64)> {
        self.link_samples
            .iter()
            .map(|(k, (sum, n))| (*k, *sum as f64 / *n as f64))
            .collect()
    }

    /// Finalizes the summary.
    pub fn summary(&self) -> MetricsSummary {
        let npb = self.normalized_peer_bandwidth();
        let total_peer: u64 = self.peer_bits.iter().sum();
        let total_server: u64 = self.server_bits.iter().sum();
        MetricsSummary {
            playbacks: self.playbacks,
            mean_startup_delay_ms: mean(&self.startup_delays_ms),
            startup_delay_percentiles: Percentiles::of(&self.startup_delays_ms),
            peer_bandwidth_percentiles: Percentiles::of(&npb),
            mean_peer_bandwidth: mean(&npb),
            total_peer_bits: total_peer,
            total_server_bits: total_server,
            server_fallbacks: self.server_fallbacks,
            origin_serves: self.origin_serves,
            prefetch_bits: self.prefetch_bits,
            traffic_timeline: self.traffic_timeline(),
            cache_hits: self.playbacks_by_source[ChunkSource::Cache as usize],
            prefetch_hits: self.playbacks_by_source[ChunkSource::Prefetched as usize],
            peer_starts: self.playbacks_by_source[ChunkSource::Peer as usize],
            server_starts: self.playbacks_by_source[ChunkSource::Server as usize],
            maintenance_curve: self.maintenance_curve(),
        }
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Final metrics of one run — everything Figs 16–18 plot.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSummary {
    /// Number of playbacks started.
    pub playbacks: u64,
    /// Mean startup delay in milliseconds.
    pub mean_startup_delay_ms: f64,
    /// 1st/50th/99th percentile startup delay (ms).
    pub startup_delay_percentiles: Percentiles,
    /// 1st/50th/99th percentile of per-node normalized peer bandwidth.
    pub peer_bandwidth_percentiles: Percentiles,
    /// Mean normalized peer bandwidth across nodes.
    pub mean_peer_bandwidth: f64,
    /// Total bits received from peers.
    pub total_peer_bits: u64,
    /// Total bits received from the server.
    pub total_server_bits: u64,
    /// Playback searches that fell back to the server.
    pub server_fallbacks: u64,
    /// Requests the server answered from the origin store.
    pub origin_serves: u64,
    /// Bits moved by prefetch transfers.
    pub prefetch_bits: u64,
    /// Per-simulated-minute `(minute, peer_bits, server_bits)` series.
    pub traffic_timeline: Vec<(u64, u64, u64)>,
    /// Playbacks started instantly from a fully cached video.
    pub cache_hits: u64,
    /// Playbacks started instantly from a prefetched first chunk.
    pub prefetch_hits: u64,
    /// Playbacks whose first chunk came from a peer.
    pub peer_starts: u64,
    /// Playbacks whose first chunk came from the server.
    pub server_starts: u64,
    /// Average maintained links per videos-watched count.
    pub maintenance_curve: Vec<(u32, f64)>,
}

impl MetricsSummary {
    /// Average links over the tail of the maintenance curve (steady state).
    pub fn steady_state_links(&self) -> f64 {
        let n = self.maintenance_curve.len();
        if n == 0 {
            return 0.0;
        }
        let tail = &self.maintenance_curve[n - (n / 4).max(1)..];
        tail.iter().map(|(_, l)| l).sum::<f64>() / tail.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_model::VideoId;
    use socialtube_sim::SimDuration;

    fn playback(node: u32, requested_at: SimTime, source: ChunkSource) -> Report {
        Report::PlaybackStarted {
            node: NodeId::new(node),
            video: VideoId::new(0),
            requested_at,
            source,
        }
    }

    fn chunk(node: u32, bits: u64, source: ChunkSource) -> Report {
        Report::ChunkReceived {
            node: NodeId::new(node),
            video: VideoId::new(0),
            bits,
            source,
            kind: TransferKind::Playback,
        }
    }

    #[test]
    fn startup_delay_is_selection_to_playback() {
        let mut m = MetricsCollector::new(2);
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(800);
        m.on_report(t1, playback(0, t0, ChunkSource::Server));
        m.on_report(t1, playback(1, t1, ChunkSource::Cache));
        let s = m.summary();
        assert_eq!(s.playbacks, 2);
        assert!((s.mean_startup_delay_ms - 400.0).abs() < 1e-9);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.server_starts, 1);
    }

    #[test]
    fn peer_bandwidth_is_per_node_fraction() {
        let mut m = MetricsCollector::new(3);
        // Node 0: 75% peer; node 1: 0% peer; node 2: nothing (skipped).
        m.on_report(SimTime::ZERO, chunk(0, 300, ChunkSource::Peer));
        m.on_report(SimTime::ZERO, chunk(0, 100, ChunkSource::Server));
        m.on_report(SimTime::ZERO, chunk(1, 100, ChunkSource::Server));
        let npb = m.normalized_peer_bandwidth();
        assert_eq!(npb.len(), 2);
        assert!((npb[0] - 0.75).abs() < 1e-12);
        assert_eq!(npb[1], 0.0);
        let s = m.summary();
        assert_eq!(s.total_peer_bits, 300);
        assert_eq!(s.total_server_bits, 200);
    }

    #[test]
    fn prefetch_bits_are_tracked_separately() {
        let mut m = MetricsCollector::new(1);
        m.on_report(
            SimTime::ZERO,
            Report::ChunkReceived {
                node: NodeId::new(0),
                video: VideoId::new(0),
                bits: 500,
                source: ChunkSource::Peer,
                kind: TransferKind::Prefetch,
            },
        );
        let s = m.summary();
        assert_eq!(s.prefetch_bits, 500);
        // Prefetch bits still count toward peer bandwidth (they are chunks
        // provided by peers).
        assert_eq!(s.total_peer_bits, 500);
    }

    #[test]
    fn maintenance_curve_averages_samples() {
        let mut m = MetricsCollector::new(2);
        m.sample_links(1, 4);
        m.sample_links(1, 6);
        m.sample_links(2, 10);
        let curve = m.maintenance_curve();
        assert_eq!(curve, vec![(1, 5.0), (2, 10.0)]);
    }

    #[test]
    fn steady_state_links_uses_tail() {
        let mut m = MetricsCollector::new(1);
        for k in 1..=8 {
            m.sample_links(k, if k <= 6 { 0 } else { 10 });
        }
        let s = m.summary();
        assert_eq!(s.steady_state_links(), 10.0);
    }

    #[test]
    fn timeline_buckets_by_minute_and_source() {
        let mut m = MetricsCollector::new(1);
        let t0 = SimTime::ZERO;
        let t90s = SimTime::from_micros(90_000_000);
        m.on_report(t0, chunk(0, 100, ChunkSource::Peer));
        m.on_report(t0, chunk(0, 50, ChunkSource::Server));
        m.on_report(t90s, chunk(0, 70, ChunkSource::Server));
        assert_eq!(m.traffic_timeline(), vec![(0, 100, 50), (1, 0, 70)]);
        let s = m.summary();
        assert_eq!(s.traffic_timeline.len(), 2);
    }

    #[test]
    fn fallback_and_origin_counters() {
        let mut m = MetricsCollector::new(1);
        m.on_report(
            SimTime::ZERO,
            Report::ServerFallback {
                node: NodeId::new(0),
                video: VideoId::new(0),
            },
        );
        m.on_report(
            SimTime::ZERO,
            Report::ServedFromOrigin {
                node: NodeId::new(0),
                video: VideoId::new(0),
            },
        );
        let s = m.summary();
        assert_eq!(s.server_fallbacks, 1);
        assert_eq!(s.origin_serves, 1);
    }

    #[test]
    fn out_of_range_nodes_are_ignored() {
        let mut m = MetricsCollector::new(1);
        m.on_report(SimTime::ZERO, chunk(99, 100, ChunkSource::Peer));
        assert_eq!(m.summary().total_peer_bits, 0);
    }

    #[test]
    fn empty_collector_summary_is_zeroed() {
        let s = MetricsCollector::new(0).summary();
        assert_eq!(s.playbacks, 0);
        assert_eq!(s.mean_startup_delay_ms, 0.0);
        assert_eq!(s.steady_state_links(), 0.0);
    }
}
