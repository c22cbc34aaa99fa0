//! Mapping from protocol [`Report`]s to [`Recorder`] observations.
//!
//! This is driver policy: every report a flush of the simulation driver
//! delivers is also offered to the run's recorder. The mapping only
//! *observes* — it draws no RNG, schedules nothing, and allocates nothing —
//! so attaching a recorder cannot perturb a run.

use socialtube::{ChunkSource, Report, SearchPhase};
use socialtube_obs::{Counter, Dim, HistKind, Recorder, Track};
use socialtube_sim::SimTime;

/// Community key for nodes without a subscription: their reports are
/// attributed to no community slice (the run-wide totals still count them).
pub(crate) const NO_COMMUNITY: u32 = u32::MAX;

/// Feeds one report into `rec`'s run-wide totals: resolution-split and
/// repair counters, the search-hop histogram, cache/prefetch hit
/// accounting, and the matching timeline instants on the reporting peer's
/// track.
pub fn record_report<R: Recorder>(rec: &mut R, now: SimTime, report: &Report) {
    record_report_in(rec, now, &[], report);
}

/// [`record_report`], plus the same counters and hops against the
/// reporting node's interest-community slice ([`Dim::Community`]).
/// `community_of` maps node index to community key — the same
/// first-subscription key the sharded executor partitions by — with
/// [`NO_COMMUNITY`] (or a missing entry) meaning "unattributed".
pub(crate) fn record_report_in<R: Recorder>(
    rec: &mut R,
    now: SimTime,
    community_of: &[u32],
    report: &Report,
) {
    if !R::ENABLED {
        return;
    }
    use Counter::*;
    // The one Report → observation mapping. `attributed` is false where the
    // report names a *forwarding* node (TTL expiry, neighbor loss), whose
    // community is not the requester's — a slice would be mislabelled.
    let (node, counters, hops, instant, attributed): (_, &[Counter], _, _, _) = match *report {
        Report::PlaybackStarted { node, source, .. } => {
            let counters: &[Counter] = match source {
                ChunkSource::Cache => &[CacheHit],
                // The session cache missed, but the speculative first chunk
                // was there: an instant start anyway.
                ChunkSource::Prefetched => &[CacheMiss, PrefetchHit],
                ChunkSource::Peer | ChunkSource::Server => &[CacheMiss, PrefetchMiss],
            };
            (node, counters, None, Some("playback"), true)
        }
        // Chunk arrivals are the hottest report; the evaluation metrics
        // already aggregate them, so the recorder skips them entirely.
        Report::ChunkReceived { .. } => return,
        Report::ServerFallback { node, .. } => {
            (node, &[ResolvedServer], None, Some("server-fallback"), true)
        }
        Report::ServedFromOrigin { node, .. } => (node, &[OriginServe], None, None, true),
        Report::SearchResolved {
            node, phase, hops, ..
        } => {
            let counter: &[Counter] = match phase {
                SearchPhase::Channel => &[ResolvedChannel],
                SearchPhase::Category => &[ResolvedCategory],
                // Server resolutions arrive as `ServerFallback`; a
                // `SearchResolved` should never carry the server phase.
                SearchPhase::Server => &[ResolvedServer],
            };
            (
                node,
                counter,
                Some(u64::from(hops)),
                Some("search-hit"),
                true,
            )
        }
        Report::TtlExpired { node, .. } => (node, &[TtlExpired], None, None, false),
        Report::NeighborLost { node, .. } => {
            (node, &[NeighborLost], None, Some("neighbor-lost"), false)
        }
        Report::PrefetchAbandoned { node, .. } => (node, &[PrefetchAbandoned], None, None, true),
    };
    let community = community_of
        .get(node.index())
        .filter(|&&c| attributed && c != NO_COMMUNITY)
        .map(|&c| Dim::Community(c));
    for &counter in counters {
        rec.count(counter);
        if let Some(dim) = community {
            rec.add_dim(dim, counter, 1);
        }
    }
    if let Some(hops) = hops {
        rec.observe(HistKind::SearchHops, hops);
        if let Some(dim) = community {
            rec.observe_dim(dim, HistKind::SearchHops, hops);
        }
    }
    if let Some(name) = instant {
        rec.instant(Track::Peer(node.as_u32()), name, now.as_micros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_model::{NodeId, VideoId};
    use socialtube_obs::{MetricsSnapshot, RecorderConfig, RunRecorder};

    fn snapshot_of(reports: &[Report]) -> MetricsSnapshot {
        let mut rec = RunRecorder::new(RecorderConfig::metrics_only());
        // Node 0 in community 7, node 1 unattributed.
        let community_of = [7, NO_COMMUNITY];
        for report in reports {
            record_report_in(&mut rec, SimTime::ZERO, &community_of, report);
        }
        rec.finish().snapshot
    }

    #[test]
    fn resolution_split_and_hops_accumulate() {
        let (n0, n1, video) = (NodeId::new(0), NodeId::new(1), VideoId::new(2));
        let resolved = |node, phase, hops| Report::SearchResolved {
            node,
            video,
            phase,
            hops,
        };
        let snap = snapshot_of(&[
            resolved(n0, SearchPhase::Channel, 2),
            resolved(n1, SearchPhase::Category, 1),
            Report::ServerFallback { node: n1, video },
            // Forwarder reports: node 0 is not the requester here.
            Report::TtlExpired { node: n0, video },
            Report::NeighborLost {
                node: n0,
                neighbor: n1,
            },
        ]);
        let counters = ["resolved_channel", "resolved_category", "resolved_server"];
        for key in counters.into_iter().chain(["ttl_expired", "neighbor_lost"]) {
            assert_eq!(snap.counter(key), 1, "{key}");
        }
        let hops = snap.histogram("search_hops").expect("hops observed");
        assert_eq!((hops.count(), hops.sum()), (2, 3));
        // Only node 0's own search reaches its community's slice.
        let (_, c7) = snap.communities().next().expect("community 7 slice");
        let sliced = [
            "resolved_channel",
            "resolved_server",
            "ttl_expired",
            "neighbor_lost",
        ];
        assert_eq!(sliced.map(|key| c7.counter(key)), [1, 0, 0, 0]);
        assert_eq!(c7.histogram("search_hops").map(|h| h.sum()), Some(2));
        assert_eq!(snap.communities().count(), 1);
    }

    #[test]
    fn playback_sources_split_cache_and_prefetch() {
        let mk = |source| Report::PlaybackStarted {
            node: NodeId::new(0),
            video: VideoId::new(0),
            requested_at: SimTime::ZERO,
            source,
        };
        let snap = snapshot_of(&[
            mk(ChunkSource::Cache),
            mk(ChunkSource::Prefetched),
            mk(ChunkSource::Peer),
            mk(ChunkSource::Server),
        ]);
        let (_, c7) = snap.communities().next().expect("community 7 slice");
        for scope in [&snap, c7] {
            assert_eq!(scope.counter("cache_hit"), 1);
            assert_eq!(scope.counter("cache_miss"), 3);
            assert_eq!(scope.counter("prefetch_hit"), 1);
            assert_eq!(scope.counter("prefetch_miss"), 2);
        }
    }
}
