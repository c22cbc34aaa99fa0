//! Per-figure experiment runners for the evaluation section.
//!
//! One simulation run per protocol variant yields every metric, so the
//! figure extractors all read from a shared [`ComparisonRun`] — exactly how
//! the paper reports Figs 16, 17 and 18 from the same experiments.

use std::collections::BTreeMap;

use socialtube::analysis::{fig15_series, OverheadPoint};
use socialtube_obs::MetricsSnapshot;
use socialtube_trace::stats::Percentiles;
use socialtube_trace::{generate_shared, SharedTrace};

use crate::campaign::{default_workers, run_specs};
use crate::configs::ExperimentOptions;
use crate::driver::{RunSpec, SimOutcome};
use crate::Protocol;

/// Outcomes of running every protocol variant over one shared trace and
/// workload.
#[derive(Debug)]
pub struct ComparisonRun {
    /// The trace all variants shared (cheaply cloneable handle).
    pub trace: SharedTrace,
    /// Outcome per protocol variant.
    pub outcomes: BTreeMap<&'static str, (Protocol, SimOutcome)>,
}

impl ComparisonRun {
    /// Looks up the outcome of `protocol`.
    pub fn outcome(&self, protocol: Protocol) -> &SimOutcome {
        &self
            .outcomes
            .get(protocol.label())
            .unwrap_or_else(|| panic!("{protocol} was not run"))
            .1
    }
}

/// Runs the given protocol variants over one shared trace, fanning the
/// variants out across worker threads (the results are identical to a
/// serial loop — each variant is an independent [`RunSpec`]).
pub fn run_comparison(options: &ExperimentOptions, protocols: &[Protocol]) -> ComparisonRun {
    let trace = generate_shared(&options.trace, options.seed);
    let specs: Vec<RunSpec> = protocols
        .iter()
        .map(|&p| {
            RunSpec::new(p)
                .options(options.clone())
                .trace(trace.clone())
        })
        .collect();
    let results = run_specs(specs, default_workers());
    let mut outcomes = BTreeMap::new();
    for (&p, outcome) in protocols.iter().zip(results) {
        outcomes.insert(p.label(), (p, outcome));
    }
    ComparisonRun { trace, outcomes }
}

/// Fig 15 — the analytical overhead comparison, with the paper's
/// parameters (`u` = 500 viewers/video, `u_c` = 5,000 channel users,
/// `u_t` = 25,000 category users, `m` = 1..14).
pub fn fig15() -> Vec<OverheadPoint> {
    fig15_series(14, 500.0, 5_000.0, 25_000.0)
}

/// One bar of Fig 16: normalized peer bandwidth percentiles per protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig16Bar {
    /// Protocol label.
    pub protocol: &'static str,
    /// 1st/50th/99th percentiles of per-node normalized peer bandwidth.
    pub percentiles: Percentiles,
}

/// Fig 16 — normalized peer bandwidth (1st/50th/99th percentiles) for
/// PA-VoD, SocialTube and NetTube.
pub fn fig16(run: &ComparisonRun) -> Vec<Fig16Bar> {
    [Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube]
        .iter()
        .filter_map(|p| {
            run.outcomes.get(p.label()).map(|(_, o)| Fig16Bar {
                protocol: p.label(),
                percentiles: o.metrics.peer_bandwidth_percentiles,
            })
        })
        .collect()
}

/// One bar of Fig 17: startup delay per protocol variant.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig17Bar {
    /// Protocol label.
    pub protocol: &'static str,
    /// Mean startup delay in milliseconds.
    pub mean_ms: f64,
    /// Median startup delay in milliseconds.
    pub median_ms: f64,
}

/// Fig 17 — startup delay with and without prefetching for SocialTube and
/// NetTube, plus PA-VoD.
pub fn fig17(run: &ComparisonRun) -> Vec<Fig17Bar> {
    [
        Protocol::PaVod,
        Protocol::SocialTube,
        Protocol::SocialTubeNoPrefetch,
        Protocol::NetTube,
        Protocol::NetTubeNoPrefetch,
    ]
    .iter()
    .filter_map(|p| {
        run.outcomes.get(p.label()).map(|(_, o)| Fig17Bar {
            protocol: p.label(),
            mean_ms: o.metrics.mean_startup_delay_ms,
            median_ms: o.metrics.startup_delay_percentiles.p50,
        })
    })
    .collect()
}

/// One curve of Fig 18: links maintained versus videos watched.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig18Curve {
    /// Protocol label.
    pub protocol: &'static str,
    /// `(videos_watched, average links)` samples.
    pub points: Vec<(u32, f64)>,
}

/// Fig 18 — overlay maintenance overhead over a session for SocialTube and
/// NetTube.
pub fn fig18(run: &ComparisonRun) -> Vec<Fig18Curve> {
    [Protocol::SocialTube, Protocol::NetTube]
        .iter()
        .filter_map(|p| {
            run.outcomes.get(p.label()).map(|(_, o)| Fig18Curve {
                protocol: p.label(),
                points: o.metrics.maintenance_curve.clone(),
            })
        })
        .collect()
}

/// Per-interest-community telemetry extracted from a recorded run's
/// dimensional metric slices — the community-level view of the paper's
/// quantities (cache effectiveness, search locality, server offload).
#[derive(Clone, Debug, PartialEq)]
pub struct CommunitySlice {
    /// Interest-community key (the community's channel id).
    pub community: u32,
    /// Playbacks attributed to this community (cache hits + misses).
    pub playbacks: u64,
    /// Session-cache hit rate over the community's playbacks (0 when it
    /// had none).
    pub cache_hit_rate: f64,
    /// Prefetch hit rate over the community's cache misses (0 when it had
    /// none).
    pub prefetch_hit_rate: f64,
    /// Mean overlay hops of the community's resolved searches.
    pub search_hops_mean: f64,
    /// Searches resolved inside the community structure (channel +
    /// category tiers).
    pub resolved_p2p: u64,
    /// Lookups that fell back to the server.
    pub resolved_server: u64,
    /// Videos the origin store actually served into this community.
    pub origin_serves: u64,
}

impl CommunitySlice {
    /// Share of this community's lookups the P2P tiers absorbed
    /// (`None` when the community resolved nothing).
    pub fn p2p_share(&self) -> Option<f64> {
        let total = self.resolved_p2p + self.resolved_server;
        (total > 0).then(|| self.resolved_p2p as f64 / total as f64)
    }
}

/// Extracts one [`CommunitySlice`] per interest community from a recorded
/// snapshot, ordered by descending playback count (ties by community id) —
/// the "which communities carry the run" view the campaign bench reports.
pub fn community_slices(snapshot: &MetricsSnapshot) -> Vec<CommunitySlice> {
    let mut slices: Vec<CommunitySlice> = snapshot
        .communities()
        .map(|(community, dim)| {
            let hits = dim.counter("cache_hit");
            let misses = dim.counter("cache_miss");
            let playbacks = hits + misses;
            let prefetch_hits = dim.counter("prefetch_hit");
            let hops = dim.histogram("search_hops");
            CommunitySlice {
                community,
                playbacks,
                cache_hit_rate: if playbacks > 0 {
                    hits as f64 / playbacks as f64
                } else {
                    0.0
                },
                prefetch_hit_rate: if misses > 0 {
                    prefetch_hits as f64 / misses as f64
                } else {
                    0.0
                },
                search_hops_mean: hops.map_or(0.0, |h| h.mean()),
                resolved_p2p: dim.counter("resolved_channel") + dim.counter("resolved_category"),
                resolved_server: dim.counter("resolved_server"),
                origin_serves: dim.counter("origin_serve"),
            }
        })
        .collect();
    slices.sort_by_key(|s| (std::cmp::Reverse(s.playbacks), s.community));
    slices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn tiny_run() -> ComparisonRun {
        run_comparison(
            &configs::smoke_test(),
            &[Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube],
        )
    }

    /// Steady-state run: the paper's orderings hold once community caches
    /// are warm (its experiments run 25 sessions per node).
    fn steady_run() -> ComparisonRun {
        run_comparison(
            &configs::smoke_test_long(),
            &[Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube],
        )
    }

    #[test]
    fn fig15_has_paper_shape() {
        let series = fig15();
        assert_eq!(series.len(), 14);
        // NetTube overtakes SocialTube within the plotted range.
        assert!(series[0].nettube < series[0].socialtube);
        assert!(series.last().unwrap().nettube > series.last().unwrap().socialtube);
    }

    #[test]
    fn fig16_orders_protocols_as_the_paper() {
        let run = steady_run();
        let bars = fig16(&run);
        assert_eq!(bars.len(), 3);
        let of = |label: &str| {
            bars.iter()
                .find(|b| b.protocol.starts_with(label))
                .expect("bar present")
                .percentiles
                .p50
        };
        let pavod = of("PA-VoD");
        let social = of("SocialTube");
        let nettube = of("NetTube");
        // SocialTube ≥ NetTube ≥ PA-VoD on median peer bandwidth.
        assert!(social >= nettube, "SocialTube {social} < NetTube {nettube}");
        assert!(nettube >= pavod, "NetTube {nettube} < PA-VoD {pavod}");
    }

    #[test]
    fn fig17_and_fig18_extract_series() {
        let run = tiny_run();
        let f17 = fig17(&run);
        assert_eq!(f17.len(), 3, "variants actually run");
        assert!(f17.iter().all(|b| b.mean_ms >= 0.0));
        let f18 = fig18(&run);
        assert_eq!(f18.len(), 2);
        assert!(f18.iter().all(|c| !c.points.is_empty()));
    }

    #[test]
    fn community_slices_extract_and_rank_recorded_dims() {
        let outcome = RunSpec::new(Protocol::SocialTube)
            .options(configs::smoke_test_long())
            .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
            .run();
        let snap = outcome.recording.expect("recording requested").snapshot;
        let slices = community_slices(&snap);
        assert!(!slices.is_empty(), "no community slices");
        // Descending by playbacks, ties broken by ascending community id.
        for w in slices.windows(2) {
            assert!(
                w[0].playbacks > w[1].playbacks
                    || (w[0].playbacks == w[1].playbacks && w[0].community < w[1].community),
                "slice order violated: {w:?}"
            );
        }
        let top = &slices[0];
        assert!(top.playbacks > 0);
        assert!((0.0..=1.0).contains(&top.cache_hit_rate));
        assert!((0.0..=1.0).contains(&top.prefetch_hit_rate));
        // SocialTube's point holds per community, not just globally: the
        // busiest community resolves most lookups inside the overlay.
        let share = top.p2p_share().expect("top community searched");
        assert!(share > 0.5, "top community leaned on the server: {share}");
    }

    #[test]
    fn outcome_lookup_panics_on_missing_protocol() {
        let run = tiny_run();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.outcome(Protocol::NetTubeNoPrefetch);
        }));
        assert!(result.is_err());
    }
}
