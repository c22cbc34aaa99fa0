//! Integration tests asserting the paper's headline results end to end:
//! trace properties (Section III), the analytical claims (Sections IV-B/C),
//! and the comparative evaluation (Section V) under the simulator.

use socialtube::analysis::{nettube_overhead, prefetch_accuracy, socialtube_overhead};
use socialtube_experiments::figures::sim_claims;
use socialtube_experiments::{configs, Campaign, Protocol, RunSpec};
use socialtube_trace::{analysis, generate, TraceConfig};

/// Section III: every observation O1–O5 holds on the synthetic trace.
#[test]
fn trace_reproduces_section_3_observations() {
    let trace = generate(&TraceConfig::default(), 42);

    // O1 — Fig 2: uploads accelerate.
    let growth = analysis::video_growth(&trace);
    let half = growth.len() / 2;
    let first: usize = growth[..half].iter().map(|(_, c)| c).sum();
    let second: usize = growth[half..].iter().map(|(_, c)| c).sum();
    assert!(second > 2 * first, "O1: {first} then {second}");

    // O2 — Figs 3-5: heavy-tailed channel popularity correlated with
    // subscriptions.
    let freq = analysis::channel_view_frequency(&trace);
    assert!(
        freq.quantile(0.99) > 10.0 * freq.quantile(0.5).max(1.0),
        "O2 fig3"
    );
    let (_, r) = analysis::views_vs_subscriptions(&trace);
    assert!(r.expect("defined") > 0.5, "O2 fig5");

    // O3 — Figs 7-9: skewed video popularity, Zipf within channels.
    let views = analysis::video_view_distribution(&trace);
    assert!(views.quantile(0.9) > 5.0 * views.quantile(0.5), "O3 fig7");
    let (_, fav_r) = analysis::favorites_distribution(&trace);
    assert!(fav_r.expect("defined") > 0.9, "O3 fig8");
    let pop = analysis::within_channel_popularity(&trace);
    let s = pop.zipf_exponent_high.expect("fit");
    assert!((s - 1.0).abs() < 0.25, "O3 fig9: s={s}");

    // O4 — Fig 10: channels cluster within categories — strongly-connected
    // pairs share a category far more often than arbitrary channel pairs.
    let clustering = analysis::channel_clustering(&trace, 25);
    assert!(!clustering.edges.is_empty(), "O4: no edges");
    assert!(
        clustering.lift() > 1.5,
        "O4 fig10: intra {} vs baseline {}",
        clustering.intra_category_fraction,
        clustering.baseline_fraction
    );

    // O5 — Figs 11-13: focused channels and users, aligned interests.
    let chan_cats = analysis::channel_interest_count(&trace);
    assert!(chan_cats.quantile(1.0) <= 4.0, "O5 fig11");
    let similarity = analysis::interest_similarity(&trace);
    assert!(similarity.quantile(0.5) >= 0.5, "O5 fig12");
    let interests = analysis::user_interest_count(&trace);
    assert!(interests.fraction_at_or_below(9.9) > 0.5, "O5 fig13");
    assert!(interests.quantile(1.0) <= 18.0, "O5 fig13 max");
}

/// Sections IV-B and IV-C: the closed-form numbers the paper states.
#[test]
fn analytical_claims_match_paper() {
    // Prefetch accuracy in a 25-video channel (Section IV-B).
    assert!((prefetch_accuracy(25, 1) - 0.262).abs() < 0.005);
    assert!((prefetch_accuracy(25, 4) - 0.546).abs() < 0.01);

    // Fig 15: SocialTube constant, NetTube linear, crossover within a
    // session's worth of videos.
    let st = socialtube_overhead(5_000.0, 25_000.0);
    assert!(nettube_overhead(1.0, 500.0) < st, "NetTube cheaper at m=1");
    assert!(nettube_overhead(10.0, 500.0) > st, "NetTube dearer at m=10");
}

/// Section V: the comparative evaluation's qualitative results under churn.
/// One shared trace and workload, five protocol variants — the paper's
/// methodology at test scale. `figures::claims` states the eight orderings
/// (Figs 16–18 and the Section IV-A tracker state); this is their one
/// tier-1 home.
#[test]
fn evaluation_reproduces_section_5_orderings() {
    let options = configs::smoke_test_long();
    let report = Campaign::new(options.clone()).run();
    let claims = sim_claims(&report, options.seed, &options.socialtube);
    assert_eq!(claims.len(), 8);
    for claim in &claims {
        assert_eq!(claim.held, Some(true), "{}", claim.line());
    }
    // The prefetch claim is not vacuous: prefetched first chunks were used.
    let socialtube = report.outcome(Protocol::SocialTube, options.seed);
    assert!(socialtube.expect("ran").metrics.prefetch_hits > 0);
}

/// The whole pipeline is deterministic: same seed, same metrics.
#[test]
fn end_to_end_determinism() {
    let options = configs::smoke_test();
    let a = RunSpec::new(Protocol::SocialTube)
        .options(options.clone())
        .run();
    let b = RunSpec::new(Protocol::SocialTube).options(options).run();
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.events, b.events);
}
