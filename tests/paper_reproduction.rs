//! Integration tests asserting the paper's headline results end to end:
//! trace properties (Section III) and the whole pipeline's determinism.
//! The analytical claims (Sections IV-B/C) are unit tests of
//! `socialtube::analysis`, and the Section V orderings of
//! `socialtube_experiments::figures`.

use socialtube_experiments::{configs, Protocol, RunSpec};
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
    assert!(interests.quantile(1.0) <= 18.0, "O5 fig13 max");
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
