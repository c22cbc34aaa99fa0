//! Regenerates every table and figure of the SocialTube paper.
//!
//! ```text
//! cargo run --release -p socialtube-bench --bin figures -- [TARGETS] \
//!     [--scale demo|figure|full] [--seed N]
//! ```
//!
//! Targets: `all` (default) or any name in [`TARGETS`] — `table1`,
//! `fig2`..`fig13`, `fig15`, `fig16a`..`fig18b`, `prefetch`, `timeline`
//! and the `ablate-*` studies. An unknown target is an error (exit 2)
//! before any work starts.
//!
//! CSV series land in `target/figures/`; summaries print to stdout with the
//! paper's qualitative expectation next to the measured value. Recorder
//! artifacts (metrics snapshots, Chrome traces) come from the `campaign`
//! bin.

use socialtube::analysis::prefetch_accuracy;
use socialtube::SocialTubeConfig;
use socialtube_bench::{usage_error, CsvWriter, Scale};
use socialtube_experiments::figures as xfig;
use socialtube_experiments::{configs, net_driver, Protocol, RunSpec};
use socialtube_trace::{analysis, generate, generate_shared, stats::Ecdf, Trace, TraceConfig};

const OUT_DIR: &str = "target/figures";

type NetRuns = [(Protocol, net_driver::NetRun)];

/// How a target is produced, which is also what it needs prepared: the
/// generated trace, the five-variant simulation, or the TCP deployments.
#[derive(Clone, Copy)]
enum Target {
    Plain(fn()),
    Trace(fn(&Trace)),
    /// A CDF over the trace: what it is of, and how to compute it.
    Cdf(&'static str, fn(&Trace) -> Ecdf),
    Sim(fn(&xfig::ComparisonRun)),
    Net(fn(&NetRuns)),
    Ablation(fn(Scale)),
}

/// Every target, in the order `all` runs them.
const TARGETS: &[(&str, Target)] = &[
    ("table1", Target::Plain(table1)),
    ("fig2", Target::Trace(fig2)),
    (
        "fig3",
        Target::Cdf(
            "per-channel daily view frequency",
            analysis::channel_view_frequency,
        ),
    ),
    (
        "fig4",
        Target::Cdf("subscribers per channel", analysis::subscriber_distribution),
    ),
    ("fig5", Target::Trace(fig5)),
    (
        "fig6",
        Target::Cdf("videos per channel", analysis::videos_per_channel),
    ),
    (
        "fig7",
        Target::Cdf("views per video", analysis::video_view_distribution),
    ),
    ("fig8", Target::Trace(fig8)),
    ("fig9", Target::Trace(fig9)),
    ("fig10", Target::Trace(fig10)),
    (
        "fig11",
        Target::Cdf("categories per channel", analysis::channel_interest_count),
    ),
    (
        "fig12",
        Target::Cdf(
            "user interest/subscription similarity",
            analysis::interest_similarity,
        ),
    ),
    (
        "fig13",
        Target::Cdf("interests per user", analysis::user_interest_count),
    ),
    ("fig15", Target::Plain(fig15)),
    ("fig16a", Target::Sim(fig16a)),
    ("fig16b", Target::Net(fig16b)),
    ("fig17a", Target::Sim(fig17a)),
    ("fig17b", Target::Net(fig17b)),
    ("fig18a", Target::Sim(fig18a)),
    ("fig18b", Target::Net(fig18b)),
    ("prefetch", Target::Plain(prefetch_table)),
    ("timeline", Target::Sim(timeline)),
    ("ablate-ttl", Target::Ablation(ablate_ttl)),
    ("ablate-links", Target::Ablation(ablate_links)),
    ("ablate-prefetch", Target::Ablation(ablate_prefetch)),
    ("ablate-cache", Target::Ablation(ablate_cache)),
    ("ablate-server", Target::Ablation(ablate_server)),
];

fn main() {
    let mut scale = Scale::Demo;
    let mut seed: u64 = 42;
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--seed needs an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| Scale::parse(&v))
                    .unwrap_or_else(|| usage_error("--scale needs one of demo|figure|full"));
            }
            _ => names.push(arg),
        }
    }
    if let Some(unknown) = names
        .iter()
        .find(|n| *n != "all" && TARGETS.iter().all(|(name, _)| name != n))
    {
        let known: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        usage_error(format!(
            "unknown target {unknown} (use all or one of: {})",
            known.join(", ")
        ));
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    let chosen: Vec<(&str, Target)> = TARGETS
        .iter()
        .filter(|(name, _)| all || names.iter().any(|n| n == name))
        .copied()
        .collect();
    let wants = |pred: fn(&Target) -> bool| chosen.iter().any(|(_, t)| pred(t));

    let trace = wants(|t| matches!(t, Target::Trace(_) | Target::Cdf(..))).then(|| {
        let config = match scale {
            Scale::Full => TraceConfig::paper(),
            _ => TraceConfig::default(),
        };
        println!(
            "# generating trace: {} users, {} channels, {} videos (seed {seed})",
            config.users, config.channels, config.videos
        );
        generate(&config, seed)
    });
    let sim_run = wants(|t| matches!(t, Target::Sim(_))).then(|| {
        let mut options = scale.sim_options();
        options.seed = seed;
        println!(
            "# simulating 5 protocol variants: {} nodes × {} sessions × {} videos",
            options.trace.users,
            options.workload.sessions_per_node,
            options.workload.videos_per_session
        );
        xfig::run_comparison(&options, &Protocol::ALL)
    });
    let net_runs = wants(|t| matches!(t, Target::Net(_))).then(|| run_net_all(scale, seed));

    for (name, target) in chosen {
        match target {
            Target::Plain(run) => run(),
            Target::Trace(run) => run(trace.as_ref().expect("trace generated")),
            Target::Cdf(what, compute) => cdf_figure(
                trace.as_ref().expect("trace generated"),
                name,
                what,
                compute,
            ),
            Target::Sim(run) => run(sim_run.as_ref().expect("sim run")),
            Target::Net(run) => run(net_runs.as_ref().expect("net runs")),
            Target::Ablation(run) => run(scale),
        }
    }
    println!("\nCSV series written to {OUT_DIR}/");
}

fn net_options(scale: Scale, seed: u64) -> net_driver::NetExperimentOptions {
    let mut options = match scale {
        Scale::Demo => net_driver::NetExperimentOptions::smoke_test(),
        _ => net_driver::NetExperimentOptions::planetlab_style(),
    };
    options.testbed.seed = seed;
    options
}

fn run_net_all(scale: Scale, seed: u64) -> Vec<(Protocol, net_driver::NetRun)> {
    let options = net_options(scale, seed);
    println!(
        "# deploying TCP testbed ({} peers, {} sessions × {} videos) for 5 protocol variants",
        options.trace.users, options.testbed.sessions_per_node, options.testbed.videos_per_session
    );
    // One shared trace for all five variants (the paper's methodology);
    // each deployment borrows the same Arc'd catalog instead of
    // regenerating it.
    let shared = generate_shared(&options.trace, seed);
    Protocol::ALL
        .iter()
        .map(|p| {
            println!("#   running {p} over real sockets ...");
            (*p, net_driver::run_net_on(&shared, *p, &options))
        })
        .collect()
}

fn section(title: &str) {
    println!("\n=== {title} ===");
}

// ------------------------------------------------------------- Table I

fn table1() {
    section("Table I — experiment default parameters");
    let o = configs::table1();
    let rows: Vec<(&str, String)> = vec![
        ("Number of nodes", o.trace.users.to_string()),
        ("Number of videos", o.trace.videos.to_string()),
        ("Number of channels", o.trace.channels.to_string()),
        ("Number of categories", o.trace.categories.to_string()),
        (
            "Sessions per node",
            o.workload.sessions_per_node.to_string(),
        ),
        (
            "Videos per session",
            o.workload.videos_per_session.to_string(),
        ),
        (
            "Mean off time (s)",
            o.workload.mean_off.as_secs_f64().to_string(),
        ),
        ("Video bitrate (kbps)", o.trace.bitrate_kbps.to_string()),
        (
            "Server bandwidth (Mbps)",
            (o.network.server_bandwidth_bps / 1_000_000).to_string(),
        ),
        ("Inner links N_l", o.socialtube.inner_links.to_string()),
        ("Inter links N_h", o.socialtube.inter_links.to_string()),
        ("TTL", o.socialtube.ttl.to_string()),
        (
            "Probe interval (min)",
            (o.socialtube.probe_interval.as_secs_f64() / 60.0).to_string(),
        ),
    ];
    let mut csv = CsvWriter::create(OUT_DIR, "table1").expect("create csv");
    csv.header(&["parameter", "value"]).expect("write");
    for (k, v) in &rows {
        println!("  {k:<28} {v}");
        csv.row_strs(&[k.to_string(), v.clone()]).expect("write");
    }
    csv.finish().expect("flush");
}

// --------------------------------------------------- trace figures 2–13

fn fig2(trace: &Trace) {
    section("Fig 2 — videos added over time (paper: clear growth)");
    let growth = analysis::video_growth(trace);
    let mut csv = CsvWriter::create(OUT_DIR, "fig2").expect("create csv");
    csv.header(&["month", "videos_added"]).expect("write");
    for (m, c) in &growth {
        csv.row(&[*m as usize, *c]).expect("write");
    }
    csv.finish().expect("flush");
    let half = growth.len() / 2;
    let first: usize = growth[..half].iter().map(|(_, c)| c).sum();
    let second: usize = growth[half..].iter().map(|(_, c)| c).sum();
    println!("  first half uploads:  {first}");
    println!(
        "  second half uploads: {second}  (paper expects acceleration: {})",
        verdict(second > first)
    );
}

fn cdf_figure(trace: &Trace, name: &str, what: &str, compute: fn(&Trace) -> Ecdf) {
    section(&format!("{name} — CDF of {what}"));
    let cdf = compute(trace);
    let mut csv = CsvWriter::create(OUT_DIR, name).expect("create csv");
    csv.header(&["x", "cdf"]).expect("write");
    for (x, f) in cdf.log_curve(64) {
        csv.row(&[x, f]).expect("write");
    }
    csv.finish().expect("flush");
    println!(
        "  p25={:.2}  p50={:.2}  p75={:.2}  p99={:.2}",
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.99)
    );
}

fn fig5(trace: &Trace) {
    section("Fig 5 — channel views vs subscriptions (paper: strong positive correlation)");
    let (points, r) = analysis::views_vs_subscriptions(trace);
    let mut csv = CsvWriter::create(OUT_DIR, "fig5").expect("create csv");
    csv.header(&["subscribers", "total_views"]).expect("write");
    for (s, v) in &points {
        csv.row(&[*s, *v]).expect("write");
    }
    csv.finish().expect("flush");
    let r = r.unwrap_or(0.0);
    println!(
        "  Pearson r = {r:.3}  (paper expects strongly positive: {})",
        verdict(r > 0.5)
    );
}

fn fig8(trace: &Trace) {
    section("Fig 8 — favorites per video (paper: favorites↔views correlation > 0.9)");
    let (cdf, r) = analysis::favorites_distribution(trace);
    let mut csv = CsvWriter::create(OUT_DIR, "fig8").expect("create csv");
    csv.header(&["favorites", "cdf"]).expect("write");
    for (x, f) in cdf.log_curve(64) {
        csv.row(&[x, f]).expect("write");
    }
    csv.finish().expect("flush");
    let r = r.unwrap_or(0.0);
    println!(
        "  p20={:.0}  p75={:.0}  p90={:.0};  Pearson(views, favorites) = {r:.3} {}",
        cdf.quantile(0.20),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
        verdict(r > 0.9)
    );
}

fn fig9(trace: &Trace) {
    section("Fig 9 — within-channel popularity (paper: ≈ Zipf, s = 1)");
    let pop = analysis::within_channel_popularity(trace);
    let mut csv = CsvWriter::create(OUT_DIR, "fig9").expect("create csv");
    csv.header(&["rank", "high", "medium", "low"])
        .expect("write");
    let n = pop.high.len().max(pop.medium.len()).max(pop.low.len());
    for k in 0..n {
        csv.row_strs(&[
            (k + 1).to_string(),
            pop.high.get(k).map_or(String::new(), u64::to_string),
            pop.medium.get(k).map_or(String::new(), u64::to_string),
            pop.low.get(k).map_or(String::new(), u64::to_string),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
    let s = pop.zipf_exponent_high.unwrap_or(0.0);
    println!(
        "  fitted Zipf exponent of the most popular channel: s = {s:.3} {}",
        verdict((s - 1.0).abs() < 0.25)
    );
}

fn fig10(trace: &Trace) {
    section("Fig 10 — channel graph by shared subscribers (paper: distinct interest clusters)");
    let threshold = (trace.graph.user_count() / 400).max(2);
    let clustering = analysis::channel_clustering(trace, threshold);
    let mut csv = CsvWriter::create(OUT_DIR, "fig10").expect("create csv");
    csv.header(&["channel_a", "channel_b", "shared_subscribers"])
        .expect("write");
    for e in &clustering.edges {
        csv.row_strs(&[e.a.to_string(), e.b.to_string(), e.shared.to_string()])
            .expect("write");
    }
    csv.finish().expect("flush");
    println!(
        "  {} edges at threshold {threshold}; intra-category fraction = {:.2} {}",
        clustering.edges.len(),
        clustering.intra_category_fraction,
        verdict(clustering.intra_category_fraction > 0.5)
    );
}

// --------------------------------------------------------- analytical

fn fig15() {
    section("Fig 15 — analytical maintenance overhead (paper: NetTube linear, SocialTube flat)");
    let series = xfig::fig15();
    let mut csv = CsvWriter::create(OUT_DIR, "fig15").expect("create csv");
    csv.header(&["videos_watched", "socialtube_links", "nettube_links"])
        .expect("write");
    for p in &series {
        csv.row(&[f64::from(p.videos_watched), p.socialtube, p.nettube])
            .expect("write");
    }
    csv.finish().expect("flush");
    let cross = series.iter().find(|p| p.nettube > p.socialtube);
    println!(
        "  SocialTube constant at {:.1} links; NetTube overtakes at m = {}",
        series[0].socialtube,
        cross.map_or(0, |p| p.videos_watched)
    );
}

fn prefetch_table() {
    section("Prefetch accuracy (Section IV-B; paper: 26.2% at m=1, ~54.6% at m=3-4)");
    let mut csv = CsvWriter::create(OUT_DIR, "prefetch_accuracy").expect("create csv");
    csv.header(&["m", "accuracy_25_video_channel"])
        .expect("write");
    for m in 1..=6 {
        let acc = prefetch_accuracy(25, m);
        csv.row(&[m as f64, acc]).expect("write");
        println!("  m={m}: {:.1}%", acc * 100.0);
    }
    csv.finish().expect("flush");
    let p1 = prefetch_accuracy(25, 1);
    let p4 = prefetch_accuracy(25, 4);
    println!(
        "  paper-vs-measured: m=1 {:.1}% vs 26.2% {}; m=4 {:.1}% vs 54.6% {}",
        p1 * 100.0,
        verdict((p1 - 0.262).abs() < 0.005),
        p4 * 100.0,
        verdict((p4 - 0.546).abs() < 0.01)
    );
}

// -------------------------------------------------- evaluation figures

fn fig16a(run: &xfig::ComparisonRun) {
    section(
        "Fig 16a — normalized peer bandwidth, simulation (paper: SocialTube > NetTube > PA-VoD)",
    );
    write_fig16(xfig::fig16(run), "fig16a");
}

fn fig16b(runs: &NetRuns) {
    section("Fig 16b — normalized peer bandwidth, TCP testbed");
    let bars: Vec<xfig::Fig16Bar> = runs
        .iter()
        .filter(|(p, _)| {
            matches!(
                p,
                Protocol::PaVod | Protocol::SocialTube | Protocol::NetTube
            )
        })
        .map(|(p, run)| xfig::Fig16Bar {
            protocol: p.label(),
            percentiles: run.metrics.peer_bandwidth_percentiles,
        })
        .collect();
    write_fig16(bars, "fig16b");
}

fn write_fig16(bars: Vec<xfig::Fig16Bar>, name: &str) {
    let mut csv = CsvWriter::create(OUT_DIR, name).expect("create csv");
    csv.header(&["protocol", "p1", "p50", "p99"])
        .expect("write");
    for bar in &bars {
        let p = bar.percentiles;
        println!(
            "  {:<22} p1={:.3}  p50={:.3}  p99={:.3}",
            bar.protocol, p.p1, p.p50, p.p99
        );
        csv.row_strs(&[
            bar.protocol.to_string(),
            p.p1.to_string(),
            p.p50.to_string(),
            p.p99.to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
    let median = |label: &str| {
        bars.iter()
            .find(|b| b.protocol.starts_with(label))
            .map_or(0.0, |b| b.percentiles.p50)
    };
    println!(
        "  ordering SocialTube ≥ NetTube ≥ PA-VoD: {}",
        verdict(median("SocialTube") >= median("NetTube") && median("NetTube") >= median("PA-VoD"))
    );
}

fn fig17a(run: &xfig::ComparisonRun) {
    section("Fig 17a — startup delay, simulation (paper: SocialTube < NetTube < PA-VoD; PF helps)");
    write_fig17(xfig::fig17(run), "fig17a");
}

fn fig17b(runs: &NetRuns) {
    section("Fig 17b — startup delay, TCP testbed");
    let bars: Vec<xfig::Fig17Bar> = runs
        .iter()
        .map(|(p, run)| xfig::Fig17Bar {
            protocol: p.label(),
            mean_ms: run.metrics.mean_startup_delay_ms,
            median_ms: run.metrics.startup_delay_percentiles.p50,
        })
        .collect();
    write_fig17(bars, "fig17b");
}

fn write_fig17(bars: Vec<xfig::Fig17Bar>, name: &str) {
    let mut csv = CsvWriter::create(OUT_DIR, name).expect("create csv");
    csv.header(&["protocol", "mean_ms", "median_ms"])
        .expect("write");
    for bar in &bars {
        println!(
            "  {:<22} mean={:>10.1} ms   median={:>10.1} ms",
            bar.protocol, bar.mean_ms, bar.median_ms
        );
        csv.row_strs(&[
            bar.protocol.to_string(),
            bar.mean_ms.to_string(),
            bar.median_ms.to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
    let mean = |label: &str| {
        bars.iter()
            .find(|b| b.protocol == label)
            .map_or(f64::NAN, |b| b.mean_ms)
    };
    let st = mean("SocialTube w/ PF");
    let nt = mean("NetTube w/ PF");
    let pv = mean("PA-VoD");
    let median = |label: &str| {
        bars.iter()
            .find(|b| b.protocol == label)
            .map_or(f64::NAN, |b| b.median_ms)
    };
    let st_med = median("SocialTube w/ PF");
    let st_no_med = median("SocialTube w/o PF");
    if st.is_finite() && nt.is_finite() && pv.is_finite() {
        println!(
            "  SocialTube < NetTube: {}   NetTube < PA-VoD: {}   prefetch helps SocialTube (median): {}",
            verdict(st < nt),
            verdict(nt < pv),
            verdict(!st_no_med.is_finite() || st_med <= st_no_med)
        );
    }
}

fn fig18a(run: &xfig::ComparisonRun) {
    section(
        "Fig 18a — maintenance overhead, simulation (paper: SocialTube flat ~15, NetTube grows)",
    );
    write_fig18(xfig::fig18(run), "fig18a");
}

fn fig18b(runs: &NetRuns) {
    section("Fig 18b — maintenance overhead, TCP testbed");
    let curves: Vec<xfig::Fig18Curve> = runs
        .iter()
        .filter(|(p, _)| matches!(p, Protocol::SocialTube | Protocol::NetTube))
        .map(|(p, run)| xfig::Fig18Curve {
            protocol: p.label(),
            points: run.metrics.maintenance_curve.clone(),
        })
        .collect();
    write_fig18(curves, "fig18b");
}

fn write_fig18(curves: Vec<xfig::Fig18Curve>, name: &str) {
    let bound = 15.0; // N_l + N_h with the paper's defaults
    let mut csv = CsvWriter::create(OUT_DIR, name).expect("create csv");
    csv.header(&["protocol", "videos_watched", "avg_links"])
        .expect("write");
    let mut finals = Vec::new();
    for curve in &curves {
        for (k, links) in &curve.points {
            csv.row_strs(&[curve.protocol.to_string(), k.to_string(), links.to_string()])
                .expect("write");
        }
        if let Some((k, links)) = curve.points.last() {
            println!(
                "  {:<22} after {k} videos: {links:.1} links (start: {:.1})",
                curve.protocol,
                curve.points.first().map_or(0.0, |(_, l)| *l)
            );
            finals.push((curve.protocol, *links));
        }
    }
    csv.finish().expect("flush");
    let last = |label: &str| {
        finals
            .iter()
            .find(|(p, _)| p.starts_with(label))
            .map_or(0.0, |(_, l)| *l)
    };
    let growth = |label: &str| {
        curves
            .iter()
            .find(|c| c.protocol.starts_with(label))
            .and_then(|c| Some((c.points.first()?.1, c.points.last()?.1)))
            .map_or(0.0, |(a, b)| b - a)
    };
    // The paper's twin claims: SocialTube stays bounded by N_l + N_h while
    // NetTube keeps accumulating links as videos are watched (Fig 15's
    // crossover needs long histories; short runs sit in NetTube's cheap
    // regime, which is itself the paper's observation for small m).
    println!(
        "  SocialTube bounded by N_l+N_h: {}   NetTube grows with videos watched: {}",
        verdict(last("SocialTube") <= bound + 1e-9),
        verdict(growth("NetTube") > 0.0)
    );
    if last("NetTube") > last("SocialTube") {
        println!("  crossover reached: NetTube ends above SocialTube [matches paper]");
    } else {
        println!(
            "  crossover not reached within this history length (paper Fig 15: NetTube is cheaper for small m)"
        );
    }
}

/// Extension figure: per-minute peer vs server traffic, showing the P2P
/// overlays relieving the origin as community caches warm.
fn timeline(run: &xfig::ComparisonRun) {
    section("Timeline — per-minute traffic split (extension; caches warming over the run)");
    let mut csv = CsvWriter::create(OUT_DIR, "timeline").expect("create csv");
    csv.header(&["protocol", "minute", "peer_mbit", "server_mbit"])
        .expect("write");
    for p in [Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube] {
        let Some((_, o)) = run.outcomes.get(p.label()) else {
            continue;
        };
        let series = &o.metrics.traffic_timeline;
        for (minute, peer, server) in series {
            csv.row_strs(&[
                p.label().to_string(),
                minute.to_string(),
                (peer / 1_000_000).to_string(),
                (server / 1_000_000).to_string(),
            ])
            .expect("write");
        }
        // Print the first and last quarter's peer share.
        let quarter = (series.len() / 4).max(1);
        let share = |window: &[(u64, u64, u64)]| {
            let peer: u64 = window.iter().map(|(_, p, _)| p).sum();
            let server: u64 = window.iter().map(|(_, _, s)| s).sum();
            if peer + server == 0 {
                0.0
            } else {
                peer as f64 / (peer + server) as f64
            }
        };
        if !series.is_empty() {
            println!(
                "  {:<22} peer share: first quarter {:.2} → last quarter {:.2}",
                p.label(),
                share(&series[..quarter]),
                share(&series[series.len() - quarter..])
            );
        }
    }
    csv.finish().expect("flush");
}

// ------------------------------------------------------------ ablations

fn ablate_ttl(scale: Scale) {
    section("Ablation — query TTL vs peer bandwidth and delay (design choice of Section IV-A)");
    let mut csv = CsvWriter::create(OUT_DIR, "ablate_ttl").expect("create csv");
    csv.header(&[
        "ttl",
        "mean_peer_bandwidth",
        "mean_startup_ms",
        "server_fallbacks",
    ])
    .expect("write");
    for ttl in [1u8, 2, 3] {
        let mut options = scale.sim_options();
        options.socialtube = SocialTubeConfig {
            ttl,
            ..options.socialtube
        };
        let out = RunSpec::new(Protocol::SocialTube).options(options).run();
        println!(
            "  TTL={ttl}: peer-bw={:.3}  delay={:.0} ms  fallbacks={}",
            out.metrics.mean_peer_bandwidth,
            out.metrics.mean_startup_delay_ms,
            out.metrics.server_fallbacks
        );
        csv.row_strs(&[
            ttl.to_string(),
            out.metrics.mean_peer_bandwidth.to_string(),
            out.metrics.mean_startup_delay_ms.to_string(),
            out.metrics.server_fallbacks.to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
}

fn ablate_links(scale: Scale) {
    section("Ablation — link budgets N_l/N_h (the paper's stated future work)");
    let mut csv = CsvWriter::create(OUT_DIR, "ablate_links").expect("create csv");
    csv.header(&["n_l", "n_h", "mean_peer_bandwidth", "steady_links"])
        .expect("write");
    for (n_l, n_h) in [(2, 4), (5, 10), (10, 20)] {
        let mut options = scale.sim_options();
        options.socialtube = SocialTubeConfig {
            inner_links: n_l,
            inter_links: n_h,
            ..options.socialtube
        };
        let out = RunSpec::new(Protocol::SocialTube).options(options).run();
        println!(
            "  N_l={n_l:<2} N_h={n_h:<2}: peer-bw={:.3}  links={:.1}",
            out.metrics.mean_peer_bandwidth,
            out.metrics.steady_state_links()
        );
        csv.row_strs(&[
            n_l.to_string(),
            n_h.to_string(),
            out.metrics.mean_peer_bandwidth.to_string(),
            out.metrics.steady_state_links().to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
}

fn ablate_prefetch(scale: Scale) {
    section("Ablation — prefetch budget M (Section IV-B)");
    let mut csv = CsvWriter::create(OUT_DIR, "ablate_prefetch").expect("create csv");
    csv.header(&[
        "m",
        "prefetch_hits",
        "mean_startup_ms",
        "median_startup_ms",
        "prefetch_bits",
    ])
    .expect("write");
    for m in [0usize, 1, 3, 5] {
        let mut options = scale.sim_options();
        options.socialtube = SocialTubeConfig {
            prefetch: m > 0,
            prefetch_count: m.max(1),
            ..options.socialtube
        };
        let out = RunSpec::new(Protocol::SocialTube).options(options).run();
        println!(
            "  M={m}: instant-starts={:<5} mean={:.0} ms  median={:.0} ms  prefetch-traffic={} Mbit",
            out.metrics.prefetch_hits,
            out.metrics.mean_startup_delay_ms,
            out.metrics.startup_delay_percentiles.p50,
            out.metrics.prefetch_bits / 1_000_000
        );
        csv.row_strs(&[
            m.to_string(),
            out.metrics.prefetch_hits.to_string(),
            out.metrics.mean_startup_delay_ms.to_string(),
            out.metrics.startup_delay_percentiles.p50.to_string(),
            out.metrics.prefetch_bits.to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
}

fn ablate_cache(scale: Scale) {
    section("Ablation — cache capacity (paper assumes unbounded: short videos are cheap to keep)");
    let mut csv = CsvWriter::create(OUT_DIR, "ablate_cache").expect("create csv");
    csv.header(&[
        "capacity",
        "mean_peer_bandwidth",
        "cache_hits",
        "server_fallbacks",
    ])
    .expect("write");
    for cap in [Some(5usize), Some(20), Some(80), None] {
        let mut options = scale.sim_options();
        options.socialtube = SocialTubeConfig {
            cache_capacity: cap,
            ..options.socialtube
        };
        let out = RunSpec::new(Protocol::SocialTube).options(options).run();
        let label = cap.map_or("unbounded".to_string(), |c| c.to_string());
        println!(
            "  cache={label:<9}: peer-bw={:.3}  cache-hits={:<5} fallbacks={}",
            out.metrics.mean_peer_bandwidth, out.metrics.cache_hits, out.metrics.server_fallbacks
        );
        csv.row_strs(&[
            label,
            out.metrics.mean_peer_bandwidth.to_string(),
            out.metrics.cache_hits.to_string(),
            out.metrics.server_fallbacks.to_string(),
        ])
        .expect("write");
    }
    csv.finish().expect("flush");
}

/// Scalability sweep (observation O1): shrink the server pipe and watch the
/// client-server-dependent system collapse while the community overlay
/// holds its service level.
fn ablate_server(scale: Scale) {
    section("Ablation — server bandwidth sweep (O1: P2P robustness to server scarcity)");
    let mut csv = CsvWriter::create(OUT_DIR, "ablate_server").expect("create csv");
    csv.header(&[
        "server_fraction",
        "protocol",
        "median_startup_ms",
        "mean_peer_bandwidth",
    ])
    .expect("write");
    let base = scale.sim_options();
    for fraction in [1.0f64, 0.5, 0.25] {
        for protocol in [Protocol::SocialTube, Protocol::PaVod] {
            let mut options = base.clone();
            options.network.server_bandwidth_bps =
                (base.network.server_bandwidth_bps as f64 * fraction) as u64;
            let out = RunSpec::new(protocol).options(options).run();
            println!(
                "  server ×{fraction:<4} {:<18} median-delay={:>9.0} ms  peer-bw={:.3}",
                protocol.label(),
                out.metrics.startup_delay_percentiles.p50,
                out.metrics.mean_peer_bandwidth
            );
            csv.row_strs(&[
                fraction.to_string(),
                protocol.label().to_string(),
                out.metrics.startup_delay_percentiles.p50.to_string(),
                out.metrics.mean_peer_bandwidth.to_string(),
            ])
            .expect("write");
        }
    }
    csv.finish().expect("flush");
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "[matches paper]"
    } else {
        "[DIVERGES]"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--seed` must reach the injected link latencies, not only the trace.
    #[test]
    fn seed_reaches_the_testbed_latencies() {
        let delay = |seed| {
            let latency = net_options(Scale::Demo, seed).testbed.latency_model();
            (latency.delay(0, 1), latency.server_delay(0))
        };
        assert_eq!(delay(7), delay(7));
        assert_ne!(delay(7), delay(42));
    }
}
