//! The evaluation layer: every target of the `figures` bin is one function
//! here returning a plain [`Table`].
//!
//! Figs 16–18 and the traffic timeline read a [`Replicate`] — the metrics
//! of the variants that ran over one shared trace, which the simulator
//! ([`CampaignReport::replicate`](crate::CampaignReport::replicate)) and
//! the TCP testbed ([`NetRun::metrics`](crate::NetRun)) both produce — so
//! one extractor serves both platforms. [`claims`] is the only place that
//! decides whether a replicate "matches the paper": the eight Section V
//! orderings the tests, the bin's verdict lines and the examples all read.

use std::fmt::{self, Display};

use socialtube::analysis::{fig15_series, prefetch_accuracy};
use socialtube::SocialTubeConfig;
use socialtube_obs::MetricsSnapshot;
use socialtube_trace::stats::Ecdf;
use socialtube_trace::{analysis, Trace};

use crate::campaign::CampaignReport;
use crate::configs::{self, ExperimentOptions};
use crate::driver::RunSpec;
use crate::metrics::MetricsSummary;
use crate::Protocol;

/// One figure or table. Each value is stated once, in a row; the rows are
/// the CSV file, and [`Display`] prints them for a result table.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Table {
    /// File stem of the CSV file.
    pub file: String,
    /// Section heading.
    pub title: String,
    /// CSV column names.
    pub header: Vec<&'static str>,
    /// CSV rows, one formatted cell per column.
    pub rows: Vec<Vec<String>>,
    /// Whether stdout shows the rows: a result table's few rows are its
    /// findings, while a series is a curve left to the CSV file.
    pub result: bool,
    /// What no row says — verdict lines, paper-versus-measured lines, the
    /// summary of a series — printed after the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// A series until its builder sets `result`.
    fn new(file: impl Into<String>, title: impl Into<String>, header: &[&'static str]) -> Table {
        Table {
            file: file.into(),
            title: title.into(),
            header: header.to_vec(),
            ..Table::default()
        }
    }
}

/// The `=== title ===` heading; for a result table the header and every
/// row in aligned columns, non-integer numbers at 3 decimals; then the
/// notes. No trailing newline.
impl Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "=== {} ===", self.title)?;
        if self.result {
            let rounded = |cell: &String| match cell.parse::<f64>() {
                Ok(x) if x.fract() != 0.0 => format!("{x:.3}"),
                _ => cell.clone(),
            };
            let header: Vec<String> = self.header.iter().map(|h| h.to_string()).collect();
            let lines: Vec<Vec<String>> = std::iter::once(&header)
                .chain(&self.rows)
                .map(|line| line.iter().map(rounded).collect())
                .collect();
            let width = |column: usize| {
                let cells = lines.iter().filter_map(|line| line.get(column));
                cells.map(|cell| cell.chars().count()).max().unwrap_or(0)
            };
            let widths: Vec<usize> = (0..self.header.len()).map(width).collect();
            for line in &lines {
                let padded: Vec<String> = line
                    .iter()
                    .zip(&widths)
                    .map(|(cell, width)| format!("{cell:<width$}"))
                    .collect();
                write!(f, "\n  {}", padded.join("  ").trim_end())?;
            }
        }
        for note in &self.notes {
            write!(f, "\n  {note}")?;
        }
        Ok(())
    }
}

/// Formats one row of heterogeneous cells.
fn cells<const N: usize>(values: [&dyn Display; N]) -> Vec<String> {
    values.iter().map(|v| v.to_string()).collect()
}

/// The tag a paper-versus-measured line ends with.
fn verdict(held: bool) -> &'static str {
    if held {
        "[matches paper]"
    } else {
        "[DIVERGES]"
    }
}

/// Table I — the paper's default experiment parameters.
pub fn table1() -> Table {
    let o = configs::table1();
    let rows: [(&str, &dyn Display); 13] = [
        ("Number of nodes", &o.trace.users),
        ("Number of videos", &o.trace.videos),
        ("Number of channels", &o.trace.channels),
        ("Number of categories", &o.trace.categories),
        ("Sessions per node", &o.workload.sessions_per_node),
        ("Videos per session", &o.workload.videos_per_session),
        ("Mean off time (s)", &o.workload.mean_off.as_secs_f64()),
        ("Video bitrate (kbps)", &o.trace.bitrate_kbps),
        (
            "Server bandwidth (Mbps)",
            &(o.network.server_bandwidth_bps / 1_000_000),
        ),
        ("Inner links N_l", &o.socialtube.inner_links),
        ("Inter links N_h", &o.socialtube.inter_links),
        ("TTL", &o.socialtube.ttl),
        (
            "Probe interval (min)",
            &(o.socialtube.probe_interval.as_secs_f64() / 60.0),
        ),
    ];
    let mut t = Table::new(
        "table1",
        "Table I — experiment default parameters",
        &["parameter", "value"],
    );
    t.result = true;
    t.rows = rows
        .iter()
        .map(|(name, value)| cells([name, *value]))
        .collect();
    t
}

/// Fig 2 — videos added per month.
pub fn fig2(trace: &Trace) -> Table {
    let growth = analysis::video_growth(trace);
    let mut t = Table::new(
        "fig2",
        "Fig 2 — videos added over time (paper: clear growth)",
        &["month", "videos_added"],
    );
    t.rows = growth.iter().map(|(m, c)| cells([m, c])).collect();
    let (first, second) = growth.split_at(growth.len() / 2);
    let uploads = |half: &[(u32, usize)]| half.iter().map(|(_, c)| c).sum::<usize>();
    t.notes = vec![
        format!("first half uploads:  {}", uploads(first)),
        format!(
            "second half uploads: {}  (paper expects acceleration: {})",
            uploads(second),
            verdict(uploads(second) > uploads(first))
        ),
    ];
    t
}

/// The CDF of one trace quantity: `log_curve` as the series, quartiles
/// and the 99th percentile as the summary.
fn cdf(name: &str, what: &str, cdf: &Ecdf) -> Table {
    let mut t = Table::new(name, format!("{name} — CDF of {what}"), &["x", "cdf"]);
    t.rows = curve_rows(cdf);
    t.notes.push(format!(
        "p25={:.2}  p50={:.2}  p75={:.2}  p99={:.2}",
        cdf.quantile(0.25),
        cdf.quantile(0.50),
        cdf.quantile(0.75),
        cdf.quantile(0.99)
    ));
    t
}

fn curve_rows(cdf: &Ecdf) -> Vec<Vec<String>> {
    let curve = cdf.log_curve(64);
    curve.iter().map(|(x, f)| cells([x, f])).collect()
}

/// Fig 3 — CDF of per-channel daily view frequency.
pub fn fig3(trace: &Trace) -> Table {
    let views = analysis::channel_view_frequency(trace);
    cdf("fig3", "per-channel daily view frequency", &views)
}

/// Fig 4 — CDF of subscribers per channel.
pub fn fig4(trace: &Trace) -> Table {
    let subscribers = analysis::subscriber_distribution(trace);
    cdf("fig4", "subscribers per channel", &subscribers)
}

/// Fig 6 — CDF of videos per channel.
pub fn fig6(trace: &Trace) -> Table {
    let videos = analysis::videos_per_channel(trace);
    cdf("fig6", "videos per channel", &videos)
}

/// Fig 7 — CDF of views per video.
pub fn fig7(trace: &Trace) -> Table {
    let views = analysis::video_view_distribution(trace);
    cdf("fig7", "views per video", &views)
}

/// Fig 11 — CDF of categories per channel.
pub fn fig11(trace: &Trace) -> Table {
    let categories = analysis::channel_interest_count(trace);
    cdf("fig11", "categories per channel", &categories)
}

/// Fig 12 — CDF of the similarity between a user's interests and
/// subscriptions.
pub fn fig12(trace: &Trace) -> Table {
    let similarity = analysis::interest_similarity(trace);
    cdf(
        "fig12",
        "user interest/subscription similarity",
        &similarity,
    )
}

/// Fig 13 — CDF of interests per user.
pub fn fig13(trace: &Trace) -> Table {
    let interests = analysis::user_interest_count(trace);
    cdf("fig13", "interests per user", &interests)
}

/// Fig 5 — channel views against subscriber counts.
pub fn fig5(trace: &Trace) -> Table {
    let (points, r) = analysis::views_vs_subscriptions(trace);
    let mut t = Table::new(
        "fig5",
        "Fig 5 — channel views vs subscriptions (paper: strong positive correlation)",
        &["subscribers", "total_views"],
    );
    t.rows = points.iter().map(|(s, v)| cells([s, v])).collect();
    let r = r.unwrap_or(0.0);
    t.notes.push(format!(
        "Pearson r = {r:.3}  (paper expects strongly positive: {})",
        verdict(r > 0.5)
    ));
    t
}

/// Fig 8 — favorites per video and their correlation with views.
pub fn fig8(trace: &Trace) -> Table {
    let (cdf, r) = analysis::favorites_distribution(trace);
    let mut t = Table::new(
        "fig8",
        "Fig 8 — favorites per video (paper: favorites↔views correlation > 0.9)",
        &["favorites", "cdf"],
    );
    t.rows = curve_rows(&cdf);
    let r = r.unwrap_or(0.0);
    t.notes.push(format!(
        "p20={:.0}  p75={:.0}  p90={:.0};  Pearson(views, favorites) = {r:.3} {}",
        cdf.quantile(0.20),
        cdf.quantile(0.75),
        cdf.quantile(0.90),
        verdict(r > 0.9)
    ));
    t
}

/// Fig 9 — view counts by rank inside a popular, a medium and an unpopular
/// channel.
pub fn fig9(trace: &Trace) -> Table {
    let pop = analysis::within_channel_popularity(trace);
    let mut t = Table::new(
        "fig9",
        "Fig 9 — within-channel popularity (paper: ≈ Zipf, s = 1)",
        &["rank", "high", "medium", "low"],
    );
    let views = |of: &[u64], k: usize| of.get(k).map_or(String::new(), u64::to_string);
    let ranks = pop.high.len().max(pop.medium.len()).max(pop.low.len());
    t.rows = (0..ranks)
        .map(|k| {
            let rank = (k + 1).to_string();
            vec![
                rank,
                views(&pop.high, k),
                views(&pop.medium, k),
                views(&pop.low, k),
            ]
        })
        .collect();
    let s = pop.zipf_exponent_high.unwrap_or(0.0);
    t.notes.push(format!(
        "fitted Zipf exponent of the most popular channel: s = {s:.3} {}",
        verdict((s - 1.0).abs() < 0.25)
    ));
    t
}

/// Fig 10 — channel pairs sharing at least `max(users / 400, 2)`
/// subscribers. O4 holds when such pairs share a category more than 1.5×
/// as often as arbitrary channel pairs do (the clustering's lift).
pub fn fig10(trace: &Trace) -> Table {
    let threshold = (trace.graph.user_count() / 400).max(2);
    let clustering = analysis::channel_clustering(trace, threshold);
    let mut t = Table::new(
        "fig10",
        "Fig 10 — channel graph by shared subscribers (paper: distinct interest clusters)",
        &["channel_a", "channel_b", "shared_subscribers"],
    );
    t.rows = clustering
        .edges
        .iter()
        .map(|e| cells([&e.a, &e.b, &e.shared]))
        .collect();
    t.notes.push(format!(
        "{} edges at threshold {threshold}; intra-category fraction = {:.2} vs {:.2} over all \
         channel pairs, lift = {:.2} {}",
        clustering.edges.len(),
        clustering.intra_category_fraction,
        clustering.baseline_fraction,
        clustering.lift(),
        verdict(clustering.lift() > 1.5)
    ));
    t
}

/// Fig 15 — the analytical overhead comparison with the paper's parameters
/// (`u` = 500 viewers/video, `u_c` = 5,000 channel users, `u_t` = 25,000
/// category users, `m` = 1..14).
pub fn fig15() -> Table {
    let series = fig15_series(14, 500.0, 5_000.0, 25_000.0);
    let mut t = Table::new(
        "fig15",
        "Fig 15 — analytical maintenance overhead (paper: NetTube linear, SocialTube flat)",
        &["videos_watched", "socialtube_links", "nettube_links"],
    );
    t.rows = series
        .iter()
        .map(|p| cells([&p.videos_watched, &p.socialtube, &p.nettube]))
        .collect();
    let cross = series.iter().find(|p| p.nettube > p.socialtube);
    t.notes.push(format!(
        "SocialTube constant at {:.1} links; NetTube overtakes at m = {}",
        series[0].socialtube,
        cross.map_or(0, |p| p.videos_watched)
    ));
    t
}

/// Section IV-B — prefetch accuracy in a 25-video channel for `m` = 1..6.
pub fn prefetch() -> Table {
    let mut t = Table::new(
        "prefetch_accuracy",
        "Prefetch accuracy (Section IV-B; paper: 26.2% at m=1, ~54.6% at m=3-4)",
        &["m", "accuracy_25_video_channel"],
    );
    t.result = true;
    t.rows = (1..=6)
        .map(|m| cells([&m, &prefetch_accuracy(25, m)]))
        .collect();
    let (p1, p4) = (prefetch_accuracy(25, 1), prefetch_accuracy(25, 4));
    t.notes.push(format!(
        "paper-vs-measured: m=1 {:.1}% vs 26.2% {}; m=4 {:.1}% vs 54.6% {}",
        p1 * 100.0,
        verdict((p1 - 0.262).abs() < 0.005),
        p4 * 100.0,
        verdict((p4 - 0.546).abs() < 0.01)
    ));
    t
}

/// One replicate: the metrics of each protocol variant that ran over one
/// shared trace and workload, on either platform.
pub type Replicate<'a> = [(Protocol, &'a MetricsSummary)];

/// The platform a replicate ran on: the simulator fills the paper's `a`
/// panels, the TCP testbed its `b` panels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Platform {
    /// The discrete-event simulator (PeerSim's role).
    Sim,
    /// The localhost TCP testbed (PlanetLab's role).
    Tcp,
}

impl Platform {
    fn table(self, figure: u8, what: &str, paper: &str, header: &[&'static str]) -> Table {
        let (panel, ran_on) = match self {
            Platform::Sim => ('a', format!("simulation (paper: {paper})")),
            Platform::Tcp => ('b', "TCP testbed".to_string()),
        };
        let title = format!("Fig {figure}{panel} — {what}, {ran_on}");
        Table::new(format!("fig{figure}{panel}"), title, header)
    }
}

fn metrics_of<'a>(replicate: &Replicate<'a>, protocol: Protocol) -> Option<&'a MetricsSummary> {
    let (_, metrics) = replicate.iter().find(|(p, _)| *p == protocol)?;
    Some(metrics)
}

/// The `wanted` variants that ran, in `wanted` order.
fn ran<'a>(
    replicate: &'a Replicate<'a>,
    wanted: &'a [Protocol],
) -> impl Iterator<Item = (&'static str, &'a MetricsSummary)> + 'a {
    wanted
        .iter()
        .filter_map(|&p| Some((p.label(), metrics_of(replicate, p)?)))
}

fn verdicts(claims: &[Claim], figure: u8) -> impl Iterator<Item = String> + '_ {
    claims
        .iter()
        .filter(move |c| c.figure == figure)
        .map(Claim::line)
}

/// Fig 16 — normalized peer bandwidth (1st/50th/99th percentiles) for
/// PA-VoD, SocialTube and NetTube.
pub fn fig16(platform: Platform, replicate: &Replicate<'_>, claims: &[Claim]) -> Table {
    let mut t = platform.table(
        16,
        "normalized peer bandwidth",
        "SocialTube > NetTube > PA-VoD",
        &["protocol", "p1", "p50", "p99"],
    );
    t.result = true;
    let bars = [Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube];
    for (label, m) in ran(replicate, &bars) {
        let p = m.peer_bandwidth_percentiles;
        t.rows.push(cells([&label, &p.p1, &p.p50, &p.p99]));
    }
    t.notes = verdicts(claims, 16).collect();
    t
}

/// Fig 17 — startup delay with and without prefetching for SocialTube and
/// NetTube, plus PA-VoD.
pub fn fig17(platform: Platform, replicate: &Replicate<'_>, claims: &[Claim]) -> Table {
    let mut t = platform.table(
        17,
        "startup delay",
        "SocialTube < NetTube < PA-VoD; PF helps",
        &["protocol", "mean_ms", "median_ms"],
    );
    t.result = true;
    for (label, m) in ran(replicate, &Protocol::ALL) {
        let (mean, median) = (m.mean_startup_delay_ms, m.startup_delay_percentiles.p50);
        t.rows.push(cells([&label, &mean, &median]));
    }
    t.notes = verdicts(claims, 17).collect();
    t
}

/// Fig 18 — links maintained against videos watched for SocialTube and
/// NetTube.
pub fn fig18(platform: Platform, replicate: &Replicate<'_>, claims: &[Claim]) -> Table {
    let mut t = platform.table(
        18,
        "maintenance overhead",
        "SocialTube flat ~15, NetTube grows",
        &["protocol", "videos_watched", "avg_links"],
    );
    for (label, m) in ran(replicate, &[Protocol::SocialTube, Protocol::NetTube]) {
        let curve = &m.maintenance_curve;
        t.rows
            .extend(curve.iter().map(|(k, links)| cells([&label, k, links])));
        if let (Some((_, start)), Some((k, links))) = (curve.first(), curve.last()) {
            t.notes.push(format!(
                "{label:<22} after {k} videos: {links:.1} links (start: {start:.1})"
            ));
        }
    }
    t.notes.extend(verdicts(claims, 18));
    t
}

/// Extension figure: per-minute peer and server traffic, showing the P2P
/// overlays relieving the origin as community caches warm.
pub fn timeline(replicate: &Replicate<'_>) -> Table {
    let mut t = Table::new(
        "timeline",
        "Timeline — per-minute traffic split (extension; caches warming over the run)",
        &["protocol", "minute", "peer_mbit", "server_mbit"],
    );
    let peer_share = |window: &[(u64, u64, u64)]| {
        let peer: u64 = window.iter().map(|(_, p, _)| p).sum();
        let server: u64 = window.iter().map(|(_, _, s)| s).sum();
        if peer + server == 0 {
            0.0
        } else {
            peer as f64 / (peer + server) as f64
        }
    };
    let curves = [Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube];
    for (label, m) in ran(replicate, &curves) {
        let series = &m.traffic_timeline;
        t.rows.extend(series.iter().map(|(minute, peer, server)| {
            cells([&label, minute, &(peer / 1_000_000), &(server / 1_000_000)])
        }));
        if !series.is_empty() {
            let quarter = (series.len() / 4).max(1);
            t.notes.push(format!(
                "{label:<22} peer share: first quarter {:.2} → last quarter {:.2}",
                peer_share(&series[..quarter]),
                peer_share(&series[series.len() - quarter..])
            ));
        }
    }
    t
}

/// One of the eight Section V orderings, evaluated on one replicate.
#[derive(Clone, Debug, PartialEq)]
pub struct Claim {
    /// The figure the claim is reported under: 16, 17 or 18 (the
    /// Section IV-A tracker-state claim rides with Fig 18's overhead).
    pub(crate) figure: u8,
    /// The ordering the paper reports.
    pub(crate) statement: &'static str,
    /// Both sides' values in the statement's order; `None` when a variant
    /// did not run or the platform does not measure the quantity.
    pub(crate) measured: Option<(f64, f64)>,
    /// Whether the ordering held; `None` when it was not evaluated.
    pub held: Option<bool>,
}

impl Claim {
    fn new(
        figure: u8,
        statement: &'static str,
        measured: Option<(f64, f64)>,
        holds: fn(f64, f64) -> bool,
    ) -> Claim {
        Claim {
            figure,
            statement,
            measured,
            held: measured.map(|(left, right)| holds(left, right)),
        }
    }

    /// The claim as one verdict line.
    pub fn line(&self) -> String {
        let round = |x: f64| (x * 1000.0).round() / 1000.0;
        match (self.measured, self.held) {
            (Some((left, right)), Some(held)) => format!(
                "{}: {} vs {} {}",
                self.statement,
                round(left),
                round(right),
                verdict(held)
            ),
            _ => format!("{}: [not evaluated]", self.statement),
        }
    }
}

/// The eight Section V claims for one replicate — the single definition of
/// "matches the paper".
///
/// `socialtube` is the configuration the SocialTube variants ran with (its
/// `N_l + N_h` is the Fig 18 bound); `tracked_peaks` is the server's peak
/// tracked-entry count under `(SocialTube, NetTube)` where the platform
/// reports it. A claim whose inputs are missing is not evaluated, never held.
pub fn claims(
    replicate: &Replicate<'_>,
    socialtube: &SocialTubeConfig,
    tracked_peaks: Option<(usize, usize)>,
) -> Vec<Claim> {
    use Protocol::{NetTube, PaVod, SocialTube, SocialTubeNoPrefetch};
    let bandwidth = |p| Some(metrics_of(replicate, p)?.peer_bandwidth_percentiles.p50);
    let delay = |p| Some(metrics_of(replicate, p)?.mean_startup_delay_ms);
    let links = |p| Some(metrics_of(replicate, p)?.maintenance_curve.last()?.1);
    let bound = (socialtube.inner_links + socialtube.inter_links) as f64;
    let at_least = |a, b| a >= b;
    let below = |a, b| a < b;
    vec![
        Claim::new(
            16,
            "median peer bandwidth SocialTube ≥ NetTube",
            bandwidth(SocialTube).zip(bandwidth(NetTube)),
            at_least,
        ),
        Claim::new(
            16,
            "median peer bandwidth NetTube ≥ PA-VoD",
            bandwidth(NetTube).zip(bandwidth(PaVod)),
            at_least,
        ),
        Claim::new(
            17,
            "mean startup delay (ms) SocialTube < NetTube",
            delay(SocialTube).zip(delay(NetTube)),
            below,
        ),
        Claim::new(
            17,
            "mean startup delay (ms) NetTube < PA-VoD",
            delay(NetTube).zip(delay(PaVod)),
            below,
        ),
        Claim::new(
            17,
            "mean startup delay (ms) SocialTube w/ PF ≤ w/o PF",
            delay(SocialTube).zip(delay(SocialTubeNoPrefetch)),
            |with, without| with <= without,
        ),
        Claim::new(
            18,
            "final links NetTube > SocialTube",
            links(NetTube).zip(links(SocialTube)),
            |nettube, socialtube| nettube > socialtube,
        ),
        Claim::new(
            18,
            "final links SocialTube ≤ N_l + N_h",
            links(SocialTube).map(|l| (l, bound)),
            |links, bound| links <= bound + 1e-9,
        ),
        Claim::new(
            18,
            "peak tracker entries (Section IV-A) SocialTube < NetTube",
            tracked_peaks.map(|(st, nt)| (st as f64, nt as f64)),
            below,
        ),
    ]
}

/// [`claims`] for the replicate a simulated campaign ran at `seed`, with
/// the tracker peaks its outcomes carry.
pub fn sim_claims(report: &CampaignReport, seed: u64, socialtube: &SocialTubeConfig) -> Vec<Claim> {
    let peak = |p| Some(report.outcome(p, seed)?.server_tracked_peak);
    let peaks = peak(Protocol::SocialTube).zip(peak(Protocol::NetTube));
    claims(&report.replicate(seed), socialtube, peaks)
}

/// One ablation study: runs repeated under variants of one option,
/// everything else as in the base options.
#[derive(Debug)]
pub struct Ablation {
    file: &'static str,
    title: &'static str,
    /// The CSV columns naming a variant.
    knobs: &'static [&'static str],
    variants: fn(&ExperimentOptions) -> Vec<Variant>,
    columns: &'static [Column],
}

/// A measured CSV column: its header and its cell for one run.
type Column = (&'static str, fn(&MetricsSummary) -> String);

/// The cells naming a variant, and what it runs.
type Variant = (Vec<String>, Protocol, ExperimentOptions);

fn socialtube_variant(
    base: &ExperimentOptions,
    cells: Vec<String>,
    edit: impl FnOnce(&mut SocialTubeConfig),
) -> Variant {
    let mut options = base.clone();
    edit(&mut options.socialtube);
    (cells, Protocol::SocialTube, options)
}

/// Runs every variant of `study` over `base`, one row each.
pub fn ablation(study: &Ablation, base: &ExperimentOptions) -> Table {
    let measured = study.columns.iter().map(|(name, _)| *name);
    let header: Vec<&str> = study.knobs.iter().copied().chain(measured).collect();
    let mut t = Table::new(study.file, study.title, &header);
    t.result = true;
    for (mut row, protocol, options) in (study.variants)(base) {
        let metrics = RunSpec::new(protocol).options(options).run().metrics;
        row.extend(study.columns.iter().map(|(_, cell)| cell(&metrics)));
        t.rows.push(row);
    }
    t
}

/// Query TTL against peer bandwidth and delay.
pub const ABLATE_TTL: Ablation = Ablation {
    file: "ablate_ttl",
    title: "Ablation — query TTL vs peer bandwidth and delay (design choice of Section IV-A)",
    knobs: &["ttl"],
    variants: |base| {
        let variant = |ttl: u8| socialtube_variant(base, cells([&ttl]), |c| c.ttl = ttl);
        [1, 2, 3].map(variant).into()
    },
    columns: &[
        ("mean_peer_bandwidth", |m| m.mean_peer_bandwidth.to_string()),
        ("mean_startup_ms", |m| m.mean_startup_delay_ms.to_string()),
        ("server_fallbacks", |m| m.server_fallbacks.to_string()),
    ],
};

/// The link budgets `N_l`/`N_h`.
pub const ABLATE_LINKS: Ablation = Ablation {
    file: "ablate_links",
    title: "Ablation — link budgets N_l/N_h (the paper's stated future work)",
    knobs: &["n_l", "n_h"],
    variants: |base| {
        let variant = |(n_l, n_h): (usize, usize)| {
            socialtube_variant(base, cells([&n_l, &n_h]), |c| {
                (c.inner_links, c.inter_links) = (n_l, n_h);
            })
        };
        [(2, 4), (5, 10), (10, 20)].map(variant).into()
    },
    columns: &[
        ("mean_peer_bandwidth", |m| m.mean_peer_bandwidth.to_string()),
        ("steady_links", |m| m.steady_state_links().to_string()),
    ],
};

/// The prefetch budget `M` (0 disables prefetching).
pub const ABLATE_PREFETCH: Ablation = Ablation {
    file: "ablate_prefetch",
    title: "Ablation — prefetch budget M (Section IV-B)",
    knobs: &["m"],
    variants: |base| {
        let variant = |m: usize| socialtube_variant(base, cells([&m]), |c| c.prefetch_count = m);
        [0, 1, 3, 5].map(variant).into()
    },
    columns: &[
        ("prefetch_hits", |m| m.prefetch_hits.to_string()),
        ("mean_startup_ms", |m| m.mean_startup_delay_ms.to_string()),
        ("median_startup_ms", |m| {
            m.startup_delay_percentiles.p50.to_string()
        }),
        ("prefetch_bits", |m| m.prefetch_bits.to_string()),
    ],
};

/// The session cache's capacity (the paper assumes it unbounded).
pub const ABLATE_CACHE: Ablation = Ablation {
    file: "ablate_cache",
    title: "Ablation — cache capacity (paper assumes unbounded: short videos are cheap to keep)",
    knobs: &["capacity"],
    variants: |base| {
        let variant = |capacity: Option<usize>| {
            let name = capacity.map_or("unbounded".to_string(), |c| c.to_string());
            socialtube_variant(base, vec![name], |c| c.cache_capacity = capacity)
        };
        [Some(5), Some(20), Some(80), None].map(variant).into()
    },
    columns: &[
        ("mean_peer_bandwidth", |m| m.mean_peer_bandwidth.to_string()),
        ("cache_hits", |m| m.cache_hits.to_string()),
        ("server_fallbacks", |m| m.server_fallbacks.to_string()),
    ],
};

/// Scalability sweep (observation O1): shrink the server pipe and watch the
/// client-server-dependent system collapse while the community overlay
/// holds its service level.
pub const ABLATE_SERVER: Ablation = Ablation {
    file: "ablate_server",
    title: "Ablation — server bandwidth sweep (O1: P2P robustness to server scarcity)",
    knobs: &["server_fraction", "protocol"],
    variants: |base| {
        let mut variants = Vec::new();
        for fraction in [1.0f64, 0.5, 0.25] {
            for protocol in [Protocol::SocialTube, Protocol::PaVod] {
                let mut options = base.clone();
                options.network.server_bandwidth_bps =
                    (base.network.server_bandwidth_bps as f64 * fraction) as u64;
                variants.push((cells([&fraction, &protocol.label()]), protocol, options));
            }
        }
        variants
    },
    columns: &[
        ("median_startup_ms", |m| {
            m.startup_delay_percentiles.p50.to_string()
        }),
        ("mean_peer_bandwidth", |m| m.mean_peer_bandwidth.to_string()),
    ],
};

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

/// Extracts one [`CommunitySlice`] per interest community from a recorded
/// snapshot, ordered by descending playback count (ties by community id) —
/// the "which communities carry the run" view the campaign bench reports.
pub fn community_slices(snapshot: &MetricsSnapshot) -> Vec<CommunitySlice> {
    let mut slices: Vec<CommunitySlice> = snapshot
        .communities()
        .map(|(community, dim)| {
            let (cache_hit_rate, prefetch_hit_rate) = dim.hit_rates();
            CommunitySlice {
                community,
                playbacks: dim.counter("cache_hit") + dim.counter("cache_miss"),
                cache_hit_rate,
                prefetch_hit_rate,
                search_hops_mean: dim.histogram("search_hops").map_or(0.0, |h| h.mean()),
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
    use crate::metrics::MetricsCollector;
    use crate::Campaign;

    /// A replicate built by hand: every claim holds until a test flips one.
    struct Rows {
        bandwidth: [f64; 3],
        delay: [f64; 4],
        median_delay: [f64; 2],
        links: [f64; 2],
        config: SocialTubeConfig,
        peaks: Option<(usize, usize)>,
    }

    impl Rows {
        fn holding() -> Rows {
            Rows {
                bandwidth: [0.7, 0.6, 0.5],
                delay: [100.0, 200.0, 300.0, 150.0],
                median_delay: [10.0, 20.0],
                links: [12.0, 20.0],
                config: SocialTubeConfig::default(),
                peaks: Some((100, 200)),
            }
        }

        /// SocialTube, NetTube, PA-VoD, SocialTube w/o PF — in that order.
        fn metrics(&self) -> Vec<(Protocol, MetricsSummary)> {
            let protocols = [
                Protocol::SocialTube,
                Protocol::NetTube,
                Protocol::PaVod,
                Protocol::SocialTubeNoPrefetch,
            ];
            let mut rows = Vec::new();
            for (i, p) in protocols.into_iter().enumerate() {
                let mut m = MetricsCollector::new(1).summary();
                m.peer_bandwidth_percentiles.p50 = self.bandwidth[i.min(2)];
                m.mean_startup_delay_ms = self.delay[i];
                m.startup_delay_percentiles.p50 = self.median_delay[i / 3];
                if i < 2 {
                    m.maintenance_curve = vec![(1, 1.0), (30, self.links[i])];
                }
                rows.push((p, m));
            }
            rows
        }

        fn claims(&self) -> Vec<Claim> {
            let metrics = self.metrics();
            let replicate: Vec<_> = metrics.iter().map(|(p, m)| (*p, m)).collect();
            claims(&replicate, &self.config, self.peaks)
        }
    }

    fn held(claims: &[Claim]) -> Vec<Option<bool>> {
        claims.iter().map(|c| c.held).collect()
    }

    #[test]
    fn each_claim_flips_on_its_own() {
        assert_eq!(held(&Rows::holding().claims()), [Some(true); 8]);
        let flips: [fn(&mut Rows); 8] = [
            |r| r.bandwidth[0] = 0.55, // SocialTube below NetTube, above PA-VoD
            |r| r.bandwidth[2] = 0.65, // PA-VoD above NetTube
            |r| r.delay[1] = 50.0,     // NetTube faster than SocialTube
            |r| r.delay[2] = 150.0,    // PA-VoD faster than NetTube
            |r| r.delay[3] = 50.0,     // no prefetch faster than prefetch
            |r| r.links[1] = 10.0,     // NetTube ends below SocialTube
            |r| r.links[0] = 16.0,     // SocialTube above N_l + N_h = 15
            |r| r.peaks = Some((300, 200)),
        ];
        for (i, flip) in flips.into_iter().enumerate() {
            let mut rows = Rows::holding();
            flip(&mut rows);
            let mut expected = [Some(true); 8];
            expected[i] = Some(false);
            assert_eq!(held(&rows.claims()), expected, "flip {i}");
        }
    }

    #[test]
    fn the_prefetch_claim_is_on_means_and_the_median_is_only_a_column() {
        let mut rows = Rows::holding();
        rows.delay[0] = 160.0; // mean worsens with prefetch (150 without) ...
        rows.median_delay = [0.0, 7000.0]; // ... while the median improves
        let claims = rows.claims();
        assert_eq!(claims[4].held, Some(false), "{}", claims[4].line());
        assert_eq!(claims[4].measured, Some((160.0, 150.0)));
        let metrics = rows.metrics();
        let replicate: Vec<_> = metrics.iter().map(|(p, m)| (*p, m)).collect();
        let table = fig17(Platform::Sim, &replicate, &claims);
        let verdict_line = table.notes.iter().find(|n| n.contains("w/ PF ≤ w/o PF"));
        assert!(verdict_line.expect("claim printed").ends_with("[DIVERGES]"));
        assert!(table.notes.iter().all(|n| !n.contains("median")), "{table}");
        // The medians are the `median_ms` cells beside the means.
        let medians: Vec<(&str, &str)> = table
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[2].as_str()))
            .collect();
        assert!(medians.contains(&("SocialTube w/ PF", "0")), "{table}");
        assert!(medians.contains(&("SocialTube w/o PF", "7000")), "{table}");
    }

    #[test]
    fn the_link_bound_is_the_configuration_that_ran() {
        let mut rows = Rows::holding();
        rows.config.inner_links = 2;
        rows.config.inter_links = 4;
        rows.links[0] = 7.0;
        let claim = &rows.claims()[6];
        assert_eq!(claim.measured, Some((7.0, 6.0)));
        assert_eq!(claim.held, Some(false), "7 links exceed N_l + N_h = 6");
    }

    #[test]
    fn a_claim_without_its_inputs_is_not_evaluated() {
        // A TCP replicate: the testbed reports no tracker peak.
        let mut rows = Rows::holding();
        rows.peaks = None;
        let claims = rows.claims();
        assert_eq!(claims[7].held, None);
        assert!(claims[7].line().ends_with("[not evaluated]"));
        assert_eq!(held(&claims[..7]), [Some(true); 7]);
        // A variant that did not run takes its claims with it.
        let metrics = rows.metrics();
        let replicate: Vec<_> = metrics[..1].iter().map(|(p, m)| (*p, m)).collect();
        let claims = super::claims(&replicate, &rows.config, None);
        let evaluated: Vec<usize> = (0..8).filter(|&i| claims[i].held.is_some()).collect();
        assert_eq!(evaluated, [6], "only SocialTube's own bound is left");
    }

    /// A result table prints its header and rows aligned, non-integers at
    /// 3 decimals, then its notes; a series prints only heading and notes.
    #[test]
    fn a_result_prints_its_rows_and_a_series_only_its_notes() {
        let mut table = Table::new("r", "R", &["protocol", "p50"]);
        table.result = true;
        table.rows = vec![
            cells([&"PA-VoD", &0.5887980608061064]),
            cells([&"SocialTube w/ PF", &12]),
        ];
        table.notes.push("a verdict [matches paper]".into());
        assert_eq!(
            table.to_string(),
            "=== R ===\n  protocol          p50\n  PA-VoD            0.589\n  \
             SocialTube w/ PF  12\n  a verdict [matches paper]"
        );
        let series = Table {
            title: "S".into(),
            result: false,
            ..table
        };
        assert_eq!(series.to_string(), "=== S ===\n  a verdict [matches paper]");
    }

    /// Every table has rows, each with a cell per column: the CSV is
    /// rectangular.
    #[test]
    fn every_table_is_rectangular() {
        let trace = socialtube_trace::generate(&socialtube_trace::TraceConfig::tiny(), 7);
        let section3: [fn(&Trace) -> Table; 12] = [
            fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
        ];
        let tables = [table1(), fig15(), prefetch()]
            .into_iter()
            .chain(section3.map(|figure| figure(&trace)));
        for t in tables {
            assert!(!t.rows.is_empty(), "{}", t.file);
            assert!(
                t.rows.iter().all(|r| r.len() == t.header.len()),
                "{}",
                t.file
            );
        }
    }

    #[test]
    fn fig15_has_paper_shape() {
        let table = fig15();
        assert_eq!(table.rows.len(), 14);
        let links =
            |row: &[String]| -> (f64, f64) { (row[1].parse().unwrap(), row[2].parse().unwrap()) };
        // NetTube overtakes SocialTube within the plotted range.
        let (first, last) = (links(&table.rows[0]), links(&table.rows[13]));
        assert!(first.1 < first.0);
        assert!(last.1 > last.0);
    }

    /// One extractor serves both platforms: the same replicate yields the
    /// same header, rows and per-variant lines for the `a` and `b` panels,
    /// and variants that did not run are skipped.
    #[test]
    fn fig17_and_fig18_extract_series() {
        let options = configs::smoke_test();
        let ran = [Protocol::PaVod, Protocol::SocialTube, Protocol::NetTube];
        let report = Campaign::new(options.clone()).protocols(&ran).run();
        let replicate = report.replicate(options.seed);
        let claims = sim_claims(&report, options.seed, &options.socialtube);
        for (figure, rows_per_variant) in [(fig16 as fn(_, _, _) -> _, 3), (fig17, 3), (fig18, 2)] {
            let sim = figure(Platform::Sim, &replicate, &claims);
            let tcp = figure(Platform::Tcp, &replicate, &claims);
            assert_eq!(sim.header, tcp.header);
            assert_eq!(sim.rows, tcp.rows);
            assert_eq!(sim.notes, tcp.notes);
            assert_eq!(sim.file.replace('a', "b"), tcp.file);
            let mut variants: Vec<&str> = sim.rows.iter().map(|r| r[0].as_str()).collect();
            variants.dedup();
            assert_eq!(variants.len(), rows_per_variant, "{}", sim.file);
            assert!(sim.rows.iter().all(|r| r.len() == sim.header.len()));
        }
        let f17 = fig17(Platform::Sim, &replicate, &claims);
        assert!(f17.notes.iter().any(|n| n.ends_with("[not evaluated]")));
        assert_eq!(timeline(&replicate).header.len(), 4);
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
        let searched = top.resolved_p2p + top.resolved_server;
        assert!(searched > 0, "top community searched");
        let share = top.resolved_p2p as f64 / searched as f64;
        assert!(share > 0.5, "top community leaned on the server: {share}");
    }
}
