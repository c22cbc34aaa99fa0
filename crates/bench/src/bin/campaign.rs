//! Campaign throughput benchmark: serial versus fan-out execution of one
//! experiment sweep, with a machine-readable report.
//!
//! ```text
//! cargo run --release -p socialtube-bench --bin campaign -- \
//!     [--scale demo|figure|full] [--seeds N] [--seed BASE] [--workers N] \
//!     [--protocols socialtube,pavod,...] [--out PATH] \
//!     [--metrics-out PATH] [--trace-out PATH] [--progress-out PATH]
//! ```
//!
//! Runs the protocols × seeds grid twice — once on a single thread, once on
//! the worker pool with the metrics recorder attached — verifies the two
//! reports agree bitwise per cell (which also proves recording never
//! perturbs a run), and writes a JSON report (`--out`, default
//! `target/campaign.json`) with wall-clock, speedup, events/sec, and each
//! protocol's resolution split, search-hop distribution, cache/prefetch
//! hit rates and top interest communities (`by_community`, sliced from the
//! dimensional metrics). `--metrics-out` dumps the full merged
//! per-protocol snapshots; `--progress-out` streams one NDJSON line per
//! completed cell of the parallel pass; `--trace-out` re-runs each
//! protocol once at the base seed with timeline capture and writes a
//! Chrome-trace file (one process per protocol) loadable in Perfetto or
//! `chrome://tracing`. A malformed argument, `--seeds 0` included, exits
//! 2. A repeated protocol or seed runs once.

use socialtube_bench::{usage_error, Scale};
use socialtube_experiments::{
    figures, Aggregate, Campaign, CampaignReport, ExperimentOptions, ProgressConfig, Protocol,
    RecorderConfig, RunSpec,
};
use socialtube_obs::chrome_trace;
use socialtube_obs::json::Value;

fn main() {
    let mut scale = Scale::Demo;
    let mut seeds: usize = 4;
    let mut base_seed: u64 = 42;
    let mut workers: usize = socialtube_experiments::campaign::default_workers();
    let mut protocols: Vec<Protocol> = Protocol::ALL.to_vec();
    let mut out = "target/campaign.json".to_string();
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut progress_out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                let name = value();
                scale = Scale::parse(&name).unwrap_or_else(|| {
                    usage_error(format!("unknown scale {name} (use demo|figure|full)"))
                });
            }
            "--seeds" => {
                seeds = integer(&arg, &value());
                if seeds == 0 {
                    usage_error("--seeds needs at least 1");
                }
            }
            "--seed" => base_seed = integer(&arg, &value()),
            "--workers" => workers = integer(&arg, &value()),
            "--protocols" => {
                protocols = value()
                    .split(',')
                    .map(|name| {
                        name.parse()
                            .unwrap_or_else(|e| usage_error(format!("--protocols: {e}")))
                    })
                    .collect();
            }
            "--out" => out = value(),
            "--metrics-out" => metrics_out = Some(value()),
            "--trace-out" => trace_out = Some(value()),
            "--progress-out" => progress_out = Some(value()),
            other => usage_error(format!("unknown argument {other}")),
        }
    }

    let options = scale.sim_options(base_seed);

    let campaign = Campaign::new(options.clone())
        .protocols(&protocols)
        .replicates(seeds)
        .workers(workers);
    let plan = campaign.plan();
    let runs = plan.len();
    // The campaign's own protocol list: a repeated `--protocols` entry is
    // one cell.
    let protocols: Vec<Protocol> = plan
        .iter()
        .filter(|p| p.sweep_index == 0)
        .map(|p| p.protocol)
        .collect();
    println!(
        "# campaign: {} protocols × {seeds} seeds = {runs} runs (scale {})",
        protocols.len(),
        scale.name()
    );

    println!("# serial baseline ...");
    let serial = campaign.run_serial();
    println!(
        "#   {:.2}s wall-clock ({:.2}s traces), {:.0} events/s",
        serial.wall_clock.as_secs_f64(),
        serial.trace_wall_clock.as_secs_f64(),
        serial.events_per_sec()
    );

    // The parallel pass records metrics; the bitwise check against the
    // unrecorded serial baseline doubles as the proof that instrumentation
    // never perturbs a run.
    println!("# parallel ({workers} workers, metrics recorder on) ...");
    let mut recorded = campaign.clone().recorder(RecorderConfig::metrics_only());
    if let Some(path) = &progress_out {
        recorded = recorded.progress(ProgressConfig::to_file(path));
    }
    let parallel = recorded.run();
    println!(
        "#   {:.2}s wall-clock ({:.2}s traces), {:.0} events/s",
        parallel.wall_clock.as_secs_f64(),
        parallel.trace_wall_clock.as_secs_f64(),
        parallel.events_per_sec()
    );

    verify_bitwise(&serial, &parallel);
    let speedup = serial.wall_clock.as_secs_f64() / parallel.wall_clock.as_secs_f64().max(1e-9);
    println!("# bitwise identical per-cell metrics; speedup ×{speedup:.2}");

    for &protocol in &protocols {
        if let Some((ch, cat, srv)) = parallel
            .merged_snapshot(protocol)
            .and_then(|s| s.resolution_split())
        {
            println!(
                "#   {protocol}: resolution split {:.0}% channel / {:.0}% category / {:.0}% server",
                ch * 100.0,
                cat * 100.0,
                srv * 100.0
            );
        }
    }

    let json = render_json(scale.name(), seeds, base_seed, &serial, &parallel, speedup);
    write_output(&out, &json);
    println!("# report written to {out}");

    if let Some(path) = metrics_out {
        write_output(&path, &render_metrics(&parallel, &protocols));
        println!("# merged per-protocol metrics written to {path}");
    }

    if let Some(path) = trace_out {
        write_output(&path, &render_trace(&options, &protocols));
        println!("# chrome trace written to {path}");
    }
}

/// Parses the integer value of `flag`, or exits 2 naming the flag.
fn integer<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(format!("{flag} needs an integer, got {value:?}")))
}

/// Writes one output file, creating its directory first (the default
/// report lands under `target/`, which a fresh checkout does not have).
fn write_output(path: &str, contents: &str) {
    let written = std::path::Path::new(path)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Merged per-protocol snapshots as one JSON object keyed by protocol.
fn render_metrics(report: &CampaignReport, protocols: &[Protocol]) -> String {
    let snapshots = protocols
        .iter()
        .filter_map(|&p| Some((p.key(), report.merged_snapshot(p)?.to_value())));
    Value::obj(snapshots).render(2, 3) + "\n"
}

/// One full-recording run per protocol at the base seed, exported as a
/// multi-process Chrome trace (one pid per protocol).
fn render_trace(options: &ExperimentOptions, protocols: &[Protocol]) -> String {
    let shared = socialtube_trace::generate_shared(&options.trace, options.seed);
    let timelines: Vec<_> = protocols
        .iter()
        .map(|&protocol| {
            let outcome = RunSpec::new(protocol)
                .options(options.clone())
                .trace(shared.clone())
                .with_recorder(RecorderConfig::full())
                .run();
            let timeline = outcome.recording.and_then(|r| r.timeline);
            (protocol.key(), timeline.expect("timeline requested"))
        })
        .collect();
    let parts: Vec<_> = timelines.iter().map(|(k, t)| (*k, t)).collect();
    chrome_trace(&parts)
}

/// Panics unless both reports carry identical per-cell results.
fn verify_bitwise(serial: &CampaignReport, parallel: &CampaignReport) {
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.plan, p.plan, "plans diverged");
        assert_eq!(
            s.outcome.metrics, p.outcome.metrics,
            "metrics diverged for {} seed {}",
            s.plan.protocol, s.plan.seed
        );
        assert_eq!(s.outcome.events, p.outcome.events);
        assert_eq!(s.outcome.sim_end, p.outcome.sim_end);
    }
}

/// The recorder-derived fields of one per-protocol report entry:
/// resolution split, search-hop distribution, cache/prefetch hit rates and
/// the top communities. Empty when the protocol's cells carry no recording.
fn snapshot_fields(report: &CampaignReport, protocol: Protocol) -> Vec<(&'static str, Value)> {
    let Some(snap) = report.merged_snapshot(protocol) else {
        return Vec::new();
    };
    let mut fields = Vec::new();
    if let Some((ch, cat, srv)) = snap.resolution_split() {
        let split = [("channel", ch), ("category", cat), ("server", srv)];
        fields.push((
            "resolution_split",
            Value::obj(split.map(|(k, v)| (k, v.into()))),
        ));
    }
    if let Some(hops) = snap.histogram("search_hops") {
        let buckets = hops
            .buckets()
            .map(|(lo, c)| Value::Arr(vec![lo.into(), c.into()]));
        let hops = Value::obj([
            ("count", hops.count().into()),
            ("mean", hops.mean().into()),
            ("max", hops.max().into()),
            ("buckets", Value::Arr(buckets.collect())),
        ]);
        fields.push(("search_hops", hops));
    }
    let (cache_hit_rate, prefetch_hit_rate) = snap.hit_rates();
    fields.push(("cache_hit_rate", cache_hit_rate.into()));
    fields.push(("prefetch_hit_rate", prefetch_hit_rate.into()));
    let slices = figures::community_slices(&snap);
    if !slices.is_empty() {
        let top = slices.iter().take(8).map(|c| {
            Value::obj([
                ("community", c.community.into()),
                ("playbacks", c.playbacks.into()),
                ("cache_hit_rate", c.cache_hit_rate.into()),
                ("prefetch_hit_rate", c.prefetch_hit_rate.into()),
                ("search_hops_mean", c.search_hops_mean.into()),
                ("resolved_p2p", c.resolved_p2p.into()),
                ("resolved_server", c.resolved_server.into()),
                ("origin_serves", c.origin_serves.into()),
            ])
        });
        fields.push(("communities", slices.len().into()));
        fields.push(("by_community", Value::Arr(top.collect())));
    }
    fields
}

/// The campaign report: one line per top-level field and per protocol.
fn render_json(
    scale: &str,
    seeds: usize,
    base_seed: u64,
    serial: &CampaignReport,
    parallel: &CampaignReport,
    speedup: f64,
) -> String {
    let secs = |r: &CampaignReport| r.wall_clock.as_secs_f64();
    let stats = |a: &Aggregate| {
        let fields = [
            ("mean", a.mean),
            ("min", a.min),
            ("max", a.max),
            ("ci95", a.ci95),
        ];
        Value::obj(fields.map(|(k, v)| (k, v.into())))
    };
    let per_protocol = parallel.summaries().into_iter().map(|summary| {
        let mut fields = vec![
            ("protocol", Value::Str(summary.protocol.to_string())),
            ("startup_delay_ms", stats(&summary.startup_delay_ms)),
            ("peer_bandwidth", stats(&summary.peer_bandwidth)),
        ];
        fields.extend(snapshot_fields(parallel, summary.protocol));
        Value::obj(fields)
    });
    let report = Value::obj([
        ("benchmark", "campaign".into()),
        ("scale", scale.into()),
        ("base_seed", base_seed.into()),
        ("seeds", seeds.into()),
        ("runs_completed", parallel.cells.len().into()),
        ("traces_generated", parallel.traces_generated.into()),
        ("workers", parallel.workers.into()),
        ("serial_wall_clock_s", secs(serial).into()),
        ("parallel_wall_clock_s", secs(parallel).into()),
        ("speedup", speedup.into()),
        ("total_events", parallel.total_events().into()),
        ("serial_events_per_sec", serial.events_per_sec().into()),
        ("parallel_events_per_sec", parallel.events_per_sec().into()),
        ("bitwise_identical", Value::Bool(true)),
        ("per_protocol", Value::Arr(per_protocol.collect())),
    ]);
    report.render(2, 2) + "\n"
}
