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
//! `chrome://tracing`. A malformed argument exits 2.

use socialtube_bench::{usage_error, Scale};
use socialtube_experiments::{
    figures, Campaign, CampaignReport, ExperimentOptions, ProgressConfig, Protocol, RecorderConfig,
    RunSpec,
};
use socialtube_obs::chrome_trace;

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
            "--seeds" => seeds = integer(&arg, &value()),
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

    let mut options = scale.sim_options();
    options.seed = base_seed;

    let campaign = Campaign::new(options.clone())
        .protocols(&protocols)
        .replicates(seeds)
        .workers(workers);
    let runs = campaign.plan().len();
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
    let mut s = String::from("{\n");
    let mut first = true;
    for &protocol in protocols {
        let Some(snap) = report.merged_snapshot(protocol) else {
            continue;
        };
        if !first {
            s.push_str(",\n");
        }
        first = false;
        let body = snap.to_json(2).lines().collect::<Vec<_>>().join("\n  ");
        s.push_str(&format!("  \"{}\": {body}", protocol.key()));
    }
    s.push_str("\n}\n");
    s
}

/// One full-recording run per protocol at the base seed, exported as a
/// multi-process Chrome trace (one pid per protocol).
fn render_trace(options: &ExperimentOptions, protocols: &[Protocol]) -> String {
    let shared = socialtube_trace::generate_shared(&options.trace, options.seed);
    let mut timelines = Vec::new();
    for &protocol in protocols {
        let outcome = RunSpec::new(protocol)
            .options(options.clone())
            .trace(shared.clone())
            .with_recorder(RecorderConfig::full())
            .run();
        let timeline = outcome
            .recording
            .expect("recording requested")
            .timeline
            .expect("timeline requested");
        timelines.push((protocol.key(), timeline));
    }
    let parts: Vec<(&str, &socialtube_obs::Timeline)> =
        timelines.iter().map(|(k, t)| (*k, t)).collect();
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
/// resolution split, search-hop distribution and cache/prefetch hit rates.
/// Empty when the protocol's cells carry no recording.
fn render_snapshot_fields(report: &CampaignReport, protocol: Protocol) -> String {
    let Some(snap) = report.merged_snapshot(protocol) else {
        return String::new();
    };
    let mut s = String::new();
    if let Some((ch, cat, srv)) = snap.resolution_split() {
        s.push_str(&format!(
            ", \"resolution_split\": {{\"channel\": {ch:.4}, \"category\": {cat:.4}, \"server\": {srv:.4}}}"
        ));
    }
    if let Some(hops) = snap.histogram("search_hops") {
        let buckets = hops
            .buckets
            .iter()
            .map(|(lo, c)| format!("[{lo}, {c}]"))
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            ", \"search_hops\": {{\"count\": {}, \"mean\": {:.3}, \"max\": {}, \"buckets\": [{buckets}]}}",
            hops.count,
            hops.mean(),
            hops.max,
        ));
    }
    let rate = |hit: u64, miss: u64| {
        let total = hit + miss;
        if total == 0 {
            0.0
        } else {
            hit as f64 / total as f64
        }
    };
    s.push_str(&format!(
        ", \"cache_hit_rate\": {:.4}, \"prefetch_hit_rate\": {:.4}",
        rate(snap.counter("cache_hit"), snap.counter("cache_miss")),
        rate(snap.counter("prefetch_hit"), snap.counter("prefetch_miss")),
    ));
    let slices = figures::community_slices(&snap);
    if !slices.is_empty() {
        let top = slices
            .iter()
            .take(8)
            .map(|c| {
                format!(
                    "{{\"community\": {}, \"playbacks\": {}, \"cache_hit_rate\": {:.4}, \
                     \"prefetch_hit_rate\": {:.4}, \"search_hops_mean\": {:.3}, \
                     \"resolved_p2p\": {}, \"resolved_server\": {}, \"origin_serves\": {}}}",
                    c.community,
                    c.playbacks,
                    c.cache_hit_rate,
                    c.prefetch_hit_rate,
                    c.search_hops_mean,
                    c.resolved_p2p,
                    c.resolved_server,
                    c.origin_serves,
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        s.push_str(&format!(
            ", \"communities\": {}, \"by_community\": [{top}]",
            slices.len()
        ));
    }
    s
}

/// The report, rendered by hand.
fn render_json(
    scale: &str,
    seeds: usize,
    base_seed: u64,
    serial: &CampaignReport,
    parallel: &CampaignReport,
    speedup: f64,
) -> String {
    let mut protocols = String::new();
    for (i, summary) in parallel.summaries().iter().enumerate() {
        if i > 0 {
            protocols.push_str(",\n");
        }
        protocols.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"startup_delay_ms\": {{\"mean\": {:.3}, \"min\": {:.3}, \"max\": {:.3}, \"ci95\": {:.3}}}, \"peer_bandwidth\": {{\"mean\": {:.4}, \"min\": {:.4}, \"max\": {:.4}, \"ci95\": {:.4}}}{}}}",
            summary.protocol,
            summary.startup_delay_ms.mean,
            summary.startup_delay_ms.min,
            summary.startup_delay_ms.max,
            summary.startup_delay_ms.ci95,
            summary.peer_bandwidth.mean,
            summary.peer_bandwidth.min,
            summary.peer_bandwidth.max,
            summary.peer_bandwidth.ci95,
            render_snapshot_fields(parallel, summary.protocol),
        ));
    }
    format!(
        r#"{{
  "benchmark": "campaign",
  "scale": "{scale}",
  "base_seed": {base_seed},
  "seeds": {seeds},
  "runs_completed": {runs},
  "traces_generated": {traces},
  "workers": {workers},
  "serial_wall_clock_s": {serial_s:.3},
  "parallel_wall_clock_s": {parallel_s:.3},
  "speedup": {speedup:.3},
  "total_events": {events},
  "serial_events_per_sec": {serial_eps:.0},
  "parallel_events_per_sec": {parallel_eps:.0},
  "bitwise_identical": true,
  "per_protocol": [
{protocols}
  ]
}}
"#,
        runs = parallel.cells.len(),
        traces = parallel.traces_generated,
        workers = parallel.workers,
        serial_s = serial.wall_clock.as_secs_f64(),
        parallel_s = parallel.wall_clock.as_secs_f64(),
        events = parallel.total_events(),
        serial_eps = serial.events_per_sec(),
        parallel_eps = parallel.events_per_sec(),
    )
}
