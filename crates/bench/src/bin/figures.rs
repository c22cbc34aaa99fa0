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
//! Every target is one `socialtube_experiments::figures` function returning
//! a `Table`; this bin prepares what the chosen targets read (the trace,
//! the five-variant simulation, the TCP deployments) and emits each table:
//! its rows to `target/figures/<file>.csv`, and the table itself to stdout
//! (a result table's rows, then the lines no row says — verdicts with the
//! paper's expectation next to the measured value). Recorder
//! artifacts (metrics snapshots, Chrome traces) come from the `campaign`
//! bin.

use std::io;

use socialtube_bench::{usage_error, write_table, Scale};
use socialtube_experiments::figures::{self as xfig, Ablation, Claim, Platform, Table};
use socialtube_experiments::net_driver::{self, NetRun};
use socialtube_experiments::{Campaign, ExperimentOptions, MetricsSummary, Protocol};
use socialtube_trace::{generate, generate_shared, Trace, TraceConfig};

const OUT_DIR: &str = "target/figures";

/// How a target is produced, which is also what it needs prepared: the
/// generated trace, the five-variant simulation, or the TCP deployments.
#[derive(Clone, Copy)]
enum Target {
    Plain(fn() -> Table),
    Trace(fn(&Trace) -> Table),
    /// A Section V figure, from the replicate that ran on the platform.
    Eval(
        Platform,
        fn(Platform, &xfig::Replicate<'_>, &[Claim]) -> Table,
    ),
    Timeline,
    Ablation(&'static Ablation),
}

/// Every target, in the order `all` runs them.
const TARGETS: &[(&str, Target)] = &[
    ("table1", Target::Plain(xfig::table1)),
    ("fig2", Target::Trace(xfig::fig2)),
    ("fig3", Target::Trace(xfig::fig3)),
    ("fig4", Target::Trace(xfig::fig4)),
    ("fig5", Target::Trace(xfig::fig5)),
    ("fig6", Target::Trace(xfig::fig6)),
    ("fig7", Target::Trace(xfig::fig7)),
    ("fig8", Target::Trace(xfig::fig8)),
    ("fig9", Target::Trace(xfig::fig9)),
    ("fig10", Target::Trace(xfig::fig10)),
    ("fig11", Target::Trace(xfig::fig11)),
    ("fig12", Target::Trace(xfig::fig12)),
    ("fig13", Target::Trace(xfig::fig13)),
    ("fig15", Target::Plain(xfig::fig15)),
    ("fig16a", Target::Eval(Platform::Sim, xfig::fig16)),
    ("fig16b", Target::Eval(Platform::Tcp, xfig::fig16)),
    ("fig17a", Target::Eval(Platform::Sim, xfig::fig17)),
    ("fig17b", Target::Eval(Platform::Tcp, xfig::fig17)),
    ("fig18a", Target::Eval(Platform::Sim, xfig::fig18)),
    ("fig18b", Target::Eval(Platform::Tcp, xfig::fig18)),
    ("prefetch", Target::Plain(xfig::prefetch)),
    ("timeline", Target::Timeline),
    ("ablate-ttl", Target::Ablation(&xfig::ABLATE_TTL)),
    ("ablate-links", Target::Ablation(&xfig::ABLATE_LINKS)),
    ("ablate-prefetch", Target::Ablation(&xfig::ABLATE_PREFETCH)),
    ("ablate-cache", Target::Ablation(&xfig::ABLATE_CACHE)),
    ("ablate-server", Target::Ablation(&xfig::ABLATE_SERVER)),
];

fn main() -> io::Result<()> {
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

    let trace = wants(|t| matches!(t, Target::Trace(_))).then(|| {
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
    let options = scale.sim_options(seed);
    let sim =
        wants(|t| matches!(t, Target::Eval(Platform::Sim, _) | Target::Timeline)).then(|| {
            println!(
                "# simulating 5 protocol variants: {} nodes × {} sessions × {} videos",
                options.trace.users,
                options.workload.sessions_per_node,
                options.workload.videos_per_session
            );
            Campaign::new(options.clone()).run()
        });
    let sim = sim.as_ref().map(|report| {
        let claims = xfig::sim_claims(report, seed, &options.socialtube);
        (report.replicate(seed), claims)
    });
    let testbed = scale.testbed_options(seed);
    let net = wants(|t| matches!(t, Target::Eval(Platform::Tcp, _)))
        .then(|| run_net_all(&testbed))
        .transpose()?;
    let net = net.as_ref().map(|runs| {
        let replicate: Vec<(Protocol, &MetricsSummary)> =
            runs.iter().map(|(p, run)| (*p, &run.metrics)).collect();
        // The testbed does not report the tracker's peak.
        let claims = xfig::claims(&replicate, &testbed.socialtube, None);
        (replicate, claims)
    });

    for (_, target) in chosen {
        let table = match target {
            Target::Plain(table) => table(),
            Target::Trace(table) => table(trace.as_ref().expect("trace generated")),
            Target::Eval(platform, table) => {
                let ran = match platform {
                    Platform::Sim => &sim,
                    Platform::Tcp => &net,
                };
                let (replicate, claims) = ran.as_ref().expect("replicate ran");
                table(platform, replicate, claims)
            }
            Target::Timeline => xfig::timeline(&sim.as_ref().expect("sim ran").0),
            Target::Ablation(study) => xfig::ablation(study, &options),
        };
        println!("\n{table}");
        write_table(OUT_DIR, &table)?;
    }
    println!("\nCSV series written to {OUT_DIR}/");
    Ok(())
}

fn run_net_all(options: &ExperimentOptions) -> io::Result<Vec<(Protocol, NetRun)>> {
    println!(
        "# deploying TCP testbed ({} peers, {} sessions × {} videos) for 5 protocol variants",
        options.trace.users,
        options.workload.sessions_per_node,
        options.workload.videos_per_session
    );
    // One shared trace for all five variants (the paper's methodology);
    // each deployment borrows the same Arc'd catalog instead of
    // regenerating it.
    let shared = generate_shared(&options.trace, options.seed);
    Protocol::ALL
        .iter()
        .map(|p| {
            println!("#   running {p} over real sockets ...");
            Ok((*p, net_driver::run_net_on(&shared, *p, options)?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--seed` must reach the injected link latencies, not only the trace.
    #[test]
    fn seed_reaches_the_testbed_latencies() {
        let delay = |seed| {
            let experiment = Scale::Demo.testbed_options(seed);
            let root = socialtube_experiments::configs::root_rng(experiment.seed);
            let latency = experiment.network.latency_model(&root);
            (latency.delay(0, 1), latency.server_delay(0))
        };
        assert_eq!(delay(7), delay(7));
        assert_ne!(delay(7), delay(42));
    }

    #[test]
    fn target_names_are_unique_and_all_keeps_its_order() {
        let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
        let expected = "table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 \
                        fig15 fig16a fig16b fig17a fig17b fig18a fig18b prefetch timeline \
                        ablate-ttl ablate-links ablate-prefetch ablate-cache ablate-server";
        assert_eq!(names, expected.split_whitespace().collect::<Vec<_>>());
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }
}
