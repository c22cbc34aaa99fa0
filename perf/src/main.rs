//! The repo benchmark. One workload per process (peak RSS is process-wide):
//! set-up (timed in samples spread over the run), one warm-up rep, reps
//! (timed, tracing off), each followed by its untimed correctness checks —
//! with a traced run for the per-layer metrics. See `README.md` beside this package for what each number means.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke] [--out DIR]
//! perf --list | --emit-manifest
//! perf agree <A.json|dir> <B.json|dir>
//! perf mix [--seed N]
//! ```

mod agree;
mod common;
mod mix;
mod net;
mod probes;
mod sim;
mod spans;
mod stats;
mod table;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use common::{Config, RunResult, Scale};
use spans::Spans;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
         [--scale full|smoke] [--out DIR]\n       perf --list | --emit-manifest\n       \
         perf agree <A.json|dir> <B.json|dir>\n       perf mix [--seed N]"
    );
    ExitCode::from(2)
}

/// Where result files go: beside the build, inside the checkout.
fn default_out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("perf")
}

struct Invocation {
    config: Config,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<Invocation, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = f64::from(table::RUN_SECONDS);
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut out_dir = default_out_dir();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                let known = table::WORKLOADS.iter().find(|w| w.name == name.as_str());
                workload = Some(
                    known
                        .ok_or_else(|| format!("unknown workload {name}"))?
                        .name,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} is outside 0 to 600"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            "--out" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Invocation {
        config: Config {
            workload,
            seed,
            seconds: if scale == Scale::Smoke { 0.0 } else { seconds },
            trace,
            scale,
        },
        out_dir,
    })
}

/// Runs one workload and renders everything it prints: one
/// `name value unit` line per metric of the active set (end-to-end with
/// tracing off, per-layer with it on), comment lines, and last the one-line
/// JSON result. A per-layer metric that does not apply to the workload
/// reads 0.
fn run_workload(config: &Config) -> (RunResult, Spans, String) {
    let mut spans = Spans::new(config.trace);
    let root = spans.enter("perf.run");
    let result = sim::run(config, &mut spans);
    spans.exit(root);

    let mut out = format!(
        "# perf {} seed {} scale {:?} trace {} threads {}\n",
        config.workload,
        config.seed,
        config.scale,
        u8::from(config.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut metrics_json = Vec::new();
    let mut line = |name: &str, unit: &str| {
        let value = result.get(name).unwrap_or(0.0);
        match result.summary(name) {
            Some(s) => out.push_str(&format!(
                "{name} {value} {unit}  # of {} samples: median {}, quartiles {} and {}, min {}, max {}\n",
                s.n, s.median, s.q1, s.q3, s.min, s.max
            )),
            None => out.push_str(&format!("{name} {value} {unit}\n")),
        }
        metrics_json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    };
    if !config.trace {
        for m in &table::END_TO_END {
            assert!(result.get(m.name).is_some(), "{} was not measured", m.name);
            line(m.name, m.unit);
        }
    } else {
        for m in &table::PER_LAYER {
            line(m.name, m.unit);
        }
        let by_name = spans::self_times_by_name(spans.spans());
        let total: f64 = by_name.iter().map(|(_, s)| s).sum();
        for (name, secs) in &by_name {
            out.push_str(&format!("# self {name} {secs:.6} s\n"));
        }
        out.push_str(&format!(
            "# self times sum to {total:.6} s; root span {:.6} s\n",
            spans.spans().first().map_or(0.0, spans::Span::secs)
        ));
    }
    let share = result.failed as f64 / result.attempted.max(1) as f64;
    out.push_str(&format!(
        "failed_ops_share {share} ratio  # {} of {} operations failed\n",
        result.failed, result.attempted
    ));
    for failure in &result.failures {
        out.push_str(&format!("# FAILED {failure}\n"));
    }
    out.push_str(&format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        metrics_json.join(", ")
    ));
    (result, spans, out)
}

/// The result file `perf agree` reads: every metric measured, with the
/// rep-level quartiles, extremes and count where there were reps. The summary
/// ends with `"claim": null` — this benchmark measures; it claims no gain.
fn result_file(config: &Config, result: &RunResult) -> String {
    let names = table::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(table::PER_LAYER.iter().map(|m| (m.name, m.unit)));
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let Some(value) = result.get(name) else {
            continue;
        };
        let reps = result.summary(name).map_or(String::new(), |s| {
            format!(
                ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}",
                s.median, s.q1, s.q3, s.min, s.max, s.n
            )
        });
        metrics.push(format!(
            "    \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"{reps}}}"
        ));
    }
    let failures: Vec<String> = result
        .failures
        .iter()
        .map(|f| format!("\"{}\"", f.replace(['"', '\\'], "'")))
        .collect();
    let rep_seconds: Vec<String> = result.rep_seconds.iter().map(f64::to_string).collect();
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"scale\": \"{:?}\",\n  \"trace\": {},\n  \
         \"seconds\": {},\n  \"threads\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \
         \"failed\": {},\n  \"failures\": [{}],\n  \"rep_seconds\": [{}],\n  \"metrics\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        config.workload,
        config.seed,
        config.scale,
        u8::from(config.trace),
        config.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        result.correct(),
        result.attempted,
        result.failed,
        failures.join(", "),
        rep_seconds.join(", "),
        metrics.join(",\n"),
    )
}

fn write_outputs(
    config: &Config,
    out_dir: &Path,
    result: &RunResult,
    spans: &Spans,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let stem = if config.trace {
        format!("{}.layers", config.workload)
    } else {
        config.workload.to_string()
    };
    std::fs::write(
        out_dir.join(format!("{stem}.json")),
        result_file(config, result),
    )?;
    if config.trace {
        std::fs::write(
            out_dir.join(format!("{}.trace.json", config.workload)),
            spans::chrome_trace(spans.spans(), config.workload),
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", table::list());
            ExitCode::SUCCESS
        }
        Some("--emit-manifest") => {
            let violations = table::violations();
            if !violations.is_empty() {
                eprintln!(
                    "perf: the table breaks the contract:\n{}",
                    violations.join("\n")
                );
                return ExitCode::FAILURE;
            }
            print!("{}", table::manifest());
            ExitCode::SUCCESS
        }
        Some("agree") => {
            let [_, a, b] = args.as_slice() else {
                return usage();
            };
            match agree::run(Path::new(a), Path::new(b)) {
                Ok(false) => ExitCode::SUCCESS,
                Ok(true) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("perf agree: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("mix") => {
            let seed = match args.as_slice() {
                [_] => Ok(sim::POPULATION_SEED),
                [_, flag, n] if flag == "--seed" => n.parse().map_err(|e| format!("--seed: {e}")),
                _ => Err("mix takes --seed N at most".to_string()),
            };
            match seed.and_then(|seed| mix::report(seed, false)) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perf mix: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some(_) => {
            let invocation = match parse_run_args(&args) {
                Ok(invocation) => invocation,
                Err(e) => {
                    eprintln!("perf: {e}");
                    return usage();
                }
            };
            let (result, spans, text) = run_workload(&invocation.config);
            if let Err(e) = write_outputs(&invocation.config, &invocation.out_dir, &result, &spans)
            {
                eprintln!("perf: writing under {}: {e}", invocation.out_dir.display());
                return ExitCode::FAILURE;
            }
            // The one-line JSON result stays the last line of stdout.
            print!("{text}");
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str, trace: bool) -> (RunResult, Spans, String) {
        run_workload(&Config {
            workload,
            seed: 42,
            seconds: 0.0,
            trace,
            scale: Scale::Smoke,
        })
    }

    /// The metric lines of a run's output, as (name, value, unit).
    fn metric_lines(text: &str) -> Vec<(String, f64, String)> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
            .map(|l| {
                let mut words = l.split_whitespace();
                let name = words.next().expect("name").to_string();
                let value = words.next().expect("value").parse().expect("number");
                (name, value, words.next().expect("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn every_workload_runs_end_to_end_at_smoke_scale() {
        for w in &table::WORKLOADS {
            for trace in [false, true] {
                let (result, spans, text) = smoke(w.name, trace);
                assert!(
                    result.correct(),
                    "{} trace {trace}: {:?}",
                    w.name,
                    result.failures
                );
                assert!(result.attempted > 0);

                // Each declared metric of the active set is printed exactly
                // once, with its unit; nothing undeclared is printed.
                let mut lines = metric_lines(&text);
                let share = lines.pop().expect("failed_ops_share line");
                assert_eq!((share.0.as_str(), share.1), ("failed_ops_share", 0.0));
                let declared: Vec<(&str, &str)> = if trace {
                    table::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
                } else {
                    table::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
                };
                let printed: Vec<(&str, &str)> = lines
                    .iter()
                    .map(|(n, _, u)| (n.as_str(), u.as_str()))
                    .collect();
                assert_eq!(printed, declared, "{} trace {trace}", w.name);

                // The last line is the driver's JSON, with the same metrics.
                let last = text.lines().last().expect("output");
                let json = socialtube_obs::json::parse(last).expect("last line is JSON");
                assert_eq!(
                    json.get("correct"),
                    Some(&socialtube_obs::json::Value::Bool(true))
                );
                assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(0));
                for (name, value, unit) in &lines {
                    let m = json
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .expect("metric in JSON");
                    assert_eq!(
                        m.get("value").and_then(|v| v.as_f64()),
                        Some(*value),
                        "{name}"
                    );
                    assert_eq!(m.get("unit").and_then(|v| v.as_str()), Some(unit.as_str()));
                }

                if trace {
                    // Self times partition the root span exactly.
                    let own: u64 = spans::self_times_ns(spans.spans()).iter().sum();
                    let root = &spans.spans()[0];
                    assert_eq!((root.name, own), ("perf.run", root.end_ns - root.start_ns));
                    let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
                    let mut expected = vec![
                        "trace.generate",
                        "stack.build",
                        "driver.run",
                        "probe.sim.queue",
                    ];
                    if w.name == "sim-dense" {
                        expected.extend([
                            "net.wire.encode",
                            "net.wire.decode",
                            "net.transport.write_read",
                        ]);
                    } else {
                        expected.extend(["driver.run.workers1", "driver.run.workers2"]);
                    }
                    for span in expected {
                        assert!(names.contains(&span), "{}: no {span} span", w.name);
                    }
                } else {
                    assert!(spans.spans().is_empty(), "untraced runs record no span");
                    for m in &table::END_TO_END {
                        assert!(
                            result.get(m.name).unwrap() > 0.0,
                            "{} must never be 0",
                            m.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn result_file_parses_and_claims_nothing() {
        let config = Config {
            workload: "sim-dense",
            seed: 7,
            seconds: 0.0,
            trace: false,
            scale: Scale::Smoke,
        };
        let (result, _, _) = run_workload(&config);
        let json = socialtube_obs::json::parse(&result_file(&config, &result)).expect("valid JSON");
        assert_eq!(json.get("claim"), Some(&socialtube_obs::json::Value::Null));
        assert_eq!(
            json.get("workload").and_then(|v| v.as_str()),
            Some("sim-dense")
        );
        let setup = json
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        // One sample before the warm-up and one after the smoke run's rep.
        assert_eq!(setup.get("n").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let inv =
            parse_run_args(&args("--workload sim-scale --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(inv.config.workload, "sim-scale");
        assert_eq!(
            (inv.config.seed, inv.config.seconds, inv.config.trace),
            (9, 3.0, true)
        );
        assert!(parse_run_args(&args("--workload nope")).is_err());
        assert!(parse_run_args(&args("--workload sim-scale --trace yes")).is_err());
        assert!(parse_run_args(&args("--seed 1")).is_err());
        assert!(parse_run_args(&args("--workload sim-scale --seed")).is_err());
    }
}
