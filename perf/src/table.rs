//! The one table of workloads and metrics: names, units, directions,
//! bounds and the reason each exists. `perf --list` prints it,
//! `perf --emit-manifest` renders `BENCHMARK.json` from it, and the unit
//! tests fail when the committed manifest or the limits drift.

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn key(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers do the work here and which do none.
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this layer metric should move, and on which
    /// workloads (the prediction written down before measuring).
    pub moves: (&'static str, &'static str),
    /// Simulated-time or counted quantity: repeats exactly for a seed.
    pub exact: bool,
    pub what: &'static str,
}

/// Seconds one driver run measures (`--seconds`).
pub const RUN_SECONDS: u32 = 55;

/// The command the driver runs from the checkout root; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 10] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "perf/Cargo.toml",
    "--bin",
    "perf",
    // Without this, cargo would take the appended flags for its own.
    "--",
];

pub const PATHS: [&str; 1] = ["perf"];

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sim-dense",
        why: "300 peers, all five protocols over one population: cache-resident, so handler and dispatch code does the work and memory none; the only workload where the paper's orderings are checked",
    },
    Workload {
        name: "sim-scale",
        why: "Table I's 10,000 peers under SocialTube: a 60k-event queue and cold ~9 KB peer state dominate, handler arithmetic does little; a peer-state diet moves this and leaves sim-dense still",
    },
];

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "host seconds of one set-up, median of samples that each batch set-ups to 50 ms, one taken after every timed rep: trace generation and run specs",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "work the input defines over host seconds, all timed reps of the run together: playbacks planned, all of which must start",
    },
    EndToEnd {
        name: "peak_rss_bytes",
        unit: "B",
        better: Better::Lower,
        bound: 0.1,
        what: "VmHWM of the process after the timed reps",
    },
];

const SIM: &str = "sim-*";
/// Where a layer no bounded workload runs is read: nothing end to end moves
/// with it until a later benchmark change bounds it.
const DENSE_TRACED: &str = "sim-dense (traced run only)";
const SCALE_TRACED: &str = "sim-scale (traced run only)";

macro_rules! layer {
    ($name:literal, $unit:literal, $better:ident, $e2e:literal on $wl:expr, $what:literal) => {
        PerLayer {
            name: $name,
            unit: $unit,
            better: Better::$better,
            moves: ($e2e, $wl),
            exact: false,
            what: $what,
        }
    };
    (exact $($rest:tt)*) => {
        PerLayer {
            exact: true,
            ..layer!($($rest)*)
        }
    };
}

pub const PER_LAYER: [PerLayer; 60] = [
    // trace
    layer!("trace.generate_s", "s", Lower, "setup_s" on SIM, "one generate_shared call"),
    layer!(exact "trace.users", "count", Higher, "setup_s" on SIM, "users in the generated trace"),
    layer!(exact "trace.videos", "count", Higher, "setup_s" on SIM, "videos in the generated catalog"),
    // experiments.harness.stack
    layer!("stack.build_s", "s", Lower, "ops_per_s" on "sim-scale", "one StackBuilder::build over the population"),
    layer!("stack.bytes_per_peer", "B", Lower, "peak_rss_bytes" on "sim-scale", "RSS growth across that build and the probe warm-up (login, five neighbors, three cached videos) over peers"),
    // experiments.driver
    layer!("driver.run_s", "s", Lower, "ops_per_s" on SIM, "mean host seconds of one timed rep"),
    layer!(exact "driver.events", "count", Lower, "ops_per_s" on SIM, "events dispatched per rep"),
    layer!("driver.events_per_s", "1/s", Higher, "ops_per_s" on SIM, "driver.events over driver.run_s"),
    layer!("driver.ns_per_event", "ns", Lower, "ops_per_s" on SIM, "driver.run_s over driver.events"),
    layer!("driver.playbacks_per_s", "1/s", Higher, "ops_per_s" on SIM, "playbacks started per host second of the timed reps: ops_per_s as the traced run reads it"),
    layer!("driver.rep_spread_pct", "%", Lower, "ops_per_s" on SIM, "quartile distance over median of the untraced rep times"),
    layer!("driver.residual_ns_per_event", "ns", Lower, "ops_per_s" on SIM, "ns_per_event minus the probes weighted by the recorded event mix: dispatch, command interpretation and stalls no probe explains"),
    layer!("trace_overhead_pct", "%", Lower, "ops_per_s" on SIM, "traced rep against the mean timed rep"),
    // sim.queue
    layer!(exact "sim.queue.peak", "count", Lower, "ops_per_s" on "sim-scale", "largest pending-event queue of the run"),
    layer!("sim.queue.push_pop_ns", "ns", Lower, "ops_per_s" on "sim-scale", "one pop plus one push at that occupancy, timers and latencies in the traced rep's own proportion"),
    layer!("sim.queue.overflow_share", "ratio", Lower, "ops_per_s" on "sim-scale", "share of the probe queue parked in the overflow heap"),
    // sim.latency, sim.bandwidth
    layer!("sim.latency.delay_ns", "ns", Lower, "ops_per_s" on SIM, "one LatencyModel::delay over random pairs of the population"),
    layer!("sim.bandwidth.upload_ns", "ns", Lower, "ops_per_s" on SIM, "one UploadScheduler::upload_timed"),
    layer!("sim.bandwidth.serve_ns", "ns", Lower, "ops_per_s" on SIM, "one ServerQueue::serve_timed"),
    // core.peer, core.server, baselines
    layer!("core.peer.on_message_ns", "ns", Lower, "ops_per_s" on "sim-scale", "Query/ChunkRequest stream over the whole logged-in population in random order (cold)"),
    layer!("core.peer.on_message_hot_ns", "ns", Lower, "ops_per_s" on "sim-dense", "the same stream into one peer (hot)"),
    layer!("core.peer.on_timer_ns", "ns", Lower, "ops_per_s" on SIM, "ProbeTick over the population in random order"),
    layer!("core.peer.watch_ns", "ns", Lower, "ops_per_s" on SIM, "watch() over the population in random order"),
    layer!("core.server.on_message_ns", "ns", Lower, "ops_per_s" on SIM, "JoinRequest/VideoRequest stream into the SocialTube server"),
    layer!("baselines.nettube.on_message_ns", "ns", Lower, "ops_per_s" on "sim-dense", "the cold stream over a NetTube population"),
    layer!("baselines.pavod.on_message_ns", "ns", Lower, "ops_per_s" on "sim-dense", "the cold stream over a PA-VoD population"),
    // experiments.metrics
    layer!("metrics.on_report_ns", "ns", Lower, "ops_per_s" on SIM, "one MetricsCollector::on_report of a chunk/playback mix"),
    layer!("metrics.summary_s", "s", Lower, "ops_per_s" on SIM, "one MetricsCollector::summary after that stream"),
    // obs
    layer!("obs.recorder.hook_ns", "ns", Lower, "ops_per_s" on DENSE_TRACED, "one count + observe + record_report into a full RunRecorder"),
    layer!("obs.recorder.overhead_ns_per_event", "ns", Lower, "ops_per_s" on DENSE_TRACED, "(traced rep, which carries the metrics-only recorder - mean timed rep) over events"),
    layer!("obs.snapshot.to_json_s", "s", Lower, "ops_per_s" on DENSE_TRACED, "MetricsSnapshot::to_json of the traced rep's snapshot"),
    layer!(exact "obs.count.ev_peer_msg", "count", Lower, "ops_per_s" on SIM, "peer message deliveries in the traced rep"),
    layer!(exact "obs.count.ev_server_msg", "count", Lower, "ops_per_s" on SIM, "server message deliveries"),
    layer!(exact "obs.count.ev_peer_timer", "count", Lower, "ops_per_s" on SIM, "peer timer expiries"),
    layer!(exact "obs.count.ev_session", "count", Lower, "ops_per_s" on SIM, "login, logout, next-video and watch-end events"),
    // sim.shard
    layer!(exact "sim.shard.epochs", "count", Lower, "ops_per_s" on SCALE_TRACED, "conservative epochs of the two-worker run"),
    layer!("sim.shard.events_per_epoch", "count", Higher, "ops_per_s" on SCALE_TRACED, "events over epochs"),
    layer!("sim.shard.epoch_compute_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "shard compute time summed over shards, two workers"),
    layer!("sim.shard.barrier_stall_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "coordinator wait at epoch barriers, two workers"),
    layer!("sim.shard.merge_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "canonical merge replay, two workers"),
    layer!("sim.shard.cross_shard_share", "ratio", Lower, "ops_per_s" on SCALE_TRACED, "cross-shard deliveries over events, two workers"),
    layer!("sim.shard.imbalance_mean", "ratio", Lower, "ops_per_s" on SCALE_TRACED, "mean per-epoch max/mean shard load, two workers"),
    layer!("sim.shard.workers1_run_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "one rep under Sharded { workers: 1 }: the epoch machinery without a second thread"),
    layer!("sim.shard.workers2_run_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "one rep under Sharded { workers: 2 } (too unsteady on two cores to bound)"),
    layer!("sim.shard.serial_run_s", "s", Lower, "ops_per_s" on SCALE_TRACED, "mean timed rep of the same spec under the serial executor"),
    // net.wire, net.transport
    layer!("net.wire.encode_ns", "ns", Lower, "ops_per_s" on DENSE_TRACED, "one encode_frame"),
    layer!("net.wire.decode_ns", "ns", Lower, "ops_per_s" on DENSE_TRACED, "one decode_frame"),
    layer!(exact "net.wire.bytes_per_frame", "B", Lower, "ops_per_s" on DENSE_TRACED, "mean encoded size including the length prefix"),
    layer!("net.transport.write_read_ns", "ns", Lower, "ops_per_s" on DENSE_TRACED, "one frame through write_frame and read_frame over loopback"),
    // model (simulated time and counts of the SocialTube run)
    layer!(exact "model.playbacks", "count", Higher, "ops_per_s" on SIM, "playbacks started"),
    layer!(exact "model.sim_end_s", "s", Lower, "ops_per_s" on SIM, "simulated time at which the run drained"),
    layer!(exact "model.startup_mean_ms", "ms", Lower, "ops_per_s" on SIM, "mean simulated startup delay"),
    layer!(exact "model.startup_p99_ms", "ms", Lower, "ops_per_s" on SIM, "99th percentile simulated startup delay"),
    layer!(exact "model.peer_bw_p50", "ratio", Higher, "ops_per_s" on SIM, "median normalized peer bandwidth"),
    layer!(exact "model.server_share", "ratio", Lower, "ops_per_s" on SIM, "server bits over all received bits"),
    layer!(exact "model.links_steady", "count", Lower, "ops_per_s" on SIM, "steady-state maintained links"),
    layer!(exact "model.resolved_channel_share", "ratio", Higher, "ops_per_s" on SIM, "searches resolved in the channel overlay"),
    layer!(exact "model.cache_hit_share", "ratio", Higher, "ops_per_s" on SIM, "playbacks started from the session cache"),
    layer!(exact "model.prefetch_hit_share", "ratio", Higher, "ops_per_s" on SIM, "playbacks started from a prefetched chunk"),
    layer!(exact "model.paper_claims_held", "count", Higher, "ops_per_s" on "sim-dense", "how many of the eight Section V ordering claims hold for this seed"),
];

/// Looks a declared end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Looks a declared per-layer metric up by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Checks the table against the benchmark contract's limits. Returns every
/// violation, so one test run shows them all.
pub fn violations() -> Vec<String> {
    let mut bad = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    names.extend(END_TO_END.iter().map(|m| m.name));
    names.extend(PER_LAYER.iter().map(|m| m.name));
    for (i, name) in names.iter().enumerate() {
        if !valid_name(name) {
            bad.push(format!(
                "name {name:?} is outside [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
            ));
        }
        if names[..i].contains(name) {
            bad.push(format!("name {name:?} is used twice"));
        }
    }
    if !(2..=8).contains(&WORKLOADS.len()) {
        bad.push(format!("{} workloads (2 to 8 allowed)", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        bad.push(format!("{} end-to-end metrics (1 to 16)", END_TO_END.len()));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        bad.push(format!("{} per-layer metrics (1 to 128)", PER_LAYER.len()));
    }
    for w in &WORKLOADS {
        if w.why.len() > 200 || w.why.contains('\n') {
            bad.push(format!(
                "workload {}: why must be one line of at most 200",
                w.name
            ));
        }
    }
    for m in &END_TO_END {
        if !valid_unit(m.unit) {
            bad.push(format!("{}: unit {:?}", m.name, m.unit));
        }
        if !(0.0..=0.25).contains(&m.bound) {
            bad.push(format!(
                "{}: bound {} is outside 0 to 0.25",
                m.name, m.bound
            ));
        }
    }
    match end_to_end("setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {}
        _ => bad.push("setup_s (s, lower) must be an end-to-end metric".to_string()),
    }
    for m in &PER_LAYER {
        if !valid_unit(m.unit) {
            bad.push(format!("{}: unit {:?}", m.name, m.unit));
        }
        if end_to_end(m.moves.0).is_none() || m.moves.1.is_empty() {
            bad.push(format!(
                "{}: no (end-to-end metric, workload) target",
                m.name
            ));
        }
    }
    if COMMAND.last() != Some(&"--") {
        bad.push("command must end with `--`, or cargo takes the driver's flags".to_string());
    }
    if COMMAND.len() > 32 || COMMAND.iter().any(|arg| arg.len() > 200) {
        bad.push("command: at most 32 strings of at most 200 characters".to_string());
    }
    for path in COMMAND.iter().chain(&PATHS) {
        if path.starts_with('/') || path.split('/').any(|part| part == "..") {
            bad.push(format!("{path:?} leaves the checkout"));
        }
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        bad.push(format!("run_seconds {RUN_SECONDS} is outside 1 to 60"));
    }
    bad
}

fn quoted(s: &str) -> String {
    // The table holds plain ASCII without quotes or backslashes (a test
    // checks it), so quoting is the whole of escaping.
    format!("\"{s}\"")
}

/// Renders `BENCHMARK.json` exactly as committed at the repo root.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let command: Vec<String> = COMMAND.iter().map(|s| quoted(s)).collect();
    let paths: Vec<String> = PATHS.iter().map(|s| quoted(s)).collect();
    let workloads = list(
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    quoted(w.name),
                    quoted(w.why)
                )
            })
            .collect(),
    );
    let end_to_end = list(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.key()),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = list(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                    quoted(m.name),
                    quoted(m.unit),
                    quoted(m.better.key())
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {workloads}\n  ],\n  \"end_to_end\": [\n    {end_to_end}\n  ],\n  \
         \"per_layer\": [\n    {per_layer}\n  ]\n}}\n",
        command.join(", "),
        paths.join(", "),
    )
}

/// The table as `perf --list` prints it.
pub fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in &WORKLOADS {
        out.push_str(&format!("  {:<14} {}\n", w.name, w.why));
    }
    out.push_str("end-to-end metrics (name, unit, better, bound)\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "  {:<16} {:<6} {:<7} {:<5} {}\n",
            m.name,
            m.unit,
            m.better.key(),
            m.bound,
            m.what
        ));
    }
    out.push_str("per-layer metrics (name, unit, better, moves, on)\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<6} {:<7} {:<15} {:<24} {}{}\n",
            m.name,
            m.unit,
            m.better.key(),
            m.moves.0,
            m.moves.1,
            m.what,
            if m.exact { " [exact]" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_inside_the_contract_limits() {
        let bad = violations();
        assert!(bad.is_empty(), "{}", bad.join("\n"));
    }

    #[test]
    fn name_validator_rejects_what_the_contract_rejects() {
        for ok in ["setup_s", "sim.queue.peak", "sim-dense", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "slash/name",
            "pct%",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("B"));
        assert!(!valid_unit("") && !valid_unit("per second") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn strings_need_no_json_escaping() {
        let texts = WORKLOADS
            .iter()
            .flat_map(|w| [w.name, w.why])
            .chain(COMMAND)
            .chain(PATHS)
            .chain(END_TO_END.iter().flat_map(|m| [m.name, m.unit]))
            .chain(PER_LAYER.iter().flat_map(|m| [m.name, m.unit]));
        for text in texts {
            assert!(
                text.chars()
                    .all(|c| (' '..='~').contains(&c) && c != '"' && c != '\\'),
                "{text:?}"
            );
        }
    }

    #[test]
    fn committed_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json is stale: run `perf --emit-manifest > BENCHMARK.json`"
        );
        let parsed = socialtube_obs::json::parse(&committed).expect("manifest parses");
        let keys = [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ];
        let socialtube_obs::json::Value::Obj(members) = &parsed else {
            panic!("manifest is not an object");
        };
        assert_eq!(
            members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            keys
        );
        assert!(committed.len() <= 64 * 1024);
    }

    /// A package outside the workspace cannot inherit the workspace's
    /// release profile, so this one repeats it; the copy may not drift.
    #[test]
    fn release_profile_is_the_workspace_s() {
        let profile = |manifest: &str| -> Vec<String> {
            let text = std::fs::read_to_string(manifest).expect(manifest);
            text.lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        };
        let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        let workspace = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(own, workspace);
    }
}
