//! Pins the sim driver's output against golden files captured before the
//! harness-layer refactor.
//!
//! The harness extraction (`StackBuilder`/`CommandInterpreter`/
//! `SessionDirector`) promises bitwise-identical simulation results: same
//! RNG stream labels, same event ordering, same metrics. These fixtures
//! were rendered by the pre-refactor driver; any drift in the refactored
//! stack shows up as a diff here.
//!
//! The `script_keys_*` fixtures pin, per protocol, the report-key sequence
//! the simulation driver emits for the equivalence suite's scripted
//! workload: the simulator's half of the sim≡TCP comparison.
//!
//! The `trace_*` fixtures pin the generated traces themselves, including
//! the favorites and upload days no simulated run reads.
//!
//! To re-pin after an *intentional* behaviour change, run with
//! `UPDATE_GOLDEN=1` and commit the rewritten fixtures.

use socialtube_experiments::harness::script::{demo_script, four_peer_trace, ReportKey};
use socialtube_experiments::{configs, Protocol, RecorderConfig, RunSpec};
use socialtube_trace::{generate, SharedTrace, TraceConfig};

/// The fixture's content, first rewritten with `got` under `UPDATE_GOLDEN`.
fn golden(fixture: &str, got: &str) -> String {
    let path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("write golden fixture");
    }
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden fixture {path}: {e}"))
}

/// A session run's metrics and totals.
fn render_metrics(spec: RunSpec) -> String {
    let out = spec.run();
    format!(
        "{:#?}\nevents: {}\nsim_end_us: {}\nserver_bits_served: {}\nserver_tracked_peak: {}\n",
        out.metrics,
        out.events,
        out.sim_end.as_micros(),
        out.server_bits_served,
        out.server_tracked_peak,
    )
}

/// A scripted run's report keys, one per line.
fn render_keys(spec: RunSpec) -> String {
    ReportKey::sequence(&spec.run().reports)
        .iter()
        .map(|k| format!("{} {} {}\n", k.kind, k.node, k.video))
        .collect()
}

/// Holds `render(spec)` to `fixture`, then the same rendering with full
/// instrumentation attached: the recorder observes, never mutates, so it
/// must match the plain fixture byte for byte.
fn check(spec: RunSpec, render: fn(RunSpec) -> String, fixture: &str) {
    let protocol = spec.protocol();
    let got = render(spec.clone());
    let want = golden(fixture, &got);
    assert_eq!(
        got, want,
        "{protocol} diverged from the golden file {fixture}"
    );
    assert_eq!(
        render(spec.with_recorder(RecorderConfig::full())),
        want,
        "{protocol} with a recorder attached diverged from {fixture}: \
         instrumentation perturbed the run"
    );
}

fn smoke(protocol: Protocol) -> RunSpec {
    RunSpec::new(protocol).options(configs::smoke_test())
}

#[test]
fn socialtube_matches_pre_refactor_golden() {
    let spec = smoke(Protocol::SocialTube);
    check(spec, render_metrics, "smoke_socialtube_seed42.txt");
}

#[test]
fn nettube_matches_pre_refactor_golden() {
    let spec = smoke(Protocol::NetTube);
    check(spec, render_metrics, "smoke_nettube_seed42.txt");
}

#[test]
fn pavod_matches_pre_refactor_golden() {
    let spec = smoke(Protocol::PaVod);
    check(spec, render_metrics, "smoke_pavod_seed42.txt");
}

/// Pins the simulator's side of the sim≡TCP comparison: each protocol's
/// report keys for [`demo_script`] over [`four_peer_trace`] under the
/// testbed options.
#[test]
fn scripted_keys_match_golden() {
    for protocol in Protocol::ALL {
        let (trace, vids) = four_peer_trace();
        let mut options = configs::testbed();
        options.workload.script = demo_script(&vids);
        let spec = RunSpec::new(protocol)
            .options(options)
            .trace(SharedTrace::new(trace));
        check(
            spec,
            render_keys,
            &format!("script_keys_{}.txt", protocol.key()),
        );
    }
}

/// A trace at seed 42, one line per video (channel, length, bitrate, views,
/// favorites, upload day), per channel (categories, owner) and per user
/// (interests, subscriptions).
fn render_trace(config: &TraceConfig) -> String {
    fn ids(ids: impl Iterator<Item = usize>) -> String {
        ids.map(|i| i.to_string()).collect::<Vec<_>>().join(",")
    }
    let trace = generate(config, 42);
    let mut out = String::new();
    for v in trace.catalog.videos() {
        out += &format!(
            "video {} channel {} length {} bitrate {} views {} favorites {} day {}\n",
            v.id().index(),
            v.channel().index(),
            v.length_secs(),
            v.bitrate_kbps(),
            v.views(),
            v.favorites(),
            v.upload_day(),
        );
    }
    for ch in trace.catalog.channels() {
        out += &format!(
            "channel {} categories {} owner {}\n",
            ch.id().index(),
            ids(ch.categories().iter().map(|c| c.index())),
            trace
                .owner(ch.id())
                .expect("every channel has an owner")
                .index(),
        );
    }
    for u in trace.graph.users() {
        out += &format!(
            "user {} interests {} subscriptions {}\n",
            u.id().index(),
            ids(u.interests().iter().map(|c| c.index())),
            ids(u.subscriptions().iter().map(|c| c.index())),
        );
    }
    out
}

/// Pins the traces of the `demo` scale and the testbed smoke deployment,
/// item by item.
#[test]
fn trace_matches_golden() {
    for (config, fixture) in [
        (configs::demo().trace, "trace_demo_seed42.txt"),
        (configs::testbed_smoke().trace, "trace_net_smoke_seed42.txt"),
    ] {
        let got = render_trace(&config);
        assert_eq!(got, golden(fixture, &got), "trace diverged from {fixture}");
    }
}
