//! Cross-platform equivalence: one protocol stack, two substrates.
//!
//! Each test runs the same deterministic four-peer script through the
//! simulation driver ([`RunSpec`]) and the TCP testbed driver
//! ([`run_net_on`]: real sockets, injected latency), the very loops that
//! produce the figures, then asserts both platforms emitted the identical
//! ordered sequence of report keys. This is the executable form of the
//! sans-IO contract: the protocol cannot tell which platform it runs on.
//!
//! Both platforms run in protocol time, so no scheduler decides the order.
//! The script spaces actions two seconds apart so every search timeout and
//! transfer chain resolves before the next action.

use socialtube_experiments::harness::script::{demo_script, four_peer_trace, ReportKey};
use socialtube_experiments::net_driver::run_net_on;
use socialtube_experiments::{configs, Protocol, RunSpec};
use socialtube_trace::SharedTrace;

fn assert_platforms_agree(protocol: Protocol) {
    let (trace, vids) = four_peer_trace();
    let shared = SharedTrace::new(trace);
    let mut options = configs::testbed();
    options.workload.script = demo_script(&vids);

    let sim = RunSpec::new(protocol)
        .options(options.clone())
        .trace(shared.clone())
        .run();
    let net = run_net_on(&shared, protocol, &options).expect("testbed binds localhost");
    let sim_keys = ReportKey::sequence(&sim.reports);
    let tcp_keys = ReportKey::sequence(net.outcome.events.iter().map(|e| &e.report));

    assert!(
        !sim_keys.is_empty(),
        "{protocol}: scripted run produced no reports"
    );
    assert_eq!(
        sim_keys, tcp_keys,
        "{protocol}: simulator and TCP testbed diverged"
    );
}

#[test]
fn socialtube_reports_match_across_platforms() {
    assert_platforms_agree(Protocol::SocialTube);
}

#[test]
fn socialtube_no_prefetch_reports_match_across_platforms() {
    assert_platforms_agree(Protocol::SocialTubeNoPrefetch);
}

#[test]
fn nettube_reports_match_across_platforms() {
    assert_platforms_agree(Protocol::NetTube);
}

#[test]
fn nettube_no_prefetch_reports_match_across_platforms() {
    assert_platforms_agree(Protocol::NetTubeNoPrefetch);
}

#[test]
fn pavod_reports_match_across_platforms() {
    assert_platforms_agree(Protocol::PaVod);
}
