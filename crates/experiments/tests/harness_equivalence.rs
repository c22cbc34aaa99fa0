//! Cross-platform equivalence: one protocol stack, two substrates.
//!
//! Each test replays the same deterministic four-peer script through the
//! discrete-event simulator and through the live TCP testbed (real sockets,
//! injected latency), then asserts both platforms emitted the identical
//! ordered sequence of report keys. This is the executable form of the
//! sans-IO contract: the protocol cannot tell which platform it runs on.
//!
//! The script spaces actions two seconds apart so every search timeout and
//! transfer chain resolves before the next action — the report order is
//! then forced by protocol causality, not by scheduler timing.

use socialtube_experiments::harness::script::{
    demo_script, four_peer_trace, run_script_sim, run_script_tcp,
};
use socialtube_experiments::{configs, Protocol};

fn assert_platforms_agree(protocol: Protocol) {
    let (trace, vids) = four_peer_trace();
    let script = demo_script(&vids);
    let options = configs::testbed();

    let sim_keys = run_script_sim(protocol, &trace, &script, &options);
    let tcp_keys =
        run_script_tcp(protocol, &trace, &script, &options).expect("testbed binds localhost");

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
