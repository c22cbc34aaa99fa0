//! Integration tests of the real-TCP testbed (the PlanetLab substitute):
//! the same protocol binaries that run under the simulator must complete a
//! live deployment with sane metrics.

use socialtube_experiments::net_driver::{run_net, NetExperimentOptions};
use socialtube_experiments::Protocol;

#[test]
fn socialtube_swarm_runs_over_real_sockets() {
    let options = NetExperimentOptions::smoke_test();
    let run = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
    let experiment = &options.experiment;
    let expected = experiment.trace.users as u64
        * u64::from(experiment.workload.sessions_per_node)
        * u64::from(experiment.workload.videos_per_session);
    assert!(
        run.metrics.playbacks as f64 >= expected as f64 * 0.7,
        "playbacks {} of expected {expected}",
        run.metrics.playbacks
    );
    // Real traffic moved, and the community served at least part of it
    // once caches warmed up.
    assert!(run.metrics.total_server_bits > 0);
    assert!(!run.metrics.maintenance_curve.is_empty());
    assert!(
        run.metrics.cache_hits + run.metrics.prefetch_hits + run.metrics.peer_starts > 0,
        "no P2P effect at all"
    );
    // Link budget respected on the live network too.
    let bound = (experiment.socialtube.inner_links + experiment.socialtube.inter_links) as f64;
    for (_, links) in &run.metrics.maintenance_curve {
        assert!(*links <= bound + 1e-9, "link bound violated: {links}");
    }
}

#[test]
fn nettube_swarm_runs_over_real_sockets() {
    let options = NetExperimentOptions::smoke_test();
    let run = run_net(Protocol::NetTube, &options).expect("testbed binds localhost");
    assert!(run.metrics.playbacks > 0);
    assert!(run.metrics.total_peer_bits + run.metrics.total_server_bits > 0);
}

#[test]
fn deployments_tear_down_cleanly() {
    // Two back-to-back deployments must not clash on ports or threads.
    let mut options = NetExperimentOptions::smoke_test();
    options.experiment.trace.users = 6;
    options.experiment.workload.sessions_per_node = 1;
    options.experiment.workload.videos_per_session = 2;
    let first = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
    let second = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
    assert!(first.metrics.playbacks > 0);
    assert!(second.metrics.playbacks > 0);
}
