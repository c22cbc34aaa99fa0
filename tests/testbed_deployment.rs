//! Integration tests of the real-TCP testbed (the PlanetLab substitute):
//! the same protocol binaries that run under the simulator must complete a
//! live deployment, and at the testbed's own workload
//! ([`configs::testbed_smoke`]) they must reach the simulator's outcome
//! exactly, however loaded the machine: the testbed runs in protocol time,
//! and a daemon handles an input only once nothing due earlier can still
//! reach it.

use socialtube_experiments::{configs, run_net, MetricsSummary, Protocol, RunSpec};

/// The sim≡TCP metrics fence: runs `protocol` at
/// [`configs::testbed_smoke`], seed 42, through [`RunSpec`] and
/// [`run_net`], asserts the two agree on every metric, and returns the
/// testbed's metrics.
fn assert_testbed_matches_sim(protocol: Protocol) -> MetricsSummary {
    let options = configs::testbed_smoke();
    let sim = RunSpec::new(protocol)
        .options(options.clone())
        .run()
        .metrics;
    let tcp = run_net(protocol, &options)
        .expect("testbed binds localhost")
        .metrics;
    assert_eq!(sim, tcp, "{protocol}: the platforms differ");
    // At least 70 % of the planned playbacks: slack for watch timeouts.
    let workload = &options.workload;
    let planned = options.trace.users as u64
        * u64::from(workload.sessions_per_node * workload.videos_per_session);
    assert!(
        tcp.playbacks * 10 >= planned * 7,
        "{protocol}: playbacks {} of planned {planned}",
        tcp.playbacks
    );
    // Fig 18b's x-axis counts the playbacks the director accepts, as Fig
    // 18a's does: no node watches more videos than its sessions hold.
    let per_node = workload.sessions_per_node * workload.videos_per_session;
    let most_watched = tcp.maintenance_curve.iter().map(|(watched, _)| *watched);
    assert!(
        most_watched.max() <= Some(per_node),
        "{protocol}: maintenance curve {:?} runs past {per_node} videos",
        tcp.maintenance_curve
    );
    tcp
}

#[test]
fn socialtube_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(Protocol::SocialTube);
    // Real traffic moved, and the community served at least part of it
    // once caches warmed up.
    assert!(tcp.total_server_bits > 0);
    assert!(!tcp.maintenance_curve.is_empty());
    assert!(
        tcp.cache_hits + tcp.prefetch_hits + tcp.peer_starts > 0,
        "no P2P effect at all"
    );
    // Link budget respected on the live network too.
    let config = configs::testbed_smoke().socialtube;
    let bound = (config.inner_links + config.inter_links) as f64;
    for (_, links) in &tcp.maintenance_curve {
        assert!(*links <= bound + 1e-9, "link bound violated: {links}");
    }
}

#[test]
fn nettube_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(Protocol::NetTube);
    assert!(tcp.total_peer_bits + tcp.total_server_bits > 0);
}

#[test]
fn socialtube_no_prefetch_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(Protocol::SocialTubeNoPrefetch);
    assert_eq!(tcp.prefetch_hits, 0, "a prefetch hit with prefetching off");
    assert!(tcp.peer_starts > 0, "the community served no start");
}

#[test]
fn nettube_no_prefetch_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(Protocol::NetTubeNoPrefetch);
    assert_eq!(tcp.prefetch_hits, 0, "a prefetch hit with prefetching off");
    assert!(tcp.total_peer_bits > 0, "no overlay traffic");
}

#[test]
fn pavod_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(Protocol::PaVod);
    assert!(
        tcp.total_server_bits >= tcp.total_peer_bits,
        "PA-VoD should be server-heavy: server {} peer {}",
        tcp.total_server_bits,
        tcp.total_peer_bits
    );
}

#[test]
fn deployments_tear_down_cleanly() {
    // Two back-to-back deployments must not clash on ports or threads.
    let mut options = configs::testbed_smoke();
    options.trace.users = 6;
    options.workload.sessions_per_node = 1;
    options.workload.videos_per_session = 2;
    let first = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
    let second = run_net(Protocol::SocialTube, &options).expect("testbed binds localhost");
    assert!(first.metrics.playbacks > 0);
    assert!(second.metrics.playbacks > 0);
}
