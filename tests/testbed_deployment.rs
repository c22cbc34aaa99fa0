//! Integration tests of the real-TCP testbed (the PlanetLab substitute):
//! the same protocol binaries that run under the simulator must complete a
//! live deployment, and at the testbed's own workload
//! ([`configs::testbed_smoke`]) they must reach the simulator's outcome:
//! exactly, when no input reached a daemon late. The driver hands every
//! user action to its daemon before it falls due, so only a delivery
//! whose sender or reader stalled past its injected delay can be late;
//! each run prints its `NetOutcome::late_inputs` under `-- --nocapture`.

use socialtube_experiments::{configs, run_net, MetricsSummary, Protocol, RunSpec};

/// How far the testbed may stray from the simulator on the counts the
/// metrics fence compares, as absolute differences. Each bound is twice the
/// largest difference seen in 15 debug-build runs on two cores, 5 of them
/// with both cores kept busy (the runs are listed in CHANGES.md); where
/// every run matched exactly, the bound is 2 starts and 128 kbit of server
/// traffic.
struct Tolerance {
    fallbacks: u64,
    peer_starts: u64,
    server_starts: u64,
    server_bits: u64,
}

/// The sim≡TCP metrics fence: runs `protocol` at
/// [`configs::testbed_smoke`], seed 42, through [`RunSpec`] and
/// [`run_net`], asserts the two agree on playbacks exactly and on server
/// fallbacks, peer starts, server starts and server bits within
/// `tolerance`, and on every metric exactly if no daemon handled an input
/// late (after a later-due one), and returns the testbed's metrics.
fn assert_testbed_matches_sim(protocol: Protocol, tolerance: &Tolerance) -> MetricsSummary {
    let options = configs::testbed_smoke();
    let sim = RunSpec::new(protocol)
        .options(options.clone())
        .run()
        .metrics;
    let run = run_net(protocol, &options).expect("testbed binds localhost");
    let (tcp, late) = (run.metrics, run.outcome.late_inputs);
    println!("{protocol}: {late} late inputs");
    // At least 70 % of the planned playbacks: slack for watch timeouts.
    let workload = &options.workload;
    let planned = options.trace.users as u64
        * u64::from(workload.sessions_per_node * workload.videos_per_session);
    assert!(
        tcp.playbacks * 10 >= planned * 7,
        "{protocol}: playbacks {} of planned {planned}, {late} late inputs",
        tcp.playbacks
    );
    assert_eq!(
        sim.playbacks, tcp.playbacks,
        "{protocol}: playbacks, {late} late inputs"
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
    for (name, sim, tcp, bound) in [
        (
            "server fallbacks",
            sim.server_fallbacks,
            tcp.server_fallbacks,
            tolerance.fallbacks,
        ),
        (
            "peer starts",
            sim.peer_starts,
            tcp.peer_starts,
            tolerance.peer_starts,
        ),
        (
            "server starts",
            sim.server_starts,
            tcp.server_starts,
            tolerance.server_starts,
        ),
        (
            "server bits",
            sim.total_server_bits,
            tcp.total_server_bits,
            tolerance.server_bits,
        ),
    ] {
        assert!(
            sim.abs_diff(tcp) <= bound,
            "{protocol}: {name} sim {sim} vs TCP {tcp}, tolerance {bound}, {late} late inputs"
        );
    }
    if late == 0 {
        assert_eq!(
            sim, tcp,
            "{protocol}: no input ran late, yet the platforms differ"
        );
    }
    tcp
}

#[test]
fn socialtube_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(
        Protocol::SocialTube,
        &Tolerance {
            fallbacks: 14,
            peer_starts: 6,
            server_starts: 10,
            server_bits: 6_912_000,
        },
    );
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
    let tcp = assert_testbed_matches_sim(
        Protocol::NetTube,
        &Tolerance {
            fallbacks: 6,
            peer_starts: 12,
            server_starts: 14,
            server_bits: 5_760_000,
        },
    );
    assert!(tcp.total_peer_bits + tcp.total_server_bits > 0);
}

#[test]
fn socialtube_no_prefetch_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(
        Protocol::SocialTubeNoPrefetch,
        &Tolerance {
            fallbacks: 4,
            peer_starts: 4,
            server_starts: 4,
            server_bits: 2_048_000,
        },
    );
    assert_eq!(tcp.prefetch_hits, 0, "a prefetch hit with prefetching off");
    assert!(tcp.peer_starts > 0, "the community served no start");
}

#[test]
fn nettube_no_prefetch_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(
        Protocol::NetTubeNoPrefetch,
        &Tolerance {
            fallbacks: 2,
            peer_starts: 2,
            server_starts: 2,
            server_bits: 128_000,
        },
    );
    assert_eq!(tcp.prefetch_hits, 0, "a prefetch hit with prefetching off");
    assert!(tcp.total_peer_bits > 0, "no overlay traffic");
}

#[test]
fn pavod_testbed_matches_the_simulator() {
    let tcp = assert_testbed_matches_sim(
        Protocol::PaVod,
        &Tolerance {
            fallbacks: 2,
            peer_starts: 2,
            server_starts: 2,
            server_bits: 128_000,
        },
    );
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
