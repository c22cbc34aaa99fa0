//! A daemon's thread budget: its listener and its event loop, plus one
//! reader per inbound connection. Timers, injected delays, paced sends and
//! outbound writes all stay on the event loop.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use socialtube::{Report, SocialTubeConfig, SocialTubePeer, SocialTubeServer};
use socialtube_baselines::Peer;
use socialtube_model::{CatalogBuilder, NodeId};
use socialtube_net::Deployment;
use socialtube_sim::{NetworkOptions, SimDuration, SimRng};

#[test]
fn a_daemon_costs_two_threads_plus_one_per_inbound_connection() {
    const PEERS: u32 = 8;
    let mut b = CatalogBuilder::new();
    let category = b.add_category();
    let channel = b.add_channel([category]);
    let videos: Vec<_> = (0..4).map(|i| b.add_video(channel, 4, i)).collect();
    let catalog = Arc::new(b.build());
    let peer = |i| {
        let config = SocialTubeConfig::default();
        let peer = SocialTubePeer::new(NodeId::new(i), Arc::clone(&catalog), vec![channel], config);
        Peer::SocialTube(peer)
    };
    let server = Box::new(SocialTubeServer::new(Arc::clone(&catalog), SimRng::seed(7)));
    let peers = (0..PEERS).map(peer).collect();
    let network = NetworkOptions {
        server_bandwidth_bps: 50_000_000,
        peer_upload_bps: 20_000_000,
        latency_min: SimDuration::from_millis(10),
        latency_max: SimDuration::from_millis(60),
    };
    let root = SimRng::seed(42);
    let deployment =
        Deployment::spawn(Arc::clone(&catalog), peers, server, &network, &root).expect("spawn");

    // One after the other, every peer logs in and watches a video, so each
    // finds the earlier ones in its channel community.
    let mut events = Vec::new();
    for (i, &video) in (0..PEERS).zip(videos.iter().cycle()) {
        let node = NodeId::new(i);
        let now = deployment.now();
        deployment.login(node, now);
        deployment.watch(node, video, now);
        let deadline = now + SimDuration::from_secs(5);
        while let Some(event) = deployment.recv_until(deadline) {
            events.push(event);
            if matches!(event.report, Report::PlaybackStarted { node: n, .. } if n == node) {
                break;
            }
        }
    }

    // A thread that exits mid-read is left out.
    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs is mounted")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .collect();
    let readers = names.iter().filter(|n| n.starts_with("reader-")).count();
    let outcome = deployment.finish(events, SimDuration::from_millis(100));

    let playbacks = outcome.events.iter();
    let playbacks = playbacks.filter(|e| matches!(e.report, Report::PlaybackStarted { .. }));
    assert_eq!(playbacks.count(), PEERS as usize);
    assert!(
        outcome.events.iter().any(|e| e.links > 0),
        "the channel community formed no links"
    );
    // Two per daemon, one per inbound connection, and this binary's main
    // and test threads with one to spare.
    let budget = 2 * (PEERS as usize + 1) + readers + 3;
    assert!(
        names.len() <= budget,
        "{} threads for {readers} readers: {names:?}",
        names.len()
    );
}
