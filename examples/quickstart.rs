//! Quickstart: drive one SocialTube peer by hand, then run a small
//! trace-driven simulation.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use socialtube::{Command, Outbox, SocialTubeConfig, SocialTubePeer, VodPeer};
use socialtube_experiments::{configs, Protocol, RunSpec};
use socialtube_model::CatalogBuilder;
use socialtube_model::NodeId;
use socialtube_sim::SimTime;

fn main() {
    // ------------------------------------------------------------------
    // 1. The sans-IO peer: a pure state machine you can poke directly.
    // ------------------------------------------------------------------
    let mut builder = CatalogBuilder::new();
    let news = builder.add_category();
    let reuters = builder.add_channel([news]);
    let clip = builder.add_video(reuters, 90, 0);
    builder.set_views(clip, 12_000);
    let catalog = Arc::new(builder.build());

    let mut peer = SocialTubePeer::new(
        NodeId::new(0),
        Arc::clone(&catalog),
        vec![reuters],
        SocialTubeConfig::default(),
    );
    let mut out = Outbox::new();
    peer.on_login(SimTime::ZERO, &mut out);
    peer.watch(SimTime::ZERO, clip, &mut out);

    println!("A freshly joined subscriber watching its first video emits:");
    for cmd in out.drain() {
        match cmd {
            Command::ToServer { msg } => println!("  -> server: {}", msg.tag()),
            Command::ToPeer { to, msg } => println!("  -> {to}: {}", msg.tag()),
            Command::Timer { delay, kind } => println!("  timer {kind:?} in {delay}"),
            Command::Report(r) => println!("  report: {r:?}"),
        }
    }

    // ------------------------------------------------------------------
    // 2. The same protocol under the discrete-event simulator.
    // ------------------------------------------------------------------
    println!("\nRunning a small trace-driven simulation (SocialTube)...");
    let options = configs::smoke_test();
    let outcome = RunSpec::new(Protocol::SocialTube).options(options).run();
    let m = &outcome.metrics;
    println!("  playbacks started:        {}", m.playbacks);
    println!(
        "  mean startup delay:       {:.0} ms",
        m.mean_startup_delay_ms
    );
    println!(
        "  normalized peer bandwidth: p50 = {:.2}",
        m.peer_bandwidth_percentiles.p50
    );
    println!(
        "  instant starts:           {} from cache, {} from prefetched chunks",
        m.cache_hits, m.prefetch_hits
    );
    println!("  events simulated:         {}", outcome.events);
}
