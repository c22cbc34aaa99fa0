//! Deploy a real SocialTube swarm over TCP sockets on localhost — the
//! PlanetLab-style experiment — and watch the community overlay serve
//! videos peer-to-peer.
//!
//! ```text
//! cargo run --release --example live_swarm
//! ```

use socialtube_experiments::{configs, run_net, Protocol};

fn main() {
    let options = configs::testbed_smoke();
    println!(
        "Deploying {} peer daemons + tracker over localhost TCP ({} sessions × {} videos each) ...",
        options.trace.users,
        options.workload.sessions_per_node,
        options.workload.videos_per_session
    );

    for protocol in [Protocol::SocialTube, Protocol::PaVod] {
        println!("\n--- {protocol} ---");
        let run = run_net(protocol, &options).expect("testbed binds localhost sockets");
        let m = &run.metrics;
        println!(
            "  wall time:                 {:.1} s",
            run.outcome.wall_time.as_secs_f64()
        );
        println!("  playbacks:                 {}", m.playbacks);
        println!(
            "  mean startup delay:        {:.0} ms",
            m.mean_startup_delay_ms
        );
        println!(
            "  peer / server traffic:     {} / {} Mbit",
            m.total_peer_bits / 1_000_000,
            m.total_server_bits / 1_000_000
        );
        println!(
            "  instant starts:            {} cache hits + {} prefetch hits",
            m.cache_hits, m.prefetch_hits
        );
        if let Some((k, links)) = m.maintenance_curve.last() {
            println!("  links after {k} videos:      {links:.1}");
        }
    }
    println!("\nEvery message above crossed a real socket with injected WAN latency.");
}
