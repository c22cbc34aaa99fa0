//! Run the paper's three-way protocol comparison (SocialTube vs NetTube vs
//! PA-VoD) under the discrete-event simulator and print the evaluation
//! metrics of Figs 16–18 with the eight Section V claims.
//!
//! ```text
//! cargo run --release --example simulate_comparison
//! ```

use socialtube_experiments::figures::{fig16, fig17, fig18, sim_claims, Platform};
use socialtube_experiments::{configs, Campaign};

fn main() {
    let options = configs::smoke_test_long();
    println!(
        "Simulating {} nodes × {} sessions × {} videos for 5 protocol variants ...",
        options.trace.users,
        options.workload.sessions_per_node,
        options.workload.videos_per_session
    );
    let report = Campaign::new(options.clone()).run();
    let replicate = report.replicate(options.seed);
    let claims = sim_claims(&report, options.seed, &options.socialtube);

    for figure in [fig16, fig17, fig18] {
        println!("\n{}", figure(Platform::Sim, &replicate, &claims));
    }
    let held = claims.iter().filter(|c| c.held == Some(true)).count();
    println!("\n{held} of {} Section V claims held.", claims.len());
}
