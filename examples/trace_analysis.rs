//! Regenerate the paper's Section III trace analysis on a synthetic
//! YouTube social network, including the BFS-crawl methodology.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use socialtube_experiments::figures;
use socialtube_trace::{crawl, generate, TraceConfig};

fn main() {
    let config = TraceConfig::default();
    println!(
        "Generating a YouTube-like network: {} users, {} channels, {} videos ...",
        config.users, config.channels, config.videos
    );
    let trace = generate(&config, 42);

    // Figs 2–13, the evidence for observations O1–O5: the same tables the
    // `figures` bin writes, here without their CSV series.
    let section3 = [
        figures::fig2,
        figures::fig3,
        figures::fig4,
        figures::fig5,
        figures::fig6,
        figures::fig7,
        figures::fig8,
        figures::fig9,
        figures::fig10,
        figures::fig11,
        figures::fig12,
        figures::fig13,
    ];
    for figure in section3 {
        println!("\n{}", figure(&trace));
    }

    // The paper's crawl methodology: a partial BFS preserves the shapes.
    let sample = crawl(&trace, config.users / 4, 7);
    println!(
        "\nBFS crawl (paper methodology): visited {} users ({:.0}% of the graph), discovered {} channels and {} videos",
        sample.users.len(),
        sample.coverage(&trace) * 100.0,
        sample.channels.len(),
        sample.videos.len()
    );
}
