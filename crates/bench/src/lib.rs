//! Figure regeneration and campaign sweeps for the SocialTube reproduction.
//!
//! * `src/bin/figures.rs` — regenerates **every table and figure** of the
//!   paper (Table I, Figs 2–13, 15, 16a/b, 17a/b, 18a/b, the prefetch
//!   analysis) plus the ablation studies. Each target is one
//!   `socialtube_experiments::figures` function returning a `Table`; the
//!   bin parses arguments, prepares the trace / simulated campaign / TCP
//!   runs the chosen targets read, and emits each table — its rows
//!   through [`write_table`], the one CSV function, to `target/figures/`,
//!   and the table's `Display` to stdout (a result table's rows, a
//!   series' summary, and the paper-versus-measured lines of both).
//! * `src/bin/campaign.rs` — runs a protocols × seeds sweep serially and
//!   on worker threads, checks the two agree bitwise, and writes a JSON
//!   report plus optional recorder artifacts.
//!
//! Run `cargo run -p socialtube-bench --bin figures -- all` for the whole
//! evaluation, or name an individual target (`fig16a`, `fig9`, ...).
//! Performance is measured by the benchmark package under `perf/`, not
//! here.

#![warn(unreachable_pub)]

pub mod csv;

pub use csv::write_table;
use socialtube_experiments::{configs, ExperimentOptions};

/// The `--scale` both bins take.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per protocol; qualitative shape only.
    Demo,
    /// The scaled-down Table I (2,000 nodes); minutes per protocol.
    Figure,
    /// The paper's full Table I (10,000 nodes); expect long runtimes.
    Full,
}

impl Scale {
    /// Parses `demo`, `figure` or `full`.
    pub fn parse(name: &str) -> Option<Scale> {
        [Scale::Demo, Scale::Figure, Scale::Full]
            .into_iter()
            .find(|scale| scale.name() == name)
    }

    /// The name [`parse`](Scale::parse) accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Demo => "demo",
            Scale::Figure => "figure",
            Scale::Full => "full",
        }
    }

    /// The simulation options behind this scale, rooted at `seed` (the
    /// bins' `--seed`).
    pub fn sim_options(self, seed: u64) -> ExperimentOptions {
        let mut options = match self {
            Scale::Demo => configs::demo(),
            Scale::Figure => configs::figure_scale(),
            Scale::Full => configs::table1(),
        };
        options.seed = seed;
        options
    }

    /// The TCP testbed options behind this scale, rooted at `seed`: the
    /// 16-peer smoke deployment at `demo`, the PlanetLab-shaped one above.
    pub fn testbed_options(self, seed: u64) -> ExperimentOptions {
        let mut options = match self {
            Scale::Demo => configs::testbed_smoke(),
            Scale::Figure | Scale::Full => configs::testbed_planetlab(),
        };
        options.seed = seed;
        options
    }
}

/// Reports a command-line mistake and exits 2, before any work starts.
pub fn usage_error(message: impl std::fmt::Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every scale's options carry the seed they are asked for, so no
    /// target (the ablations included) can run at another one.
    #[test]
    fn every_scale_carries_the_requested_seed() {
        for scale in [Scale::Demo, Scale::Figure, Scale::Full] {
            for seed in [7, 42] {
                assert_eq!(scale.sim_options(seed).seed, seed, "{}", scale.name());
                assert_eq!(scale.testbed_options(seed).seed, seed, "{}", scale.name());
            }
        }
    }
}
