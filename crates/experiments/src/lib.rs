//! Trace-driven experiment harness for the SocialTube evaluation.
//!
//! Reassembles the paper's Section V methodology:
//!
//! * [`workload`] — the session model both platforms replay
//!   ([`WorkloadConfig`], [`harness::SessionDirector`]): each node runs a
//!   fixed number of sessions of ten videos, with Poisson off-times; each
//!   next video is picked 75% from the same channel, 15% from the same
//!   category, 10% from a different category, and each watch lasts the
//!   video's length or a fixed dwell ([`WatchTime`]). A workload can
//!   instead be a fixed script of [`ScriptStep`]s, which both platforms
//!   also run.
//! * [`harness`] — the shared protocol-harness layer: the single
//!   `Protocol` → stack construction site ([`harness::StackBuilder`]), the
//!   session director and the simulator's substrate, all reused verbatim
//!   by the TCP testbed driver.
//! * [`driver`] — the discrete-event simulation driver (PeerSim role):
//!   binds any [`VodPeer`](socialtube::VodPeer)/[`VodServer`](socialtube::VodServer)
//!   pair to the engine, modelling propagation latency, per-peer upload
//!   links and the server's bounded pipe.
//! * [`metrics`] — the three evaluation metrics: startup delay, normalized
//!   peer bandwidth (1st/50th/99th percentiles), and overlay maintenance
//!   overhead versus videos watched.
//! * [`recording`] — the report→[`Recorder`](socialtube_obs::Recorder)
//!   mapping behind [`RunSpec::with_recorder`]: resolution split, search
//!   hops, cache/prefetch hits and run timelines, captured without
//!   perturbing the run.
//! * [`configs`] — Table I parameters, its scaled-down variants, the TCP
//!   testbed's presets and [`configs::root_rng`], both platforms' root.
//! * [`figures`] — the evaluation layer: every table and figure is one
//!   function returning a plain [`figures::Table`]; Figs 16–18 read a
//!   replicate (`&[(Protocol, &MetricsSummary)]`) from either platform, and
//!   [`figures::claims`] is the one statement of the eight Section V
//!   orderings.
//! * [`campaign`] — multi-run fan-out: expands a protocols × seeds grid
//!   into [`RunSpec`]s, shares one trace per seed, executes on worker
//!   threads, and aggregates mean/min/max/CI per protocol. The paper's
//!   five-variant comparison is a one-seed campaign.
//!
//! # Examples
//!
//! Run a small SocialTube simulation end to end:
//!
//! ```
//! use socialtube_experiments::{configs, Protocol, RunSpec};
//!
//! let outcome = RunSpec::new(Protocol::SocialTube)
//!     .options(configs::smoke_test())
//!     .run();
//! assert!(outcome.metrics.playbacks > 0);
//! ```
//!
//! Share one trace across variants, as the paper's methodology requires:
//!
//! ```no_run
//! use socialtube_experiments::{configs, Protocol, RunSpec};
//! use socialtube_trace::generate_shared;
//!
//! let options = configs::smoke_test();
//! let shared = generate_shared(&options.trace, options.seed);
//! for protocol in Protocol::ALL {
//!     let outcome = RunSpec::new(protocol)
//!         .options(options.clone())
//!         .trace(shared.clone())
//!         .run();
//!     println!("{protocol}: {} playbacks", outcome.metrics.playbacks);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod configs;
pub mod driver;
pub mod figures;
pub mod harness;
pub mod metrics;
pub mod net_driver;
pub mod recording;
pub mod workload;

pub use campaign::{
    Aggregate, Campaign, CampaignCell, CampaignReport, PlannedRun, ProtocolSummary,
};
pub use configs::{ExperimentOptions, NetworkOptions};
pub use driver::{ExecutionProfile, RunSpec, ShardLoad, SimOutcome};
pub use metrics::{MetricsCollector, MetricsSummary};
pub use net_driver::{run_net, NetRun};
pub use socialtube_obs::{
    Dim, MetricsSnapshot, ProgressConfig, ProgressSink, RecorderConfig, RunRecording,
};
pub use workload::{ScriptAction, ScriptStep, WatchTime, WorkloadConfig};

/// Which protocol variant an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// SocialTube with channel-facilitated prefetching.
    SocialTube,
    /// SocialTube with prefetching disabled (Fig 17 "w/o PF").
    SocialTubeNoPrefetch,
    /// NetTube with random-neighbor prefetching.
    NetTube,
    /// NetTube with prefetching disabled.
    NetTubeNoPrefetch,
    /// PA-VoD (no overlay, no cache, no prefetching).
    PaVod,
}

impl Protocol {
    /// All variants, in the order the paper's figures present them.
    pub const ALL: [Protocol; 5] = [
        Protocol::PaVod,
        Protocol::SocialTube,
        Protocol::SocialTubeNoPrefetch,
        Protocol::NetTube,
        Protocol::NetTubeNoPrefetch,
    ];

    /// Display label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::SocialTube => "SocialTube w/ PF",
            Protocol::SocialTubeNoPrefetch => "SocialTube w/o PF",
            Protocol::NetTube => "NetTube w/ PF",
            Protocol::NetTubeNoPrefetch => "NetTube w/o PF",
            Protocol::PaVod => "PA-VoD",
        }
    }

    /// Stable machine-readable key: what [`FromStr`](std::str::FromStr)
    /// parses and CLIs/report files use.
    pub fn key(self) -> &'static str {
        match self {
            Protocol::SocialTube => "socialtube",
            Protocol::SocialTubeNoPrefetch => "socialtube-nopf",
            Protocol::NetTube => "nettube",
            Protocol::NetTubeNoPrefetch => "nettube-nopf",
            Protocol::PaVod => "pavod",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Which executor a run uses — the single selection point for serial
/// versus sharded execution (see `DESIGN.md`, "Sharded execution").
///
/// Both executors produce bitwise-identical outcomes for the same spec;
/// sharding changes only how the event load is processed. The default is
/// [`Execution::Serial`]. A recording differs: only the serial loop
/// samples the server's per-minute `backlog_ms` series, so a sharded
/// recording has none (its shard tracks carry `queue_depth` and `events`).
///
/// It is a library choice with two callers, the serial≡sharded differential
/// tests and the benchmark's traced run (`perf/`); no CLI exposes it, and
/// sharded runs are slower than serial in every measurement so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Execution {
    /// One engine, one thread: the reference executor.
    #[default]
    Serial,
    /// The run's peers are partitioned by interest community across
    /// `workers` shards, each advancing its own event queue in
    /// conservative epochs.
    Sharded {
        /// Number of shards (= worker threads). Must be at least 1.
        workers: usize,
    },
}

/// Error parsing a [`Protocol`] from a string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseProtocolError {
    input: String,
}

impl std::fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown protocol {:?} (expected one of: {})",
            self.input,
            Protocol::ALL.map(Protocol::key).join(", ")
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl std::str::FromStr for Protocol {
    type Err = ParseProtocolError;

    /// Parses a [`key`](Protocol::key) (case-insensitive) or a figure
    /// [`label`](Protocol::label), so both CLI arguments and report files
    /// round-trip.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let trimmed = s.trim();
        Protocol::ALL
            .into_iter()
            .find(|p| p.key().eq_ignore_ascii_case(trimmed) || p.label() == trimmed)
            .ok_or_else(|| ParseProtocolError {
                input: trimmed.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_key_round_trips_through_from_str() {
        for p in Protocol::ALL {
            assert_eq!(p.key().parse::<Protocol>(), Ok(p), "key {}", p.key());
            assert_eq!(
                p.key().to_uppercase().parse::<Protocol>(),
                Ok(p),
                "keys parse case-insensitively"
            );
            assert_eq!(p.label().parse::<Protocol>(), Ok(p), "label {}", p.label());
            assert_eq!(
                p.to_string().parse::<Protocol>(),
                Ok(p),
                "Display round-trips"
            );
        }
    }

    #[test]
    fn unknown_protocol_name_is_an_error() {
        let err = "gnutella".parse::<Protocol>().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gnutella"), "{msg}");
        assert!(msg.contains("socialtube-nopf"), "{msg}");
    }

    #[test]
    fn execution_defaults_to_serial() {
        assert_eq!(Execution::default(), Execution::Serial);
    }
}
