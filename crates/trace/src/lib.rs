//! Synthetic YouTube trace generation and analysis.
//!
//! The paper's evaluation is *trace-driven*: the authors crawled the YouTube
//! social network via the Data API (20,310 users, 261,110 videos, uploads
//! from Jan 2006 to Sept 2010) and derived the distributions that both
//! justify SocialTube's design (Section III, Figs 2–13) and parameterize the
//! simulations (Section V). That crawl is not available, so this crate
//! rebuilds the pipeline end to end:
//!
//! 1. [`generate`] synthesizes a YouTube-like social network whose marginal
//!    distributions match the paper's reported statistics: Zipf
//!    within-channel video popularity, heavy-tailed channel popularity and
//!    subscriber counts, channels focused on few categories, users with few
//!    interests subscribing mostly within them, favorites strongly
//!    correlated with views, and accelerating upload volume.
//!    Each calibration value is one named constant there, beside the figure
//!    it fits; [`TraceConfig`] sets only the scale and the few values a
//!    preset changes.
//! 2. [`crawl`] samples the synthetic network with a breadth-first search,
//!    mirroring the paper's crawl methodology (Section III notes BFS
//!    sampling preserves the metrics they study).
//! 3. [`analysis`] recomputes every trace statistic of Section III — one
//!    function per figure — and [`stats`] provides the CDF/percentile/
//!    correlation machinery they share.
//!
//! A trace is a pure function of `(TraceConfig, seed)`: every run, figure
//! and test regenerates it rather than storing it, so there is no trace
//! file format. [`SharedTrace`] hands one trace, and the one catalog inside
//! it, to many runs at once.
//!
//! # Examples
//!
//! ```
//! use socialtube_trace::{TraceConfig, generate};
//!
//! let trace = generate(&TraceConfig::tiny(), 42);
//! assert!(trace.catalog.video_count() > 0);
//! let fig7 = socialtube_trace::analysis::video_view_distribution(&trace);
//! assert!(fig7.quantile(0.9) >= fig7.quantile(0.5));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod crawler;
pub mod distributions;
mod generator;
mod shared;
pub mod stats;

mod config;

pub use config::TraceConfig;
pub use crawler::{crawl, CrawlSample};
pub use generator::{generate, Trace};
pub use shared::{generate_shared, SharedTrace};
