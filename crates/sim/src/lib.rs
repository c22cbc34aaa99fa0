//! Deterministic discrete-event simulation engine.
//!
//! This crate is the workspace's substitute for **PeerSim**, the event-driven
//! P2P simulator the paper used for its large-scale evaluation (Section V).
//! It provides:
//!
//! * a virtual clock with microsecond resolution ([`SimTime`], [`SimDuration`]),
//! * a stable-ordered event queue ([`EventQueue`]) and a driver loop
//!   ([`Engine`]),
//! * seeded, stream-splittable randomness ([`SimRng`]) so every run is
//!   reproducible from a single `u64` seed,
//! * a pairwise [`LatencyModel`] standing in for Internet propagation delays,
//! * a [`ServerQueue`] modelling the origin server's bounded upload capacity
//!   (the source of the server-overload delays the paper observes), and
//!   an [`UploadScheduler`] modelling per-peer upload bandwidth, all three
//!   built from one [`NetworkOptions`] on either platform.
//!
//! The engine is domain-agnostic: protocol crates define their own event
//! payload type and drive the loop, and the experiment crate owns the
//! paper's workload (sessions, off times, video selection).
//!
//! # Examples
//!
//! ```
//! use socialtube_sim::{Engine, SimDuration, SimTime};
//!
//! let mut engine: Engine<&'static str> = Engine::new();
//! engine.schedule_at(SimTime::ZERO + SimDuration::from_secs(2), "world");
//! engine.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), "hello");
//!
//! let mut seen = Vec::new();
//! while let Some((time, event)) = engine.next_event() {
//!     seen.push((time.as_secs_f64(), event));
//! }
//! assert_eq!(seen, vec![(1.0, "hello"), (2.0, "world")]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bandwidth;
mod engine;
mod latency;
mod network;
mod queue;
mod rng;
mod sampler;
mod shard;
mod time;

pub use bandwidth::{ServerQueue, UploadScheduler};
pub use engine::Engine;
pub use latency::LatencyModel;
pub use network::NetworkOptions;
pub use queue::{EventQueue, QueueOccupancy};
pub use rng::SimRng;
pub use sampler::PeriodicSampler;
pub use shard::{
    epoch_length, Delivery, EpochLog, EpochReplay, EventScheduler, MergeState, ShardEngine,
    CASCADE_SEQ_BASE, EPOCH_ALIGN_US,
};
pub use time::{SimDuration, SimTime};
