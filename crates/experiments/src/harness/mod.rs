//! The shared protocol harness: one stack, two platforms.
//!
//! The paper evaluates SocialTube twice — under PeerSim (Section V) and on
//! PlanetLab (Section VI) — and the sans-IO design exists so one protocol
//! implementation serves both. This module is where that promise is kept.
//! Everything the discrete-event driver and the TCP testbed used to
//! re-implement separately lives here exactly once:
//!
//! * [`StackBuilder`] — the *single* `Protocol → peers/server` mapping,
//!   built only from the run's [`ExperimentOptions`] (the testbed's
//!   compressed timeouts are option values), with its RNG stream labels.
//!   Its one by-value method, [`StackBuilder::build_peers`], gives both
//!   platforms the same [`Peer`](socialtube_baselines::Peer) values: the
//!   simulator's slot vector and the testbed's daemons hold them alike.
//!   [`ProtocolStack`] boxes them only for the benchmark under `perf/`.
//! * [`SessionDirector`] — the workload state machine from
//!   the `workload` module: login stagger, off periods, abrupt-departure
//!   draws, video selection and, in [`advance`](SessionDirector::advance),
//!   which call follows which session event. Both platforms replay it; only
//!   *when* they ask for its events differs (as each falls due in the
//!   virtual event queue, or ahead of time on the testbed, whose daemons
//!   hold each action until its protocol time).
//! * [`SimSubstrate`] — the simulator's implementation of the
//!   [`PeerSubstrate`]/[`ServerSubstrate`] traits from
//!   [`socialtube::harness`]: virtual latency, fluid upload links and the
//!   server's bounded queue, scheduling onto any [`SimEvent`] engine. The
//!   TCP counterpart lives in `socialtube-net`'s daemons: real sockets,
//!   with bulk sends paced by the same FIFO link, on the wall clock.
//! * [`script`] — the cross-platform equivalence fixture: a four-peer
//!   trace, a fixed script over it (a [`WorkloadConfig::script`] that the
//!   simulation driver and the testbed driver both run) and the
//!   [`ReportKey`](script::ReportKey) fingerprint their report streams are
//!   compared by.
//!
//! [`WorkloadConfig::script`]: crate::WorkloadConfig::script
//!
//! ## Who owns what
//!
//! | concern | owner |
//! |---|---|
//! | time | platform (engine clock vs wall clock) |
//! | RNG streams | `configs::root_rng` → `StackBuilder` (protocol) + `SessionDirector` (workload) |
//! | delivery, latency, bandwidth | substrate implementation |
//! | command → effect translation | `CommandInterpreter` (core) |
//! | session/churn/video selection, which call follows which event | `SessionDirector::advance` (or a `WorkloadConfig::script`); the platform performs the action |
//!
//! [`ExperimentOptions`]: crate::ExperimentOptions
//! [`PeerSubstrate`]: socialtube::harness::PeerSubstrate
//! [`ServerSubstrate`]: socialtube::harness::ServerSubstrate

pub mod script;
mod sim;
mod stack;

pub use crate::workload::{SessionDirector, SessionEvent, SessionStep};
pub use sim::{SimEvent, SimSubstrate};
pub use stack::{ProtocolStack, StackBuilder};
