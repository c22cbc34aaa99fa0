//! Real TCP deployment of the VoD protocols — the PlanetLab substitute.
//!
//! The paper validated SocialTube on 250 PlanetLab hosts in addition to the
//! PeerSim simulation. PlanetLab is retired, so this crate deploys the same
//! sans-IO protocol state machines (`socialtube`, `socialtube-baselines`)
//! over **real TCP sockets on localhost**, with per-link artificial latency
//! standing in for geographic spread:
//!
//! * [`wire`] — a hand-rolled length-prefixed binary codec for every
//!   protocol [`Message`](socialtube::Message);
//! * [`clock`] — maps wall-clock time onto the protocol's
//!   [`SimTime`](socialtube_sim::SimTime) axis;
//! * [`transport`] — framed connections, the deployment's immutable
//!   address book and each daemon's outgoing-connection cache;
//! * `daemon` (private) — the one OS-thread-backed daemon every node runs,
//!   around one by-value [`Peer`](socialtube_baselines::Peer) or the
//!   tracker/origin server, the daemon at the address book's server index;
//!   it drains its actor's outbox through the shared
//!   [`CommandInterpreter`](socialtube::harness::CommandInterpreter) over
//!   one TCP substrate (connection pool + the simulator's FIFO upload link
//!   on the testbed clock, whose completion time a bulk frame carries), and
//!   its event loop alone keeps the daemon's timers and injected delays in
//!   one due queue;
//! * [`testbed`] — [`Deployment`]: binds every listener, spawns a whole
//!   deployment in-process and surfaces protocol reports as
//!   [`NetEvent`]s; the workload loop that drives it lives with the caller
//!   (the shared `SessionDirector` in `socialtube-experiments`).
//!
//! Real sockets keep what the paper went to PlanetLab for — actual
//! transmission and connection failures, head-of-line queueing, racing
//! messages — while the latency model recreates the wide-area delay spread.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
mod daemon;
pub mod testbed;
pub mod transport;
pub mod wire;

pub use testbed::{Deployment, NetEvent, NetOutcome};
pub use wire::{decode_frame, encode_frame, Frame, WireError};
