//! Real TCP deployment of the VoD protocols — the PlanetLab substitute.
//!
//! The paper validated SocialTube on 250 PlanetLab hosts in addition to the
//! PeerSim simulation. PlanetLab is retired, so this crate deploys the same
//! sans-IO protocol state machines (`socialtube`, `socialtube-baselines`)
//! over **real TCP sockets on localhost**, with per-link artificial latency
//! standing in for geographic spread:
//!
//! * `wire` — a hand-rolled length-prefixed binary codec
//!   ([`encode_frame`], [`decode_frame`]) for every protocol
//!   [`Message`](socialtube::Message);
//! * [`transport`] — framed connections, the deployment's immutable
//!   address book and each daemon's outgoing-connection cache;
//! * `daemon` (private) — the one OS-thread-backed daemon every node runs,
//!   around one by-value [`Peer`](socialtube_baselines::Peer) or the
//!   tracker/origin server, the daemon at the address book's server index;
//!   in each window of protocol time the deployment opens, it handles the
//!   inputs due in it, each at its due time, and drains its actor's outbox
//!   through the shared
//!   [`CommandInterpreter`](socialtube::harness::CommandInterpreter) over
//!   one TCP substrate (connection pool + the simulator's FIFO upload link)
//!   at that time, as the simulator's substrate does, and sends every
//!   message in one paced frame that carries the time its sender finished
//!   sending it; its event loop alone keeps the daemon's timers and
//!   injected delays in one due queue;
//! * [`testbed`] — [`Deployment`](testbed::Deployment): binds every
//!   listener, spawns a whole deployment in-process, runs its protocol
//!   time ([`SimTime`](socialtube_sim::SimTime) since the spawn) in
//!   conservative windows no wall clock paces, and surfaces protocol
//!   reports as [`NetEvent`](testbed::NetEvent)s; the workload loop that
//!   drives it lives with the caller (the shared `SessionDirector` in
//!   `socialtube-experiments`), which stamps each action with its
//!   protocol time and takes the reports in time order, so tearing the
//!   deployment down only joins its threads.
//!
//! Real sockets keep what the paper went to PlanetLab for — every message
//! crosses a real connection through the codec, between daemons that run
//! concurrently — while the latency model recreates the wide-area delay
//! spread, and protocol time, not the machine's load, orders what each
//! daemon handles.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod daemon;
pub mod testbed;
pub mod transport;
mod wire;

pub use wire::{decode_frame, encode_frame, Frame, WireError};
