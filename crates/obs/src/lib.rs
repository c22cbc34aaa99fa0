//! Deterministic, zero-cost-when-disabled instrumentation.
//!
//! The paper's evaluation is all about *where* requests resolve — channel
//! overlay vs. category cluster vs. server (Figs. 8–16) — so this crate
//! gives every driver a way to watch the protocols work without perturbing
//! them. Three rules make that safe:
//!
//! 1. **Recorders observe, never mutate.** A [`Recorder`] receives facts
//!    (counter bumps, histogram samples, timeline marks) and must not feed
//!    anything back into the simulation: no RNG draws, no scheduling, no
//!    protocol state. Golden fixtures stay bitwise identical with recording
//!    on or off.
//! 2. **Zero cost when disabled.** The driver loops are generic over
//!    `R: Recorder`; [`NullRecorder`] sets
//!    [`ENABLED`](Recorder::ENABLED)` = false` and every call
//!    monomorphizes to nothing. Input computation for a recording call can
//!    be gated on `R::ENABLED` where it is not already free.
//! 3. **No allocation on the hot path.** A [`RunRecorder`] writes into the
//!    [`MetricsSnapshot`] it finishes into, allocating a histogram or a
//!    [`Dim`] slice only on first use; [`Timeline`] is a pre-sized vector
//!    of plain-old-data events. Export happens after the run.
//!
//! Beyond run-wide totals, the crate records along three more axes:
//!
//! * **Dimensional attribution** ([`Dim`]): counters and histograms can be
//!   sliced per interest community or shard, so a
//!   [`MetricsSnapshot`] can report cache-hit rates or search hops *by the
//!   community that produced them* — the paper's per-community structure
//!   made measurable. A slice is a `MetricsSnapshot` too.
//! * **Timelines** ([`Timeline`], [`Track`]): span/instant/counter series
//!   in virtual time, exported as Chrome traces (with per-peer lanes
//!   capped for large runs — see [`chrome_trace`]).
//! * **Streaming progress** ([`ProgressSink`]): one NDJSON line per
//!   completed campaign cell (cells done, events, RSS, ETA). Progress is
//!   wall-clock-driven and therefore *never* feeds deterministic outputs;
//!   it only reads.
//!
//! The crate is dependency-free. Every export is built as a
//! [`json::Value`] and written by its one writer, which [`json::parse`]
//! reads back.

#![warn(missing_docs)]

mod dims;
pub mod json;
mod progress;
mod recorder;
mod snapshot;
mod timeline;

pub use dims::Dim;
pub use progress::{current_rss_bytes, ProgressConfig, ProgressSink};
pub use recorder::{
    Counter, HistKind, Histogram, NullRecorder, Recorder, RecorderConfig, RunRecorder,
    RunRecording, Track,
};
pub use snapshot::MetricsSnapshot;
pub use timeline::{chrome_trace, Timeline, TraceEvent, TracePhase};
