//! The cross-platform equivalence fixture: a four-peer trace, a fixed
//! script over it and the report fingerprint both platforms are compared
//! by.
//!
//! The harness layer exists so one protocol stack runs on both platforms;
//! this module holds what the proof needs beyond the production loops. A
//! script ([`WorkloadConfig::script`](crate::WorkloadConfig::script))
//! replaces the stochastic session model with explicit
//! `Login`/`Watch`/`Logout` actions at fixed times, spaced far enough apart
//! that every search, fallback and transfer completes before the next
//! action fires. The simulator driver ([`RunSpec`](crate::RunSpec)) and the
//! testbed driver ([`run_net_on`](crate::net_driver::run_net_on)) both run
//! it from one [`ExperimentOptions`](crate::ExperimentOptions), so the
//! protocol observes identical inputs in identical order and must emit the
//! identical [`Report`] sequence, compared as [`ReportKey`]s.

use std::sync::Arc;

use socialtube::{Report, TransferKind};
use socialtube_model::{CatalogBuilder, NodeId, SocialGraph, VideoId};
use socialtube_sim::SimDuration;
use socialtube_trace::Trace;

use crate::workload::{ScriptAction, ScriptStep};

/// A platform-independent fingerprint of one [`Report`]: what happened, to
/// whom, about which video — stripped of timestamps, byte counts and
/// sources, which legitimately differ between virtual and wall-clock runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportKey {
    /// Report kind (plus playback/prefetch for chunk arrivals).
    pub kind: &'static str,
    /// The node the report concerns.
    pub node: u32,
    /// The video the report concerns.
    pub video: u32,
}

impl ReportKey {
    /// The fingerprint of `report`.
    pub fn of(report: &Report) -> Self {
        let (kind, node, video) = match *report {
            Report::PlaybackStarted { node, video, .. } => ("playback", node, video),
            Report::ChunkReceived {
                node, video, kind, ..
            } => match kind {
                TransferKind::Playback => ("chunk-playback", node, video),
                TransferKind::Prefetch => ("chunk-prefetch", node, video),
            },
            Report::ServerFallback { node, video } => ("fallback", node, video),
            Report::ServedFromOrigin { node, video } => ("origin", node, video),
            Report::SearchResolved { node, video, .. } => ("resolved", node, video),
            Report::TtlExpired { node, video } => ("ttl-expired", node, video),
            Report::NeighborLost { node, neighbor } => {
                // No video concerned; record the lost neighbor instead.
                return Self {
                    kind: "neighbor-lost",
                    node: node.as_u32(),
                    video: neighbor.as_u32(),
                };
            }
            Report::PrefetchAbandoned { node, video } => ("prefetch-abandoned", node, video),
        };
        Self {
            kind,
            node: node.as_u32(),
            video: video.as_u32(),
        }
    }

    /// The fingerprints of `reports`, in order, leaving out diagnostic
    /// reports: those come from intermediate forwarders and probe races
    /// whose global order differs between virtual and wall-clock time.
    pub fn sequence<'a>(reports: impl IntoIterator<Item = &'a Report>) -> Vec<Self> {
        reports
            .into_iter()
            .filter(|r| !r.is_diagnostic())
            .map(Self::of)
            .collect()
    }
}

/// A hand-built four-peer trace: one category, one channel everyone
/// subscribes to, three two-second videos (small enough that wall-clock
/// transfers finish in tens of milliseconds). Returns the trace and the
/// video ids in catalog order.
pub fn four_peer_trace() -> (Trace, Vec<VideoId>) {
    let mut b = CatalogBuilder::new();
    let cat = b.add_category();
    let ch = b.add_channel([cat]);
    let mut vids = Vec::new();
    for i in 0..3u32 {
        let v = b.add_video(ch, 2, i);
        b.set_views(v, 100 - u64::from(i) * 10);
        vids.push(v);
    }
    let catalog = b.build();
    let mut graph = SocialGraph::new(4, 1);
    for u in 0..4u32 {
        graph.subscribe(NodeId::new(u), ch);
    }
    let trace = Trace {
        catalog: Arc::new(catalog),
        graph,
        channel_owners: vec![NodeId::new(0)],
    };
    (trace, vids)
}

/// The standard equivalence script over [`four_peer_trace`]'s videos:
/// staggered logins, six watches alternating first-fetch (server path) and
/// community-hit (peer path), then graceful logouts. Actions sit 2 s apart
/// so even a full two-phase search timeout (2 × 400 ms) plus the transfer
/// resolves before the next action.
pub fn demo_script(videos: &[VideoId]) -> Vec<ScriptStep> {
    let n = |u: u32| NodeId::new(u);
    let at = |ms: u64, action| ScriptStep {
        at: SimDuration::from_millis(ms),
        action,
    };
    vec![
        at(0, ScriptAction::Login(n(0))),
        at(500, ScriptAction::Login(n(1))),
        at(1_000, ScriptAction::Login(n(2))),
        at(1_500, ScriptAction::Login(n(3))),
        // First fetch of each video misses the community; re-watches hit it.
        at(3_500, ScriptAction::Watch(n(0), videos[0])),
        at(5_500, ScriptAction::Watch(n(1), videos[0])),
        at(7_500, ScriptAction::Watch(n(2), videos[1])),
        at(9_500, ScriptAction::Watch(n(3), videos[1])),
        at(11_500, ScriptAction::Watch(n(1), videos[2])),
        at(13_500, ScriptAction::Watch(n(0), videos[2])),
        at(15_500, ScriptAction::Logout(n(0), false)),
        at(16_000, ScriptAction::Logout(n(1), false)),
        at(16_500, ScriptAction::Logout(n(2), false)),
        at(17_000, ScriptAction::Logout(n(3), false)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{configs, Protocol, RunSpec};
    use socialtube_trace::SharedTrace;

    #[test]
    fn four_peer_trace_is_well_formed() {
        let (trace, vids) = four_peer_trace();
        assert_eq!(trace.graph.user_count(), 4);
        assert_eq!(vids.len(), 3);
        for v in &vids {
            let video = trace.catalog.video(*v).expect("video exists");
            assert_eq!(video.length_secs(), 2);
        }
        // Every peer subscribes to the single channel, so SocialTube puts
        // all four in one community.
        let ch = trace.catalog.channels().next().unwrap().id();
        assert_eq!(trace.graph.subscribers(ch).len(), 4);
    }

    #[test]
    fn scripted_sim_run_reaches_every_watch() {
        let (trace, vids) = four_peer_trace();
        let mut options = configs::testbed();
        options.workload.script = demo_script(&vids);
        let outcome = RunSpec::new(Protocol::SocialTube)
            .options(options)
            .trace(SharedTrace::new(trace))
            .run();
        let keys = ReportKey::sequence(&outcome.reports);
        let playbacks = keys.iter().filter(|k| k.kind == "playback").count();
        assert_eq!(playbacks, 6, "keys: {keys:?}");
        // The very first fetch cannot be a community hit.
        let first = keys.first().expect("some report");
        assert!(
            first.kind == "fallback" || first.kind == "origin",
            "first report should be the server path, got {first:?}"
        );
    }

    fn scripted_spec(protocol: Protocol) -> RunSpec {
        let (trace, vids) = four_peer_trace();
        let mut options = configs::testbed();
        options.workload.script = demo_script(&vids);
        RunSpec::new(protocol)
            .options(options)
            .trace(SharedTrace::new(trace))
    }

    #[test]
    fn recorded_script_replay_matches_plain_replay() {
        for protocol in Protocol::ALL {
            let spec = scripted_spec(protocol);
            let plain = ReportKey::sequence(&spec.run().reports);
            let recorded = spec
                .with_recorder(socialtube_obs::RecorderConfig::metrics_only())
                .run();
            assert_eq!(
                plain,
                ReportKey::sequence(&recorded.reports),
                "{protocol}: recorder changed the key stream"
            );
        }
    }

    #[test]
    fn scripted_sim_runs_are_deterministic() {
        for protocol in Protocol::ALL {
            let a = ReportKey::sequence(&scripted_spec(protocol).run().reports);
            let b = ReportKey::sequence(&scripted_spec(protocol).run().reports);
            assert!(!a.is_empty(), "{protocol}: script produced no reports");
            assert_eq!(a, b, "{protocol} script replay diverged");
        }
    }
}
