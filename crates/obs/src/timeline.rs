//! Per-run timelines and their Chrome trace-event export.
//!
//! Timestamps are the simulation's virtual clock in microseconds, which is
//! exactly the unit the trace-event format wants in `ts` — a run opened in
//! Perfetto or `chrome://tracing` reads in simulated time. Each [`Track`]
//! becomes one thread lane: engine, server, and one per peer.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Value};
use crate::recorder::Track;

/// The kind of a timeline event (maps to trace-event `ph`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TracePhase {
    /// A span opens (`ph: "B"`).
    Begin,
    /// The innermost span on the track closes (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A value sample for a counter series (`ph: "C"`).
    Counter,
}

/// One plain-old-data timeline event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Event kind.
    pub(crate) phase: TracePhase,
    /// The lane it belongs to.
    pub track: Track,
    /// Event name (empty for span ends).
    pub name: &'static str,
    /// Virtual timestamp in microseconds.
    pub ts_us: u64,
    /// Sample value (counter events only).
    pub value: u64,
}

/// An append-only event list captured during one run.
///
/// Events are pushed in virtual-time order by construction (the driver
/// records as it dispatches), so export never sorts.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<TraceEvent>,
}

impl Timeline {
    /// An empty timeline with room for a typical smoke run, so early
    /// recording does not reallocate per event.
    pub(crate) fn new() -> Self {
        Self {
            events: Vec::with_capacity(4096),
        }
    }

    /// Appends one event.
    pub(crate) fn push(
        &mut self,
        phase: TracePhase,
        track: Track,
        name: &'static str,
        ts_us: u64,
        value: u64,
    ) {
        self.events.push(TraceEvent {
            phase,
            track,
            name,
            ts_us,
            value,
        });
    }

    /// The captured events, in capture order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

/// Human label for a track (the Chrome trace's thread-name metadata).
fn track_label(track: Track) -> String {
    match track {
        Track::Engine => "engine".into(),
        Track::Server => "server".into(),
        Track::Peer(n) => format!("peer-{n}"),
    }
}

/// Thread id for a track inside one trace process.
fn track_tid(track: Track) -> u64 {
    match track {
        Track::Engine => 0,
        Track::Server => 1,
        Track::Peer(n) => 2 + u64::from(n),
    }
}

/// Cap on the number of per-peer lanes a Chrome trace renders — large
/// enough for any inspection workload, small enough that a 200k-peer run
/// does not open as 200k threads.
const DEFAULT_PEER_TRACK_CAP: usize = 64;

/// Thread id of the aggregate lane that folds all peers beyond the cap.
/// Sits above the whole peer tid range.
const AGGREGATE_PEER_TID: u64 = 2 + (1 << 33);

/// Renders one or more timelines into a Chrome trace-event file: each
/// `(process name, timeline)` pair becomes one process (so a campaign can
/// put every protocol into a single trace), each track one named thread.
///
/// The output is the object form (`{"traceEvents": [...]}`, one event per
/// line) accepted by `chrome://tracing` and Perfetto. Per-peer lanes are
/// capped at 64: beyond that, the 64 busiest peers (most events; ties
/// broken by lower id) keep their own lanes and every other peer's events
/// are folded onto one aggregate lane named `"peers (other N)"`. On the
/// aggregate lane, span begins are demoted to instants and span ends
/// dropped (interleaved spans from many peers cannot nest on one thread);
/// instants and counter samples pass through unchanged.
pub fn chrome_trace(parts: &[(&str, &Timeline)]) -> String {
    chrome_trace_capped(parts, DEFAULT_PEER_TRACK_CAP)
}

/// [`chrome_trace`] with an explicit cap on per-peer lanes.
fn chrome_trace_capped(parts: &[(&str, &Timeline)], peer_cap: usize) -> String {
    let events = parts
        .iter()
        .enumerate()
        .flat_map(|(i, (name, timeline))| process_events(i + 1, name, timeline, peer_cap));
    let mut out = json::render_streamed("traceEvents", events);
    out.push('\n');
    out
}

/// One process's trace events, produced lazily: its name, one thread name
/// per surviving lane (tid-ordered, plus the aggregate lane when anything
/// folds), then the timeline's events.
fn process_events<'a>(
    pid: usize,
    name: &str,
    timeline: &'a Timeline,
    peer_cap: usize,
) -> impl Iterator<Item = Value> + 'a {
    let metadata = |tid: u64, kind: &str, name: String| {
        Value::obj([
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("name", kind.into()),
            ("args", Value::obj([("name", Value::Str(name))])),
        ])
    };
    // Which peers keep their own lane: all of them when under the cap
    // (`kept: None`, the uncapped rendering), else the top-`peer_cap` by
    // event count with ties broken by lower id.
    let mut peer_events: BTreeMap<u32, u64> = BTreeMap::new();
    for e in timeline.events() {
        if let Track::Peer(n) = e.track {
            *peer_events.entry(n).or_insert(0) += 1;
        }
    }
    let folded = peer_events.len().saturating_sub(peer_cap);
    let kept: Option<BTreeSet<u32>> = (folded > 0).then(|| {
        let mut ranked: Vec<(u32, u64)> = peer_events.into_iter().collect();
        ranked.sort_by_key(|(n, c)| (std::cmp::Reverse(*c), *n));
        ranked.iter().take(peer_cap).map(|(n, _)| *n).collect()
    });
    let keeps_lane = move |track: Track| match (track, &kept) {
        (Track::Peer(n), Some(kept)) => kept.contains(&n),
        _ => true,
    };
    let mut tracks: Vec<Track> = timeline.events().iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    tracks.retain(|t| keeps_lane(*t));
    let mut head = vec![metadata(0, "process_name", name.to_string())];
    head.extend(
        tracks
            .into_iter()
            .map(|track| metadata(track_tid(track), "thread_name", track_label(track))),
    );
    if folded > 0 {
        let label = format!("peers (other {folded})");
        head.push(metadata(AGGREGATE_PEER_TID, "thread_name", label));
    }
    let events = timeline.events().iter().filter_map(move |e| {
        let own_lane = keeps_lane(e.track);
        let tid = if own_lane {
            track_tid(e.track)
        } else {
            AGGREGATE_PEER_TID
        };
        let name = ("name", e.name.into());
        let cat = ("cat", "sim".into());
        // Folded spans cannot nest on a shared lane: their begins become
        // instants and their ends are dropped.
        let (ph, rest) = match (e.phase, own_lane) {
            (TracePhase::Begin, true) => ("B", vec![name, cat]),
            (TracePhase::End, true) => ("E", vec![]),
            (TracePhase::End, false) => return None,
            (TracePhase::Instant, _) | (TracePhase::Begin, false) => {
                ("i", vec![name, ("s", "t".into()), cat])
            }
            (TracePhase::Counter, _) => {
                let args = Value::obj([("value", e.value.into())]);
                ("C", vec![name, ("args", args)])
            }
        };
        let head = [
            ("ph", ph.into()),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("ts", e.ts_us.into()),
        ];
        Some(Value::obj(head.into_iter().chain(rest)))
    });
    head.into_iter().chain(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn demo_timeline() -> Timeline {
        let mut t = Timeline::new();
        t.push(TracePhase::Begin, Track::Peer(0), "session", 100, 0);
        t.push(TracePhase::Instant, Track::Peer(0), "playback", 250, 0);
        t.push(TracePhase::Counter, Track::Engine, "queue_depth", 300, 17);
        t.push(TracePhase::End, Track::Peer(0), "", 900, 0);
        t
    }

    #[test]
    fn chrome_trace_is_valid_json_with_trace_events_array() {
        let t = demo_timeline();
        let rendered = chrome_trace(&[("run", &t)]);
        let v = json::parse(&rendered).expect("valid json");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 metadata (process + one thread per track) + 4 events... the
        // timeline uses two tracks, so 1 process + 2 thread names.
        assert_eq!(events.len(), 3 + 4);
        // Every event object has the mandatory keys.
        for e in events {
            assert!(e.get("ph").is_some(), "ph missing: {e:?}");
            assert!(e.get("pid").is_some(), "pid missing: {e:?}");
            assert!(e.get("tid").is_some(), "tid missing: {e:?}");
        }
        // Phase-specific shape: B carries name+ts, C carries args.value.
        let b = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("B"));
        let b = b.expect("a B event");
        assert_eq!(b.get("name").and_then(|n| n.as_str()), Some("session"));
        assert_eq!(b.get("ts").and_then(|t| t.as_u64()), Some(100));
        let c = events
            .iter()
            .find(|e| e.get("ph").and_then(|p| p.as_str()) == Some("C"))
            .expect("a C event");
        assert_eq!(
            c.get("args")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_u64()),
            Some(17)
        );
    }

    #[test]
    fn multi_process_trace_assigns_distinct_pids() {
        let a = demo_timeline();
        let b = demo_timeline();
        let rendered = chrome_trace(&[("socialtube", &a), ("nettube", &b)]);
        let v = json::parse(&rendered).expect("valid json");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(|p| p.as_u64()))
            .collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    /// Six peers with event counts 1..=6 (peer id 5 the busiest), plus an
    /// engine counter series.
    fn busy_timeline() -> Timeline {
        let mut t = Timeline::new();
        for peer in 0..6u32 {
            t.push(TracePhase::Begin, Track::Peer(peer), "session", 10, 0);
            for k in 0..peer {
                t.push(
                    TracePhase::Instant,
                    Track::Peer(peer),
                    "playback",
                    20 + u64::from(k),
                    0,
                );
            }
            t.push(TracePhase::End, Track::Peer(peer), "", 90, 0);
        }
        t.push(TracePhase::Counter, Track::Engine, "queue_depth", 50, 9);
        t
    }

    #[test]
    fn peer_cap_leaves_small_traces_byte_identical() {
        let t = demo_timeline();
        let parts = [("run", &t)];
        // One peer track, so any cap >= 1 takes the uncapped path.
        assert_eq!(
            chrome_trace_capped(&parts, 1),
            chrome_trace_capped(&parts, DEFAULT_PEER_TRACK_CAP)
        );
        assert_eq!(
            chrome_trace(&parts),
            chrome_trace_capped(&parts, usize::MAX)
        );
    }

    #[test]
    fn peer_cap_folds_excess_tracks_into_aggregate_lane() {
        let t = busy_timeline();
        let rendered = chrome_trace_capped(&[("run", &t)], 2);
        let v = json::parse(&rendered).expect("valid json");
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| {
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|n| n.as_str())
            })
            .collect();
        // Busiest two peers (5 and 4) keep lanes; the other four fold.
        assert_eq!(
            thread_names,
            vec!["engine", "peer-4", "peer-5", "peers (other 4)"]
        );
        // Folded span begins were demoted to instants, their ends dropped:
        // only kept peers emit B/E pairs.
        let spans = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(|p| p.as_str()), Some("B") | Some("E")))
            .count();
        assert_eq!(spans, 4, "two kept peers x (B + E)");
        // Every folded event landed on the aggregate tid.
        let aggregate_events = events
            .iter()
            .filter(|e| {
                e.get("tid").and_then(|t| t.as_u64()) == Some(AGGREGATE_PEER_TID)
                    && e.get("name").and_then(|n| n.as_str()) != Some("thread_name")
            })
            .count();
        // 4 folded peers: each had 1 begin (now instant) + `id` instants
        // (0+1+2+3) and a dropped end.
        assert_eq!(aggregate_events, 4 + 6);
    }
}
