//! Shared command interpretation: the one place protocol [`Command`]s turn
//! into driver effects.
//!
//! The sans-IO split gives every platform the same job: drain an
//! [`Outbox`]/[`ServerOutbox`] and execute each command. Before this module
//! existed, the discrete-event simulator and the TCP daemons each carried
//! their own copy of that loop (bulk/control routing, origin chunk
//! expansion, timer arming). Now the loop lives here once, and a platform
//! only implements the [`PeerSubstrate`]/[`ServerSubstrate`] traits — the
//! handful of primitive effects that genuinely differ between a virtual
//! event queue and real sockets:
//!
//! * the **simulator** schedules engine events with modelled latency and
//!   fluid-approximation bandwidth;
//! * the **TCP daemons** write frames to connection pools and pace bulk
//!   data through the simulator's FIFO link in protocol time.
//!
//! Reports are not a substrate effect: what to do with a report (metrics,
//! session bookkeeping, channels) is driver policy, so both flush methods
//! hand reports to a caller-supplied closure *inline, in command order* —
//! preserving the exact event ordering a deterministic simulation depends
//! on.

use std::sync::Arc;

use socialtube_model::{Catalog, NodeId};
use socialtube_sim::SimDuration;

use crate::messages::Message;
use crate::traits::{Command, Outbox, Report, ServerCommand, ServerOutbox, TimerKind};
use crate::transfer::served_chunks;

/// Primitive effects a peer-side driver must provide.
///
/// `from` is always the acting peer whose outbox is being flushed.
pub trait PeerSubstrate {
    /// Deliver a control message to peer `to` (pays propagation delay only).
    fn peer_control(&mut self, from: NodeId, to: NodeId, msg: Message);

    /// Deliver a bulk-data message to peer `to`, serialized through the
    /// sender's upload link before propagation.
    fn peer_bulk(&mut self, from: NodeId, to: NodeId, bits: u64, msg: Message);

    /// Deliver a message to the server.
    fn to_server(&mut self, from: NodeId, msg: Message);

    /// Arm `kind` to fire back at `node` after `delay`.
    fn arm_timer(&mut self, node: NodeId, delay: SimDuration, kind: TimerKind);
}

/// Primitive effects a server-side driver must provide.
pub trait ServerSubstrate {
    /// Deliver a control message to peer `to`.
    fn server_control(&mut self, to: NodeId, msg: Message);

    /// Deliver one origin chunk to peer `to`, serialized through the
    /// server's bounded upload pipe before propagation.
    fn server_chunk(&mut self, to: NodeId, bits: u64, msg: Message);
}

/// Translates queued protocol commands into substrate effects.
///
/// Holds the catalog because expanding a [`ServerCommand::ServeChunks`]
/// needs chunk counts and sizes; peer-side interpretation needs no catalog,
/// so [`flush_peer`](CommandInterpreter::flush_peer) is an associated
/// function.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use socialtube::harness::{CommandInterpreter, PeerSubstrate};
/// use socialtube::{Message, Outbox, Report, TimerKind};
/// use socialtube_model::NodeId;
/// use socialtube_sim::SimDuration;
///
/// #[derive(Default)]
/// struct Recorder(Vec<String>);
/// impl PeerSubstrate for Recorder {
///     fn peer_control(&mut self, _f: NodeId, to: NodeId, _m: Message) {
///         self.0.push(format!("control->{}", to.as_u32()));
///     }
///     fn peer_bulk(&mut self, _f: NodeId, to: NodeId, bits: u64, _m: Message) {
///         self.0.push(format!("bulk->{} ({bits}b)", to.as_u32()));
///     }
///     fn to_server(&mut self, _f: NodeId, _m: Message) {
///         self.0.push("server".into());
///     }
///     fn arm_timer(&mut self, _n: NodeId, _d: SimDuration, _k: TimerKind) {
///         self.0.push("timer".into());
///     }
/// }
///
/// let mut out = Outbox::new();
/// out.to_peer(NodeId::new(1), Message::LogOff);
/// let mut sub = Recorder::default();
/// CommandInterpreter::flush_peer(NodeId::new(0), &mut out, &mut sub, |_, _| {});
/// assert_eq!(sub.0, ["control->1"]);
/// ```
#[derive(Debug)]
pub struct CommandInterpreter {
    catalog: Arc<Catalog>,
}

impl CommandInterpreter {
    /// Creates an interpreter serving origin chunks out of `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self { catalog }
    }

    /// Drains `actor`'s outbox, routing each command to the substrate.
    ///
    /// Bulk messages (chunk payloads) go through
    /// [`peer_bulk`](PeerSubstrate::peer_bulk); everything else to a peer is
    /// control traffic. Reports are handed to `on_report` inline, in
    /// command order, with the substrate re-borrowed so the handler can
    /// schedule follow-up work.
    pub fn flush_peer<S: PeerSubstrate>(
        actor: NodeId,
        outbox: &mut Outbox,
        sub: &mut S,
        mut on_report: impl FnMut(&mut S, Report),
    ) {
        for cmd in outbox.drain() {
            match cmd {
                Command::ToPeer { to, msg } => {
                    if msg.is_bulk() {
                        let bits = match &msg {
                            Message::ChunkData { bits, .. } => *bits,
                            _ => 0,
                        };
                        sub.peer_bulk(actor, to, bits, msg);
                    } else {
                        sub.peer_control(actor, to, msg);
                    }
                }
                Command::ToServer { msg } => sub.to_server(actor, msg),
                Command::Timer { delay, kind } => sub.arm_timer(actor, delay, kind),
                Command::Report(report) => on_report(sub, report),
            }
        }
    }

    /// Drains the server's outbox, expanding each
    /// [`ServerCommand::ServeChunks`] into per-chunk messages.
    ///
    /// The chunks are those a peer would answer the same request with: the
    /// requested chunk for a prefetch, through the last chunk for
    /// playback. Unknown videos are skipped.
    pub fn flush_server<S: ServerSubstrate>(
        &self,
        outbox: &mut ServerOutbox,
        sub: &mut S,
        mut on_report: impl FnMut(&mut S, Report),
    ) {
        for cmd in outbox.drain() {
            match cmd {
                ServerCommand::ToPeer { to, msg } => sub.server_control(to, msg),
                ServerCommand::ServeChunks {
                    to,
                    id,
                    video,
                    from_chunk,
                    kind,
                } => {
                    let Ok(v) = self.catalog.video(video) else {
                        continue;
                    };
                    let bits = v.chunk_size_bits();
                    for chunk in served_chunks(from_chunk, v.chunk_count(), kind) {
                        sub.server_chunk(
                            to,
                            bits,
                            Message::ChunkData {
                                id,
                                video,
                                chunk,
                                bits,
                                kind,
                            },
                        );
                    }
                }
                ServerCommand::Report(report) => on_report(sub, report),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::RequestId;
    use crate::traits::TransferKind;
    use socialtube_model::{CatalogBuilder, VideoId};

    #[derive(Debug, Default)]
    struct Recording {
        effects: Vec<String>,
    }

    impl PeerSubstrate for Recording {
        fn peer_control(&mut self, from: NodeId, to: NodeId, _msg: Message) {
            self.effects
                .push(format!("control {}->{}", from.as_u32(), to.as_u32()));
        }
        fn peer_bulk(&mut self, from: NodeId, to: NodeId, bits: u64, _msg: Message) {
            self.effects
                .push(format!("bulk {}->{} {bits}", from.as_u32(), to.as_u32()));
        }
        fn to_server(&mut self, from: NodeId, _msg: Message) {
            self.effects.push(format!("server<-{}", from.as_u32()));
        }
        fn arm_timer(&mut self, node: NodeId, delay: SimDuration, _kind: TimerKind) {
            self.effects
                .push(format!("timer {} +{}us", node.as_u32(), delay.as_micros()));
        }
    }

    impl ServerSubstrate for Recording {
        fn server_control(&mut self, to: NodeId, _msg: Message) {
            self.effects.push(format!("s-control->{}", to.as_u32()));
        }
        fn server_chunk(&mut self, to: NodeId, bits: u64, msg: Message) {
            let chunk = match msg {
                Message::ChunkData { chunk, .. } => chunk,
                _ => panic!("server_chunk must carry ChunkData"),
            };
            self.effects
                .push(format!("s-chunk->{} #{chunk} {bits}", to.as_u32()));
        }
    }

    fn catalog_with_video() -> (Arc<Catalog>, VideoId) {
        let mut b = CatalogBuilder::new();
        let cat = b.add_category();
        let ch = b.add_channel([cat]);
        let video = b.add_video(ch, 2, 0); // 2 s × 320 kbps = 8 chunks
        (Arc::new(b.build()), video)
    }

    #[test]
    fn peer_commands_split_bulk_from_control() {
        let (_, video) = catalog_with_video();
        let me = NodeId::new(0);
        let id = RequestId::new(me, 1);
        let mut out = Outbox::new();
        out.to_peer(NodeId::new(1), Message::LogOff);
        out.to_peer(
            NodeId::new(2),
            Message::ChunkData {
                id,
                video,
                chunk: 0,
                bits: 77,
                kind: TransferKind::Playback,
            },
        );
        out.to_server(Message::LogOff);
        out.timer(SimDuration::from_secs(1), TimerKind::ProbeTick);

        let mut sub = Recording::default();
        CommandInterpreter::flush_peer(me, &mut out, &mut sub, |_, _| {});
        assert_eq!(
            sub.effects,
            [
                "control 0->1",
                "bulk 0->2 77",
                "server<-0",
                "timer 0 +1000000us"
            ]
        );
        assert!(out.commands().is_empty(), "outbox fully drained");
    }

    #[test]
    fn reports_are_delivered_inline_in_command_order() {
        let me = NodeId::new(3);
        let mut out = Outbox::new();
        out.to_peer(NodeId::new(1), Message::LogOff);
        out.report(Report::ServerFallback {
            node: me,
            video: VideoId::new(9),
        });
        out.to_peer(NodeId::new(2), Message::LogOff);

        let mut sub = Recording::default();
        CommandInterpreter::flush_peer(me, &mut out, &mut sub, |sub, _report| {
            sub.effects.push("report".into());
        });
        assert_eq!(sub.effects, ["control 3->1", "report", "control 3->2"]);
    }

    #[test]
    fn playback_serve_expands_through_last_chunk() {
        let (catalog, video) = catalog_with_video();
        let interp = CommandInterpreter::new(Arc::clone(&catalog));
        let mut out = ServerOutbox::new();
        out.serve_chunks(
            NodeId::new(1),
            RequestId::new(NodeId::new(1), 0),
            video,
            2,
            TransferKind::Playback,
        );
        let mut sub = Recording::default();
        interp.flush_server(&mut out, &mut sub, |_, _| {});
        let total = catalog.video(video).unwrap().chunk_count();
        assert_eq!(sub.effects.len(), (total - 2) as usize);
        assert!(sub.effects[0].contains("#2"));
        assert!(sub
            .effects
            .last()
            .unwrap()
            .contains(&format!("#{}", total - 1)));
    }

    #[test]
    fn prefetch_serve_sends_exactly_one_chunk() {
        let (catalog, video) = catalog_with_video();
        let interp = CommandInterpreter::new(catalog);
        let mut out = ServerOutbox::new();
        out.serve_chunks(
            NodeId::new(1),
            RequestId::new(NodeId::new(1), 0),
            video,
            0,
            TransferKind::Prefetch,
        );
        let mut sub = Recording::default();
        interp.flush_server(&mut out, &mut sub, |_, _| {});
        assert_eq!(sub.effects, ["s-chunk->1 #0 80000"]);
    }

    #[test]
    fn unknown_video_is_skipped() {
        let (catalog, _) = catalog_with_video();
        let interp = CommandInterpreter::new(catalog);
        let mut out = ServerOutbox::new();
        out.serve_chunks(
            NodeId::new(1),
            RequestId::new(NodeId::new(1), 0),
            VideoId::new(999),
            0,
            TransferKind::Playback,
        );
        out.to_peer(NodeId::new(2), Message::LogOff);
        let mut sub = Recording::default();
        interp.flush_server(&mut out, &mut sub, |_, _| {});
        assert_eq!(
            sub.effects,
            ["s-control->2"],
            "bad video skipped, rest runs"
        );
    }
}
