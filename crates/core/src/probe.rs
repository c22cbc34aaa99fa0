//! Neighbour liveness: the probe / reconnect bookkeeping every overlay
//! protocol shares. Which nodes are neighbours, and what evicting one
//! means, stays with the protocol.

use socialtube_model::NodeId;
use socialtube_sim::SimDuration;

use crate::messages::{Message, PeerAddr};
use crate::traits::{Outbox, Report, TimerKind};
use crate::vecmap::VecMap;

/// Outstanding probes and reconnects of one peer.
#[derive(Debug, Default)]
pub struct Prober {
    next_nonce: u64,
    /// Nonce → the neighbour that still owes an answer.
    pending: VecMap<u64, NodeId>,
}

impl Prober {
    /// Nothing outstanding.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends `request` to `neighbor` and arms the deadline by which it
    /// must have answered.
    fn expect_answer(
        &mut self,
        neighbor: NodeId,
        request: impl FnOnce(u64) -> Message,
        timeout: SimDuration,
        out: &mut Outbox,
    ) {
        self.next_nonce = self.next_nonce.wrapping_add(1);
        let nonce = self.next_nonce;
        self.pending.insert(nonce, neighbor);
        out.to_peer(neighbor, request(nonce));
        out.timer(timeout, TimerKind::ProbeDeadline { neighbor, nonce });
    }

    /// Re-establishes a remembered link at login: `request` is the
    /// protocol's `ConnectRequest`; any answer from `neighbor` within
    /// `timeout` keeps it.
    pub fn reconnect(
        &mut self,
        neighbor: NodeId,
        request: Message,
        timeout: SimDuration,
        out: &mut Outbox,
    ) {
        self.expect_answer(neighbor, |_| request, timeout, out);
    }

    /// One probe round ([`TimerKind::ProbeTick`]): probes every neighbour
    /// and re-arms the tick.
    pub fn tick(
        &mut self,
        neighbors: impl IntoIterator<Item = NodeId>,
        interval: SimDuration,
        timeout: SimDuration,
        out: &mut Outbox,
    ) {
        for neighbor in neighbors {
            self.expect_answer(neighbor, |nonce| Message::Probe { nonce }, timeout, out);
        }
        out.timer(interval, TimerKind::ProbeTick);
    }

    /// Answers a [`Message::Probe`].
    pub fn acknowledge(from: PeerAddr, nonce: u64, out: &mut Outbox) {
        if let PeerAddr::Peer(prober) = from {
            out.to_peer(prober, Message::ProbeAck { nonce });
        }
    }

    /// A [`Message::ProbeAck`] arrived.
    pub fn acked(&mut self, nonce: u64) {
        self.pending.remove(&nonce);
    }

    /// `peer` answered a reconnect (accepting or rejecting): it is alive.
    pub fn answered(&mut self, peer: NodeId) {
        self.pending.retain(|_, n| *n != peer);
    }

    /// A [`TimerKind::ProbeDeadline`] fired. Returns `true`, and reports
    /// the loss, when `neighbor` never answered: the caller evicts it.
    pub fn expired(
        &mut self,
        node: NodeId,
        neighbor: NodeId,
        nonce: u64,
        out: &mut Outbox,
    ) -> bool {
        let lost = self.pending.remove(&nonce).is_some();
        if lost {
            out.report(Report::NeighborLost { node, neighbor });
        }
        lost
    }

    /// Forgets everything outstanding (logout).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Command;

    #[test]
    fn only_a_neighbor_that_never_answered_is_lost_and_only_once() {
        let (me, n1, n2) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        let (interval, timeout) = (SimDuration::from_mins(10), SimDuration::from_secs(5));
        let mut prober = Prober::new();
        let mut out = Outbox::new();
        prober.tick([n1, n2], interval, timeout, &mut out);
        let probe = |to, nonce| Command::ToPeer {
            to,
            msg: Message::Probe { nonce },
        };
        let deadline = |neighbor, nonce| Command::Timer {
            delay: timeout,
            kind: TimerKind::ProbeDeadline { neighbor, nonce },
        };
        let tick = Command::Timer {
            delay: interval,
            kind: TimerKind::ProbeTick,
        };
        let expected = [
            probe(n1, 1),
            deadline(n1, 1),
            probe(n2, 2),
            deadline(n2, 2),
            tick,
        ];
        assert_eq!(out.commands(), expected);
        out.drain();

        prober.acked(1);
        assert!(!prober.expired(me, n1, 1, &mut out));
        assert!(out.commands().is_empty());
        assert!(prober.expired(me, n2, 2, &mut out));
        let lost = Report::NeighborLost {
            node: me,
            neighbor: n2,
        };
        assert_eq!(out.commands(), [Command::Report(lost)]);
        assert!(!prober.expired(me, n2, 2, &mut out), "already evicted");

        // Any answer to a reconnect counts, and logging out forgets the rest.
        prober.reconnect(n1, Message::Leave, timeout, &mut out);
        prober.reconnect(n2, Message::Leave, timeout, &mut out);
        prober.answered(n1);
        assert!(!prober.expired(me, n1, 3, &mut out));
        prober.clear();
        assert!(!prober.expired(me, n2, 4, &mut out));
    }
}
