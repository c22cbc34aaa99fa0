//! The duplicate-suppression window for flooded queries.
//!
//! An id is stored in the ring and indexed by a 2-byte slot: ≈ 14 B per
//! id at `sim-scale`'s mean fill of 201 ids per peer (218 ring places of
//! 8 B, the ring growing a quarter at a time, and 512 index slots of 2 B:
//! 2,768 B) where a doubling ring and a `u32` index cost ≈ 20 B (256
//! places and 512 slots of 4 B: 4,096 B). The newest four are stored a
//! second time, inline, for 32 B per peer: a flood re-reaches a peer soon
//! after it forwarded the query, so almost every duplicate is one of them
//! and is refused without a load beyond the peer's own struct. Any other
//! duplicate pays the index probe and one ring read.

use crate::messages::RequestId;

/// The last `window` distinct request ids a peer accepted, oldest evicted
/// first — what a flooding peer consults to drop a query it has already
/// forwarded.
///
/// The newest four ids inline, then a ring of the ids in arrival order
/// plus an open-addressed index of their ring positions for the
/// membership test. A slot is the 16 bits
/// `fingerprint << pos_bits | (position + 1)`, `0` when vacant. One
/// multiplicative hash of the id gives both its home (the leading bits)
/// and its fingerprint (disjoint lower bits), and a match is confirmed
/// against `ring[position]`, so any two `u64`s are told apart. An eviction
/// overwrites the oldest ring place and leaves the evicted id's slot
/// behind, stale: that slot's ring comparison fails from then on. Once
/// live and stale slots pass 3/4 of the index, it is rebuilt from the
/// ring, the one place homes are recomputed (a slot is too small to carry
/// its own), at twice the size if the live ids alone fill more than 5/8
/// of it. A rebuild in place thus costs at most 5 placements per
/// eviction since the last one, 2 at the 512-id window. Both parts grow
/// with the ids actually seen (a peer that never hears a flood allocates
/// nothing) and stop at the window: the ring at exactly `window` ids, a
/// quarter at a time, the index at the power of two that keeps `window`
/// slots under those bounds. The window also bounds what crafted ids can
/// cost: a probe never walks more than 3/4 of an index sized for `window`
/// ids.
///
/// # Examples
///
/// A [`Flood`](crate::Flood) forwards each query id once: a repeat inside
/// its window is dropped.
///
/// ```
/// use std::sync::Arc;
///
/// use socialtube::{Flood, Message, Outbox, PeerAddr, QueryScope, RequestId, Transfers};
/// use socialtube_model::{CatalogBuilder, NodeId, VideoId};
/// use socialtube_sim::SimTime;
///
/// let transfers = Transfers::new(NodeId::new(0), Arc::new(CatalogBuilder::new().build()));
/// let (mut flood, mut out) = (Flood::new(None), Outbox::new());
/// let origin = NodeId::new(7);
/// let query = Message::Query {
///     id: RequestId::new(origin, 0),
///     video: VideoId::new(3),
///     ttl: 2,
///     origin,
///     scope: QueryScope::PerVideo,
/// };
/// for _ in 0..2 {
///     let (from, forward) = (PeerAddr::Peer(origin), [NodeId::new(1)]);
///     flood.on_query(&transfers, SimTime::ZERO, from, query.clone(), None, forward, &mut out);
/// }
/// assert_eq!(out.commands().len(), 1, "the repeat is not forwarded again");
/// ```
#[derive(Clone, Debug)]
pub struct SeenWindow {
    window: usize,
    /// Ids in arrival order; once `window` long, a circular buffer whose
    /// oldest entry sits at `oldest`.
    ring: Vec<u64>,
    oldest: usize,
    /// Linear-probing index of the ring's positions; length 0 or a power
    /// of two, `0` in free slots.
    table: Vec<u16>,
    /// The low `pos_bits` of a slot, which hold `position + 1 ≤ window`.
    pos_mask: u16,
    /// Occupied slots whose ring place has been overwritten since the
    /// last rebuild.
    stale: u16,
    /// The last accepted ids, newest first; the first `min(len, 4)` are
    /// valid, and all of them are still inside the window.
    newest: [u64; 4],
}

impl SeenWindow {
    /// Largest window: `position + 1` takes 15 of a slot's 16 bits, which
    /// leaves one fingerprint bit.
    pub(crate) const MAX_WINDOW: usize = 32_767;

    /// Creates an empty window remembering up to `window` ids. A window
    /// of 0 remembers nothing: every id is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds [`SeenWindow::MAX_WINDOW`].
    pub(crate) fn new(window: usize) -> Self {
        assert!(window <= Self::MAX_WINDOW, "window exceeds MAX_WINDOW");
        Self {
            window,
            ring: Vec::new(),
            oldest: 0,
            table: Vec::new(),
            pos_mask: (1 << (usize::BITS - window.leading_zeros())) - 1,
            stale: 0,
            newest: [0; 4],
        }
    }

    /// Returns `true` if `id` is inside the window.
    pub(crate) fn contains(&self, id: RequestId) -> bool {
        self.newest[..self.ring.len().min(4)].contains(&id.0) || self.indexed(id.0)
    }

    /// Returns `true` if `id`'s probe meets a slot with its fingerprint
    /// whose ring place holds `id`. A slot's position was written when the
    /// ring already had that place, and the ring never shrinks, so
    /// `ring[position - 1]` is in bounds.
    fn indexed(&self, id: u64) -> bool {
        if self.table.is_empty() {
            return false;
        }
        let (mut at, wanted) = self.hash(id);
        loop {
            let slot = self.table[at];
            if slot == 0 {
                return false;
            }
            let position = usize::from(slot & self.pos_mask);
            if slot & !self.pos_mask == wanted && self.ring[position - 1] == id {
                return true;
            }
            at = (at + 1) & (self.table.len() - 1);
        }
    }

    /// Records `id`. Returns `false`, changing nothing, if it is already
    /// inside the window; otherwise forgets the oldest id when the window
    /// is full, remembers `id` and returns `true`.
    pub(crate) fn insert(&mut self, id: RequestId) -> bool {
        if self.contains(id) {
            return false;
        }
        if self.window == 0 {
            return true;
        }
        let full = self.ring.len() == self.window;
        let position = if full { self.oldest } else { self.ring.len() };
        if full {
            self.ring[position] = id.0;
            self.oldest = (position + 1) % self.window;
            self.stale += 1;
        } else {
            if self.ring.len() == self.ring.capacity() {
                // A quarter more, at least 4 ids, never past the window.
                let target = (self.ring.len() + (self.ring.len() / 4).max(4)).min(self.window);
                self.ring.reserve_exact(target - self.ring.len());
            }
            self.ring.push(id.0);
        }
        let (live, slots) = (self.ring.len(), self.table.len());
        if (live + usize::from(self.stale)) * 4 > slots * 3 {
            // The smallest index, 8 slots, holds up to 6 ids.
            let doubled = live * 8 > slots * 5;
            self.rebuild(if doubled { (slots * 2).max(8) } else { slots });
        } else {
            self.place(id.0, position);
        }
        self.newest.rotate_right(1);
        self.newest[0] = id.0;
        true
    }

    /// Where `id`'s probe starts and the fingerprint its slot carries,
    /// from disjoint bits of a Fibonacci multiplicative hash, which
    /// spreads ids that differ only in their low (counter) or only in
    /// their high (origin) half: the home is the leading `log2(slots) ≤ 16`
    /// bits, the fingerprint comes from bits 32–47. The index must be
    /// non-empty.
    fn hash(&self, id: u64) -> (usize, u16) {
        let hash = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let home = (hash >> (64 - self.table.len().trailing_zeros())) as usize;
        (home, (hash >> 32) as u16 & !self.pos_mask)
    }

    /// Writes the slot of `id` at ring `position` into the first free
    /// place of its probe.
    fn place(&mut self, id: u64, position: usize) {
        let (mut at, fingerprint) = self.hash(id);
        while self.table[at] != 0 {
            at = (at + 1) & (self.table.len() - 1);
        }
        // `position < window ≤ MAX_WINDOW`, so `position + 1` fits `pos_mask`.
        self.table[at] = fingerprint | (position as u16 + 1);
    }

    /// Indexes the ring afresh in `slots` slots, dropping every stale one.
    fn rebuild(&mut self, slots: usize) {
        if slots == self.table.len() {
            self.table.fill(0);
        } else {
            self.table = vec![0; slots];
        }
        self.stale = 0;
        for position in 0..self.ring.len() {
            self.place(self.ring[position], position);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashSet, VecDeque};

    /// The `HashSet` + `VecDeque` pair `SeenWindow` replaced, kept as the
    /// trivially-correct model.
    struct Model {
        window: usize,
        set: HashSet<u64>,
        order: VecDeque<u64>,
    }

    impl Model {
        fn new(window: usize) -> Self {
            Self {
                window,
                set: HashSet::new(),
                order: VecDeque::new(),
            }
        }

        fn insert(&mut self, id: u64) -> bool {
            if !self.set.insert(id) {
                return false;
            }
            self.order.push_back(id);
            while self.order.len() > self.window {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
            true
        }
    }

    /// Offers `ids` to a fresh window and to the model: every answer must
    /// agree, and at the end the index must account for every slot and
    /// lead to every ring id by itself.
    fn check_against_model(window: usize, ids: impl IntoIterator<Item = u64>) -> SeenWindow {
        let mut seen = SeenWindow::new(window);
        let mut model = Model::new(window);
        for id in ids {
            assert_eq!(seen.insert(RequestId(id)), model.insert(id), "id {id}");
            assert_eq!(seen.ring.len(), model.order.len());
            assert_eq!(seen.contains(RequestId(id)), window > 0);
            assert!((seen.ring.len() + usize::from(seen.stale)) * 4 <= seen.table.len() * 3);
        }
        assert_eq!(seen.ring.len(), model.set.len());
        for id in &model.order {
            assert!(seen.contains(RequestId(*id)), "lost {id}");
        }
        let recent = model.order.iter().rev().take(4);
        assert!(recent.eq(&seen.newest[..seen.ring.len().min(4)]));
        // One slot per ring id plus the stale ones, each naming a ring
        // place, and every ring id found without the inline four.
        let occupied: Vec<u16> = seen.table.iter().copied().filter(|s| *s != 0).collect();
        assert_eq!(occupied.len(), seen.ring.len() + usize::from(seen.stale));
        assert!(occupied
            .iter()
            .all(|slot| usize::from(slot & seen.pos_mask) <= seen.ring.len()));
        assert!(seen.ring.iter().all(|id| seen.indexed(*id)));
        seen
    }

    #[test]
    fn zero_window_accepts_everything_and_keeps_nothing() {
        let seen = check_against_model(0, [3, 3, u64::MAX, u64::MAX]);
        assert!(seen.ring.is_empty());
        assert_eq!(seen.table.capacity() + seen.ring.capacity(), 0);
    }

    /// `0` is what a vacant slot holds and `u64::MAX` its complement; ids
    /// live only in the ring, so neither is special.
    #[test]
    fn zero_and_all_ones_are_ordinary_ids() {
        for id in [0, u64::MAX] {
            let mut seen = SeenWindow::new(2);
            assert!(!seen.contains(RequestId(id)));
            assert!(seen.insert(RequestId(id)));
            assert!(!seen.insert(RequestId(id)));
            assert!(seen.insert(RequestId(1)));
            assert!(seen.insert(RequestId(2)), "evicts {id}");
            assert!(!seen.contains(RequestId(id)));
            assert!(seen.insert(RequestId(id)));
        }
    }

    /// Ids whose hashes share their top 32 bits have one fingerprint and
    /// one home whatever the window and index size: only the ring
    /// comparison separates them.
    #[test]
    fn ids_that_agree_in_every_stored_bit_are_still_told_apart() {
        const INVERSE: u64 = 0xF1DE_83E1_9937_733D;
        assert_eq!(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(INVERSE), 1);
        let id = |low: u64| (0xABCD_1234 << 32 | low).wrapping_mul(INVERSE);

        let mut seen = SeenWindow::new(4);
        assert!((0..4).all(|low| seen.insert(RequestId(id(low)))));
        assert_eq!(seen.hash(id(0)), seen.hash(id(5)));
        assert!(
            (0..4).all(|low| !seen.insert(RequestId(id(low)))),
            "re-offer"
        );
        assert!(
            !seen.contains(RequestId(id(4))),
            "same slot bits, never seen"
        );
        assert!(seen.insert(RequestId(id(4))), "evicts id(0)");
        assert!(!seen.contains(RequestId(id(0))));
        assert!((1..5).all(|low| seen.contains(RequestId(id(low)))));
        assert!(
            seen.insert(RequestId(id(0))),
            "an evicted id is fresh again"
        );

        for (window, pool) in [(4, 10), (150, 400)] {
            check_against_model(window, (0..4_000).map(|n| id(n * 2_654_435_761 % pool)));
        }
    }

    #[test]
    #[should_panic(expected = "MAX_WINDOW")]
    fn a_window_the_slot_layout_cannot_index_is_refused() {
        SeenWindow::new(SeenWindow::MAX_WINDOW + 1);
    }

    /// The largest window fills, wraps and keeps answering as the model
    /// does, with re-offers from inside the window and from before it.
    #[test]
    fn matches_hash_set_and_deque_at_max_window() {
        let window = SeenWindow::MAX_WINDOW as u64;
        let ids = (0..window + 4_000).flat_map(|n| {
            let again = if n % 3 == 0 {
                n / 2
            } else {
                n.saturating_sub(window + 9)
            };
            [n, again].map(|k| ((k % 7) << 32) | (k / 7))
        });
        let seen = check_against_model(SeenWindow::MAX_WINDOW, ids);
        assert_eq!(seen.ring.capacity(), SeenWindow::MAX_WINDOW);
        assert_eq!(seen.table.len(), 1 << 16);
    }

    /// What a window costs: 10,000 peers carry one each, and an index
    /// holding the ids themselves was 31 MB of `sim-scale`'s 88 MB peak
    /// RSS. At its mean fill of 201 ids a window holds at most 1 KB of
    /// index and 2 KB of ring, and a full 512-id one 2 KB and 4 KB.
    #[test]
    fn allocates_no_more_than_the_hash_set_and_deque_did() {
        for (ids, table_bytes, ring_bytes) in [
            (150usize, 1 << 10, 2 << 10),
            (201, 1 << 10, 2 << 10),
            (512, 2 << 10, 4 << 10),
        ] {
            let mut seen = SeenWindow::new(512);
            let mut model = Model::new(512);
            for id in 0..ids as u64 {
                seen.insert(RequestId(id << 32));
                model.insert(id << 32);
            }
            assert_eq!(seen.ring.len(), ids);
            assert!(seen.table.capacity() * 2 <= table_bytes, "{ids} ids: table");
            assert!(seen.ring.capacity() * 8 <= ring_bytes, "{ids} ids: ring");
            // hashbrown keeps one control byte per 8-byte bucket at load
            // ≤ 7/8; the deque doubles.
            let set_bytes = model.set.capacity() * 8 / 7 * 9;
            let deque_bytes = model.order.capacity() * 8;
            assert!(
                seen.table.capacity() * 2 + seen.ring.capacity() * 8 <= set_bytes + deque_bytes,
                "{ids} ids: {} + {} slots against {set_bytes} + {deque_bytes} B",
                seen.table.capacity(),
                seen.ring.capacity(),
            );
        }
        // A full ring is exactly the window, whatever `Vec` would round to,
        // and evictions settle the index at the power of two the live ids
        // fill at most 5/8 of (768 ids are past 5/8 of 1,024 slots).
        for (window, slots) in [(150, 256), (512, 1_024), (768, 2_048)] {
            let mut seen = SeenWindow::new(window);
            for id in 0..3_000 {
                seen.insert(RequestId(id));
            }
            assert_eq!(seen.ring.capacity(), window);
            assert_eq!(seen.table.capacity(), slots);
        }
        // A peer that never hears a flood allocates nothing.
        let seen = SeenWindow::new(512);
        assert!(!seen.contains(RequestId(7)));
        assert_eq!(seen.table.capacity() + seen.ring.capacity(), 0);
    }

    /// Every window up to 70, and those either side of a power-of-two
    /// index's load bounds, answers as the model does over several
    /// rebuilds.
    #[test]
    fn matches_hash_set_and_deque_at_every_small_window() {
        for window in (0..=70).chain([95, 96, 97, 639, 640, 641, 767, 768, 769]) {
            // Uniform picks from a pool of about twice the window, so
            // about half the offers repeat an id still inside it.
            let pool = window as u64 * 2 + 3;
            let mut state = window as u64;
            let ids = (0..window * 12 + 40).map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) % pool
            });
            check_against_model(window, ids);
        }
    }

    proptest! {
        /// Every insert answers as the model does, for windows small enough
        /// to wrap many times (at and around the four ids kept inline) and
        /// large enough to grow the index while evictions are already under
        /// way. Ids come from a pool a little larger than the window, so
        /// repeats inside the window, re-offers of evicted ids and clustered
        /// probes are all common; the pool includes `0` and `u64::MAX`. A
        /// third of the offers repeat one of the last six, as a flood that
        /// re-reaches a peer does.
        #[test]
        fn matches_hash_set_and_deque(
            which in 0usize..8,
            spread in 0u32..3,
            picks in proptest::collection::vec(0u64..1_400, 1..3_000),
        ) {
            let window = [1, 2, 3, 4, 5, 8, 150, 512][which];
            let pool = (window as u64 * 5 / 2).min(1_400);
            let mut offered: Vec<u64> = Vec::new();
            for pick in picks {
                let k = pick % (pool + 1);
                let id = match (k == pool, spread) {
                    _ if pick % 3 == 0 && !offered.is_empty() => {
                        offered[offered.len() - 1 - (pick as usize / 3) % offered.len().min(6)]
                    }
                    (true, _) => u64::MAX,
                    // Counter-only, origin-only and mixed id patterns.
                    (_, 0) => k,
                    (_, 1) => k << 32,
                    _ => ((k % 7) << 32) | (k / 7),
                };
                offered.push(id);
            }
            check_against_model(window, offered);
        }
    }
}
