//! The duplicate-suppression window for flooded queries.
//!
//! An id is stored in the ring and indexed by a 4-byte position: ≈ 19 B
//! per id at `sim-scale`'s 201 ids per peer (8 B of ring plus its doubling
//! slack, 4 B ÷ load of index) where a table of the ids cost ≈ 27 B. The
//! newest four are stored a second time, inline, for 32 B per peer: a
//! flood re-reaches a peer soon after it forwarded the query, so almost
//! every duplicate is one of them and is refused without a load beyond
//! the peer's own struct. Any other duplicate pays the index probe and
//! one ring read.

use crate::messages::RequestId;

/// The last `window` distinct request ids a peer accepted, oldest evicted
/// first — what a flooding peer consults to drop a query it has already
/// forwarded.
///
/// The newest four ids inline, then a ring of the ids in arrival order
/// plus an open-addressed index of their ring positions for the
/// membership test: one multiplicative hash
/// and, at load ≤ 3/4, a probe that rarely leaves the first cache line.
/// A slot is `fingerprint << pos_bits | (position + 1)`, `0` when vacant,
/// and its home the leading bits of its own fingerprint, so growth and
/// deletion never read the ring; a match is confirmed against
/// `ring[position]`, so any two `u64`s are told apart. Both parts grow
/// with the ids actually seen (a peer that never hears a flood allocates
/// nothing) and stop at the window: the index at the power of two that
/// keeps `window` slots under the load bound, the ring at exactly
/// `window` ids. The window also bounds what crafted ids can cost: a
/// probe never walks more than `window` occupied slots.
///
/// # Examples
///
/// ```
/// use socialtube::{RequestId, SeenWindow};
/// use socialtube_model::NodeId;
///
/// let id = |n| RequestId::new(NodeId::new(7), n);
/// let mut seen = SeenWindow::new(2);
/// assert!(seen.insert(id(0)));
/// assert!(!seen.insert(id(0)), "a repeat inside the window is refused");
/// assert!(seen.insert(id(1)));
/// assert!(seen.insert(id(2)), "evicts id 0");
/// assert!(seen.insert(id(0)), "an evicted id is fresh again");
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
    table: Vec<u32>,
    /// The low `pos_bits` of a slot, which hold `position + 1 ≤ window`.
    pos_mask: u32,
    /// The last accepted ids, newest first; the first `min(len, 4)` are
    /// valid, and all of them are still inside the window.
    newest: [u64; 4],
}

impl SeenWindow {
    /// Largest window. The index has up to `pos_bits + 1` address bits,
    /// read from a fingerprint of `32 − pos_bits`: `2·pos_bits + 1 ≤ 32`.
    pub const MAX_WINDOW: usize = 32_767;

    /// Creates an empty window remembering up to `window` ids. A window
    /// of 0 remembers nothing: every id is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `window` exceeds [`SeenWindow::MAX_WINDOW`].
    pub fn new(window: usize) -> Self {
        assert!(window <= Self::MAX_WINDOW, "window exceeds MAX_WINDOW");
        Self {
            window,
            ring: Vec::new(),
            oldest: 0,
            table: Vec::new(),
            pos_mask: (1 << (usize::BITS - window.leading_zeros())) - 1,
            newest: [0; 4],
        }
    }

    /// Number of ids currently remembered.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns `true` if no id is remembered.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Returns `true` if `id` is inside the window.
    pub fn contains(&self, id: RequestId) -> bool {
        if self.newest[..self.ring.len().min(4)].contains(&id.0) {
            return true;
        }
        if self.table.is_empty() {
            return false;
        }
        let (wanted, pos_mask) = (self.fingerprint(id.0), self.pos_mask);
        let mut at = self.home(wanted);
        loop {
            let slot = self.table[at];
            if slot == 0 {
                return false;
            }
            if slot & !pos_mask == wanted && self.ring[(slot & pos_mask) as usize - 1] == id.0 {
                return true;
            }
            at = (at + 1) & (self.table.len() - 1);
        }
    }

    /// Records `id`. Returns `false`, changing nothing, if it is already
    /// inside the window; otherwise forgets the oldest id when the window
    /// is full, remembers `id` and returns `true`.
    pub fn insert(&mut self, id: RequestId) -> bool {
        if self.contains(id) {
            return false;
        }
        if self.window == 0 {
            return true;
        }
        // Evict first: the index's final size is computed for `window` slots.
        let full = self.ring.len() == self.window;
        let position = if full { self.oldest } else { self.ring.len() };
        if full {
            let evicted = std::mem::replace(&mut self.ring[position], id.0);
            self.oldest = (position + 1) % self.window;
            self.table_remove(self.fingerprint(evicted) | (position as u32 + 1));
        } else {
            if self.ring.len() == self.ring.capacity() {
                // Double like `Vec` does, but never past the window.
                let target = (self.ring.len() * 2).max(4).min(self.window);
                self.ring.reserve_exact(target - self.ring.len());
            }
            self.ring.push(id.0);
        }
        // Load ≤ 3/4 with `id`, which the ring already holds.
        if self.ring.len() * 4 > self.table.len() * 3 {
            self.grow();
        }
        self.place(self.fingerprint(id.0) | (position as u32 + 1));
        self.newest.rotate_right(1);
        self.newest[0] = id.0;
        true
    }

    /// The high bits of `id`'s slot: those of a Fibonacci multiplicative
    /// hash, which spread ids that differ only in their low (counter) or
    /// only in their high (origin) half.
    fn fingerprint(&self, id: u64) -> u32 {
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32 & !self.pos_mask
    }

    /// Where `slot`'s probe starts: the leading bits of its fingerprint.
    fn home(&self, slot: u32) -> usize {
        (slot >> (32 - self.table.len().trailing_zeros())) as usize
    }

    /// Writes `slot` (known absent) into the first free place of its probe.
    fn place(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut at = self.home(slot);
        while self.table[at] != 0 {
            at = (at + 1) & mask;
        }
        self.table[at] = slot;
    }

    fn grow(&mut self) {
        // The smallest index, 8 slots, holds up to 6 ids.
        let slots = (self.table.len() * 2).max(8);
        let old = std::mem::replace(&mut self.table, vec![0; slots]);
        for slot in old.into_iter().filter(|slot| *slot != 0) {
            self.place(slot);
        }
    }

    /// Removes `slot` (present, and unique by its position) and closes
    /// the gap by shifting the rest of its cluster back, so no tombstones
    /// accumulate however long the window slides.
    fn table_remove(&mut self, slot: u32) {
        let mask = self.table.len() - 1;
        let mut hole = self.home(slot);
        while self.table[hole] != slot {
            hole = (hole + 1) & mask;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let moving = self.table[at];
            if moving == 0 {
                break;
            }
            // `moving` may fill the hole only if the hole lies on its probe
            // path, i.e. cyclically within [home, at).
            let home = self.home(moving);
            if (at.wrapping_sub(home) & mask) >= (at.wrapping_sub(hole) & mask) {
                self.table[hole] = moving;
                hole = at;
            }
        }
        self.table[hole] = 0;
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
    /// agree, and at the end the index must mirror the ring exactly.
    fn check_against_model(window: usize, ids: impl IntoIterator<Item = u64>) -> SeenWindow {
        let mut seen = SeenWindow::new(window);
        let mut model = Model::new(window);
        for id in ids {
            assert_eq!(seen.insert(RequestId(id)), model.insert(id), "id {id}");
            assert_eq!(seen.len(), model.order.len());
            assert_eq!(seen.contains(RequestId(id)), window > 0);
            assert!(seen.len() * 4 <= seen.table.len() * 3);
        }
        assert_eq!(seen.len(), model.set.len());
        for id in &model.order {
            assert!(seen.contains(RequestId(*id)), "lost {id}");
        }
        let recent = model.order.iter().rev().take(4);
        assert!(recent.eq(&seen.newest[..seen.len().min(4)]));
        // Each occupied slot carries the fingerprint of the id at its
        // position, and each ring position has exactly one slot.
        let occupied = seen.table.iter().filter(|slot| **slot != 0);
        let mut positions: Vec<usize> = occupied
            .map(|slot| {
                let position = (slot & seen.pos_mask) as usize - 1;
                assert_eq!(slot & !seen.pos_mask, seen.fingerprint(seen.ring[position]));
                position
            })
            .collect();
        positions.sort_unstable();
        assert!(positions.into_iter().eq(0..seen.len()));
        seen
    }

    #[test]
    fn zero_window_accepts_everything_and_keeps_nothing() {
        let seen = check_against_model(0, [3, 3, u64::MAX, u64::MAX]);
        assert!(seen.is_empty());
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
    /// one home whatever the window: only the ring comparison separates
    /// them.
    #[test]
    fn ids_that_agree_in_every_stored_bit_are_still_told_apart() {
        const INVERSE: u64 = 0xF1DE_83E1_9937_733D;
        assert_eq!(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(INVERSE), 1);
        let id = |low: u64| (0xABCD_1234 << 32 | low).wrapping_mul(INVERSE);

        let mut seen = SeenWindow::new(4);
        assert_eq!(seen.fingerprint(id(0)), seen.fingerprint(id(5)));
        assert!((0..4).all(|low| seen.insert(RequestId(id(low)))));
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
    /// RSS.
    #[test]
    fn allocates_no_more_than_the_hash_set_and_deque_did() {
        for (ids, table_bytes) in [(150usize, 1 << 10), (512, 4 << 10)] {
            let mut seen = SeenWindow::new(512);
            let mut model = Model::new(512);
            for id in 0..ids as u64 {
                seen.insert(RequestId(id << 32));
                model.insert(id << 32);
            }
            assert_eq!(seen.len(), ids);
            assert!(seen.table.capacity() * 4 <= table_bytes, "{ids} ids: table");
            assert!(seen.ring.capacity() <= 512, "{ids} ids: ring");
            // hashbrown keeps one control byte per 8-byte bucket at load
            // ≤ 7/8; the deque doubles.
            let set_bytes = model.set.capacity() * 8 / 7 * 9;
            let deque_bytes = model.order.capacity() * 8;
            assert!(
                seen.table.capacity() * 4 + seen.ring.capacity() * 8 <= set_bytes + deque_bytes,
                "{ids} ids: {} + {} slots against {set_bytes} + {deque_bytes} B",
                seen.table.capacity(),
                seen.ring.capacity(),
            );
        }
        // A full ring is exactly the window, whatever `Vec` would round to.
        for window in [150, 512] {
            let mut seen = SeenWindow::new(window);
            for id in 0..1_000 {
                seen.insert(RequestId(id));
            }
            assert_eq!(seen.ring.capacity(), window);
            assert_eq!(seen.table.capacity(), (window * 4 / 3).next_power_of_two());
        }
        // A peer that never hears a flood allocates nothing.
        let seen = SeenWindow::new(512);
        assert!(!seen.contains(RequestId(7)));
        assert_eq!(seen.table.capacity() + seen.ring.capacity(), 0);
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
