//! The duplicate-suppression window for flooded queries.

use crate::messages::RequestId;

/// Marks an empty table slot. The one id that equals it is remembered in
/// [`SeenWindow::holds_vacant_id`] instead of the table.
const VACANT: u64 = u64::MAX;
/// Smallest table allocated: 8 slots hold up to 6 ids.
const MIN_SLOTS: usize = 8;

/// The last `window` distinct request ids a peer accepted, oldest evicted
/// first — what a flooding peer consults to drop a query it has already
/// forwarded.
///
/// A ring of the ids in arrival order plus an open-addressed table of the
/// same ids for the membership test: one multiplicative hash and, at load
/// ≤ 3/4, a probe that rarely leaves the first cache line, where
/// `HashSet` + `VecDeque` cost a SipHash and three cold lines per query.
/// Both parts grow with the ids actually seen (a peer that never hears a
/// flood allocates nothing) and stop at the window: the table at the
/// power of two that keeps `window` ids under the load bound, the ring at
/// exactly `window` slots. The window also bounds what crafted ids can
/// cost: a probe never walks more than `window` occupied slots.
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
    /// Linear-probing table over the ring's ids; length 0 or a power of
    /// two, `VACANT` in free slots.
    table: Vec<u64>,
    /// Whether the ring holds the id equal to `VACANT` — the one ring
    /// entry the table does not mirror.
    holds_vacant_id: bool,
}

impl SeenWindow {
    /// Creates an empty window remembering up to `window` ids. A window
    /// of 0 remembers nothing: every id is accepted.
    pub fn new(window: usize) -> Self {
        Self {
            window,
            ring: Vec::new(),
            oldest: 0,
            table: Vec::new(),
            holds_vacant_id: false,
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
        if id.0 == VACANT {
            return self.holds_vacant_id;
        }
        if self.table.is_empty() {
            return false;
        }
        let mut at = self.home(id.0);
        loop {
            match self.table[at] {
                VACANT => return false,
                found if found == id.0 => return true,
                _ => at = (at + 1) & (self.table.len() - 1),
            }
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
        // Evicting first keeps the table at `window` ids or fewer, which is
        // what its final size is computed for.
        if self.ring.len() == self.window {
            let evicted = std::mem::replace(&mut self.ring[self.oldest], id.0);
            self.oldest = (self.oldest + 1) % self.window;
            self.table_remove(evicted);
        } else {
            if self.ring.len() == self.ring.capacity() {
                // Double like `Vec` does, but never past the window.
                let target = (self.ring.len() * 2).max(4).min(self.window);
                self.ring.reserve_exact(target - self.ring.len());
            }
            self.ring.push(id.0);
        }
        self.table_insert(id.0);
        true
    }

    /// Ids the table mirrors: every ring entry but the vacant marker.
    fn stored(&self) -> usize {
        self.ring.len() - usize::from(self.holds_vacant_id)
    }

    /// Slot the probe for `id` starts at: the top bits of a Fibonacci
    /// multiplicative hash, which spread ids that differ only in their
    /// low (counter) or only in their high (origin) half.
    fn home(&self, id: u64) -> usize {
        let bits = self.table.len().trailing_zeros();
        (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    fn table_insert(&mut self, id: u64) {
        if id == VACANT {
            self.holds_vacant_id = true;
            return;
        }
        // Load ≤ 3/4 with `id`, which the ring already holds.
        if self.stored() * 4 > self.table.len() * 3 {
            self.grow();
        }
        self.place(id);
    }

    /// Writes `id` (known absent) into the first free slot of its probe.
    fn place(&mut self, id: u64) {
        let mask = self.table.len() - 1;
        let mut at = self.home(id);
        while self.table[at] != VACANT {
            at = (at + 1) & mask;
        }
        self.table[at] = id;
    }

    fn grow(&mut self) {
        let slots = (self.table.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.table, vec![VACANT; slots]);
        for id in old.into_iter().filter(|id| *id != VACANT) {
            self.place(id);
        }
    }

    /// Removes `id` (known present) and closes the gap by shifting the
    /// rest of its cluster back, so no tombstones accumulate however long
    /// the window slides.
    fn table_remove(&mut self, id: u64) {
        if id == VACANT {
            self.holds_vacant_id = false;
            return;
        }
        let mask = self.table.len() - 1;
        let mut hole = self.home(id);
        while self.table[hole] != id {
            hole = (hole + 1) & mask;
        }
        let mut at = hole;
        loop {
            at = (at + 1) & mask;
            let moving = self.table[at];
            if moving == VACANT {
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
        self.table[hole] = VACANT;
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

    #[test]
    fn zero_window_accepts_everything_and_keeps_nothing() {
        let mut seen = SeenWindow::new(0);
        let mut model = Model::new(0);
        for id in [3, 3, u64::MAX, u64::MAX] {
            assert_eq!(seen.insert(RequestId(id)), model.insert(id));
        }
        assert!(seen.is_empty());
        assert_eq!(seen.table.capacity() + seen.ring.capacity(), 0);
    }

    #[test]
    fn the_vacant_marker_is_an_ordinary_id() {
        let mut seen = SeenWindow::new(2);
        assert!(seen.insert(RequestId(VACANT)));
        assert!(!seen.insert(RequestId(VACANT)));
        assert!(seen.insert(RequestId(1)));
        assert!(seen.insert(RequestId(2)), "evicts the marker id");
        assert!(!seen.contains(RequestId(VACANT)));
        assert!(seen.insert(RequestId(VACANT)));
    }

    /// A window holding 150 and 512 ids allocates no more than the pair it
    /// replaced: 10,000 peers carry one each, and the first table tried
    /// (load ≤ 1/2) alone cost `sim-scale` 12 % of peak RSS.
    #[test]
    fn allocates_no_more_than_the_hash_set_and_deque_did() {
        for (ids, table_bytes) in [(150usize, 2 << 10), (512, 8 << 10)] {
            let mut seen = SeenWindow::new(512);
            let mut model = Model::new(512);
            for id in 0..ids as u64 {
                seen.insert(RequestId(id << 32));
                model.insert(id << 32);
            }
            assert_eq!(seen.len(), ids);
            assert!(seen.table.capacity() * 8 <= table_bytes, "{ids} ids: table");
            assert!(seen.ring.capacity() * 8 <= 512 * 8, "{ids} ids: ring");
            // hashbrown keeps one control byte per 8-byte bucket at load
            // ≤ 7/8; the deque doubles.
            let set_bytes = model.set.capacity() * 8 / 7 * 9;
            let deque_bytes = model.order.capacity() * 8;
            assert!(
                (seen.table.capacity() + seen.ring.capacity()) * 8 <= set_bytes + deque_bytes,
                "{ids} ids: {} + {} slots against {set_bytes} + {deque_bytes} B",
                seen.table.capacity(),
                seen.ring.capacity(),
            );
        }
        // A full ring is exactly the window, whatever `Vec` would round to.
        let mut seen = SeenWindow::new(150);
        for id in 0..1_000 {
            seen.insert(RequestId(id));
        }
        assert_eq!(seen.ring.capacity(), 150);
        assert_eq!(seen.table.capacity(), 256);
    }

    proptest! {
        /// Every insert answers as the model does, for windows small enough
        /// to wrap many times and large enough to grow the table while
        /// evictions are already under way. Ids come from a pool a little
        /// larger than the window, so repeats inside the window, re-offers
        /// of evicted ids and clustered probes are all common; the pool
        /// includes the table's vacant marker.
        #[test]
        fn matches_hash_set_and_deque(
            which in 0usize..3,
            spread in 0u32..3,
            picks in proptest::collection::vec(0u64..1_400, 1..3_000),
        ) {
            let window = [1, 8, 512][which];
            let pool = (window as u64 * 5 / 2).min(1_400);
            let mut seen = SeenWindow::new(window);
            let mut model = Model::new(window);
            for pick in picks {
                let k = pick % (pool + 1);
                let id = match (k == pool, spread) {
                    (true, _) => VACANT,
                    // Counter-only, origin-only and mixed id patterns.
                    (_, 0) => k,
                    (_, 1) => k << 32,
                    _ => ((k % 7) << 32) | (k / 7),
                };
                prop_assert_eq!(seen.insert(RequestId(id)), model.insert(id), "id {}", id);
                prop_assert_eq!(seen.len(), model.order.len());
                prop_assert!(seen.contains(RequestId(id)));
                prop_assert!(seen.stored() * 4 <= seen.table.len() * 3);
            }
            for id in &model.order {
                prop_assert!(seen.contains(RequestId(*id)), "lost {}", id);
            }
            let mirrored = seen.table.iter().filter(|id| **id != VACANT).count();
            prop_assert_eq!(mirrored, seen.stored());
            prop_assert_eq!(seen.len(), model.set.len());
        }
    }
}
