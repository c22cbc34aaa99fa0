//! The pending-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Number of tick-granular buckets in the near wheel (one epoch).
const WHEEL_BUCKETS: usize = 4096;
/// Bucket width as a power-of-two of microseconds: 2^10 µs ≈ 1 ms.
pub(crate) const TICK_SHIFT: u32 = 10;
/// Ticks-to-epoch shift: an epoch is one near-wheel revolution.
const EPOCH_SHIFT: u32 = WHEEL_BUCKETS.trailing_zeros();
/// Number of epoch-granular buckets in the far wheel: with ~4.2 s epochs
/// the two wheels together reach ~71 min ahead.
const FAR_BUCKETS: usize = 1024;
/// End of a slot list. Never a valid slot: [`EventQueue::alloc`] keeps the
/// slab shorter than this, so indexing the slab with it finds nothing.
const NIL: u32 = u32::MAX;

/// Snapshot of the calendar queue's internal layout, for instrumentation.
///
/// Exposed so drivers can feed bucket-occupancy histograms without the
/// queue depending on any observation crate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueOccupancy {
    /// Buckets of the near wheel currently holding at least one event.
    pub occupied_buckets: usize,
    /// Events stored in near-wheel buckets (inside the current epoch).
    pub wheel_events: usize,
    /// Events parked beyond the current epoch: far wheel plus the
    /// past-horizon heap.
    pub overflow_events: usize,
    /// Events in the sorted working set of the current tick.
    pub current_events: usize,
}

/// A time-ordered queue of pending events, laid out as a two-level timer
/// wheel over one slab: tick-granular buckets for the current epoch,
/// epoch-granular buckets for the next ~71 minutes, and a heap for anything
/// later.
///
/// Events that share a timestamp are delivered in insertion order (FIFO),
/// which makes simulations fully deterministic: the queue never depends on
/// heap tie-breaking of the payload type.
///
/// # Ordering contract
///
/// Every pushed event is stamped with a sequence number from a single
/// monotonically increasing `u64` counter (never reset, not even by
/// [`clear`](EventQueue::clear)), and delivery follows the strict total
/// order `(time, seq)`. Two consequences:
///
/// * same-time events pop in push order (FIFO ties), and
/// * delivery order is a pure function of the push sequence — independent
///   of the internal bucket/heap layout, so this calendar queue is
///   delivery-order-identical to the binary-heap implementation it
///   replaced.
///
/// The counter cannot realistically overflow: at 10⁹ pushes per second a
/// `u64` lasts ~585 years of wall clock. Monotonicity of popped
/// `(time, seq)` pairs is debug-asserted on every [`pop`](EventQueue::pop).
///
/// # Layout
///
/// Every pending event lives in one slab slot from push to pop; the levels
/// below only link or name slots, so an event is written once and read
/// once. A pop threads its slot onto a LIFO free list and the next push
/// takes it back, so the slab never grows past the largest number of
/// events ever pending at once.
///
/// Time is cut into *epochs* of `WHEEL_BUCKETS` ticks. The near wheel holds
/// the current epoch: bucket `t % WHEEL_BUCKETS` heads the (unsorted) list
/// of the events of tick `t`. When the cursor reaches a bucket, the keys of
/// its events are sorted by `(time, seq)` into a working set popped from
/// earliest to latest — because sequence numbers are globally monotonic,
/// this reproduces exact heap order. The far wheel holds the next
/// `FAR_BUCKETS - 1` epochs, one unsorted list per epoch; events past that
/// horizon wait in a heap of keys. When the near wheel drains, the queue
/// re-bases on the next non-empty epoch: heap entries the horizon now
/// covers drop into the wheels, and that epoch's far list is relinked into
/// the near buckets — O(1) per event, no comparisons, nothing moved.
///
/// # Examples
///
/// ```
/// use socialtube_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_micros(10), 'b');
/// q.push(SimTime::from_micros(10), 'c');
/// q.push(SimTime::from_micros(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The slab: every pending event, plus the vacated slots on `free`.
    nodes: Vec<Node<E>>,
    /// Head of the list of vacated slots, most recently vacated first.
    free: u32,
    /// Near wheel: heads of the tick lists of epoch `epoch`.
    buckets: Vec<u32>,
    /// One bit per near bucket: set iff the bucket is non-empty.
    occupied: [u64; WHEEL_BUCKETS / 64],
    /// Working set of the tick at `cursor`, sorted *descending* so
    /// [`Vec::pop`] yields the earliest key.
    current: Vec<Key>,
    /// Far wheel: bucket `e % FAR_BUCKETS` heads the list of the events of
    /// epoch `e` for `epoch < e < epoch + FAR_BUCKETS`.
    far: Vec<u32>,
    /// One bit per far bucket: set iff the bucket is non-empty.
    far_occupied: [u64; FAR_BUCKETS / 64],
    /// Events at epochs `>= epoch + FAR_BUCKETS`.
    past_horizon: BinaryHeap<Reverse<Key>>,
    /// Epoch the near wheel covers.
    epoch: u64,
    /// Tick currently being drained.
    cursor: u64,
    /// Events currently held in near-wheel buckets.
    wheel_len: usize,
    /// Events currently held in far-wheel buckets.
    far_len: usize,
    /// Total pending events (current + near + far + past horizon).
    len: usize,
    next_seq: u64,
    /// Last popped `(time, seq)`, for the monotonicity debug-assertion.
    last_popped: Option<(SimTime, u64)>,
}

/// One slab slot. `event` is `None` exactly while the slot is on the free
/// list; `next` links the slot into whichever list holds it.
#[derive(Debug)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// `(time, seq, slot)`: ordered by the delivery order of the event in
/// `slot` — the payload never participates in comparisons, and `(time,
/// seq)` is unique among pending events, so the slot never decides.
type Key = (SimTime, u64, u32);

fn tick_of(time: SimTime) -> u64 {
    time.as_micros() >> TICK_SHIFT
}

/// Index of the first set bit at or after `from`, scanning word-wise.
fn first_set_from(bits: &[u64], from: usize) -> Option<usize> {
    let mut at = from;
    while at < bits.len() * 64 {
        // Bits [at % 64..64) of this word cover indices at..at + 64 - at % 64.
        let word = bits[at / 64] >> (at % 64);
        if word != 0 {
            return Some(at + word.trailing_zeros() as usize);
        }
        at += 64 - at % 64;
    }
    None
}

/// The slots of the list headed by `head`, with their nodes.
fn chain<E>(nodes: &[Node<E>], head: u32) -> impl Iterator<Item = (u32, &Node<E>)> {
    let mut at = head;
    std::iter::from_fn(move || {
        let node = nodes.get(at as usize)?; // NIL is past the end
        let slot = std::mem::replace(&mut at, node.next);
        Some((slot, node))
    })
}

/// Puts `slot` at the head of the list `head` names.
fn link<E>(nodes: &mut [Node<E>], head: &mut u32, slot: u32) {
    nodes[slot as usize].next = std::mem::replace(head, slot);
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            buckets: vec![NIL; WHEEL_BUCKETS],
            occupied: [0; WHEEL_BUCKETS / 64],
            current: Vec::new(),
            far: vec![NIL; FAR_BUCKETS],
            far_occupied: [0; FAR_BUCKETS / 64],
            past_horizon: BinaryHeap::new(),
            epoch: 0,
            cursor: 0,
            wheel_len: 0,
            far_len: 0,
            len: 0,
            next_seq: 0,
            last_popped: None,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_with_seq(time, seq, event);
    }

    /// Schedules `event` at `time` under a caller-chosen sequence number,
    /// bypassing the internal counter (which is neither consumed nor
    /// advanced).
    ///
    /// This is the sharded executor's entry point: the epoch coordinator
    /// owns one global sequence counter and stamps cross-shard deliveries
    /// with canonical numbers, while intra-epoch cascades carry provisional
    /// keys above [`CASCADE_SEQ_BASE`](crate::shard::CASCADE_SEQ_BASE).
    /// The caller owns the `(time, seq)` total order: pushing a key at or
    /// below one already popped violates the delivery contract (caught by
    /// the monotonicity debug-assertion on [`pop`](EventQueue::pop)).
    /// Mixing with plain [`push`](EventQueue::push) on the same queue is
    /// only sound if the caller keeps the two key ranges disjoint.
    pub fn push_with_seq(&mut self, time: SimTime, seq: u64, event: E) {
        let slot = self.alloc(Node {
            time,
            seq,
            next: NIL,
            event: Some(event),
        });
        let tick = tick_of(time);
        if tick <= self.cursor {
            // At (or before) the tick being drained: insert into the
            // descending working set. A same-tick FIFO push carries the
            // largest key so far and lands near the front; the common
            // cross-tick push never takes this branch (simulation drivers
            // schedule at or after `now`, usually ticks ahead).
            let key = (time, seq, slot);
            let at = self.current.partition_point(|k| *k > key);
            self.current.insert(at, key);
        } else {
            self.place(tick, slot);
        }
        self.len += 1;
    }

    /// Stores `node` in the most recently vacated slot — its cache line is
    /// the likeliest to still be hot — or in a new one when none is vacant.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        let slot = self.free;
        if let Some(vacant) = self.nodes.get_mut(slot as usize) {
            self.free = vacant.next;
            *vacant = node;
            return slot;
        }
        assert!(self.nodes.len() < NIL as usize, "slot ids exhausted");
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    /// Files the event in `slot`, of a tick after `cursor`, under the level
    /// its epoch belongs to.
    fn place(&mut self, tick: u64, slot: u32) {
        let epoch = tick >> EPOCH_SHIFT;
        if epoch == self.epoch {
            let idx = (tick % WHEEL_BUCKETS as u64) as usize;
            link(&mut self.nodes, &mut self.buckets[idx], slot);
            self.occupied[idx / 64] |= 1 << (idx % 64);
            self.wheel_len += 1;
        } else if epoch < self.epoch + FAR_BUCKETS as u64 {
            let idx = (epoch % FAR_BUCKETS as u64) as usize;
            link(&mut self.nodes, &mut self.far[idx], slot);
            self.far_occupied[idx / 64] |= 1 << (idx % 64);
            self.far_len += 1;
        } else {
            let node = &self.nodes[slot as usize];
            self.past_horizon.push(Reverse((node.time, node.seq, slot)));
        }
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_with_seq().map(|(time, _, event)| (time, event))
    }

    /// Like [`pop`](EventQueue::pop), also returning the entry's sequence
    /// number — the shard executor logs it so the epoch merge can
    /// reconstruct the canonical global order.
    pub fn pop_with_seq(&mut self) -> Option<(SimTime, u64, E)> {
        if self.len == 0 {
            return None;
        }
        if self.current.is_empty() {
            self.advance();
        }
        let (time, seq, slot) = self
            .current
            .pop()
            .expect("advance() always yields a non-empty working set");
        self.len -= 1;
        debug_assert!(
            self.last_popped.is_none_or(|last| last < (time, seq)),
            "event queue delivery order regressed"
        );
        if cfg!(debug_assertions) {
            self.last_popped = Some((time, seq));
        }
        let node = &mut self.nodes[slot as usize];
        let event = node.event.take().expect("pending key, vacant slot");
        node.next = std::mem::replace(&mut self.free, slot);
        Some((time, seq, event))
    }

    /// Moves the cursor to the next non-empty tick and loads its bucket as
    /// the working set. Caller guarantees `len > 0` and `current` empty.
    fn advance(&mut self) {
        let from = if self.wheel_len == 0 {
            self.rebase();
            0
        } else {
            (self.cursor % WHEEL_BUCKETS as u64) as usize + 1
        };
        let idx = first_set_from(&self.occupied, from)
            .expect("wheel_len > 0 but no occupied bucket ahead of the cursor");
        self.cursor = (self.epoch << EPOCH_SHIFT) + idx as u64;
        let head = std::mem::replace(&mut self.buckets[idx], NIL);
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        self.current
            .extend(chain(&self.nodes, head).map(|(slot, n)| (n.time, n.seq, slot)));
        self.wheel_len -= self.current.len();
        // Seq numbers are globally monotonic, so sorting by (time, seq)
        // reproduces exact push order among same-time entries. Descending,
        // so Vec::pop takes the earliest.
        self.current.sort_unstable_by(|a, b| b.cmp(a));
        debug_assert!(!self.current.is_empty(), "advanced to an empty bucket");
    }

    /// The epoch is spent: moves the near wheel to the next epoch holding
    /// an event. Caller guarantees the near wheel and the working set are
    /// empty and `len > 0`.
    fn rebase(&mut self) {
        self.epoch = self
            .next_far_epoch()
            .or_else(|| {
                let Reverse((time, ..)) = self.past_horizon.peek()?;
                Some(tick_of(*time) >> EPOCH_SHIFT)
            })
            .expect("len > 0 with every level empty");
        // The horizon moved with the epoch: file what it now covers.
        let horizon = (self.epoch + FAR_BUCKETS as u64) << EPOCH_SHIFT;
        while let Some(&Reverse((time, _, slot))) = self.past_horizon.peek() {
            let tick = tick_of(time);
            if tick >= horizon {
                break;
            }
            self.past_horizon.pop();
            self.place(tick, slot);
        }
        // Deal the epoch's far list out to the tick buckets: each event is
        // relinked where it lies.
        let idx = (self.epoch % FAR_BUCKETS as u64) as usize;
        let mut at = std::mem::replace(&mut self.far[idx], NIL);
        self.far_occupied[idx / 64] &= !(1 << (idx % 64));
        while let Some(node) = self.nodes.get(at as usize) {
            let (slot, tick) = (at, tick_of(node.time));
            at = node.next;
            self.far_len -= 1;
            self.place(tick, slot);
        }
    }

    /// The first epoch after `epoch` with a non-empty far bucket. Far
    /// slots wrap, so the scan runs from the slot after the current
    /// epoch's to the end and then from slot 0 up to it.
    fn next_far_epoch(&self) -> Option<u64> {
        if self.far_len == 0 {
            return None;
        }
        let here = (self.epoch % FAR_BUCKETS as u64) as usize;
        let slot = first_set_from(&self.far_occupied, here + 1)
            .or_else(|| first_set_from(&self.far_occupied, 0))?;
        let ahead = (slot + FAR_BUCKETS - here) % FAR_BUCKETS;
        Some(self.epoch + ahead as u64)
    }

    /// Returns the timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(&(time, ..)) = self.current.last() {
            return Some(time);
        }
        let earliest = |head: u32| chain(&self.nodes, head).map(|(_, n)| n.time).min();
        if self.wheel_len > 0 {
            let from = (self.cursor % WHEEL_BUCKETS as u64) as usize + 1;
            return earliest(self.buckets[first_set_from(&self.occupied, from)?]);
        }
        if let Some(epoch) = self.next_far_epoch() {
            return earliest(self.far[(epoch % FAR_BUCKETS as u64) as usize]);
        }
        self.past_horizon.peek().map(|&Reverse((time, ..))| time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events. The sequence counter is *not* reset, so
    /// the FIFO tie-break contract holds across a clear.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.buckets.fill(NIL);
        self.far.fill(NIL);
        self.occupied = [0; WHEEL_BUCKETS / 64];
        self.far_occupied = [0; FAR_BUCKETS / 64];
        self.current.clear();
        self.past_horizon.clear();
        self.wheel_len = 0;
        self.far_len = 0;
        self.len = 0;
    }

    /// Current layout statistics: bucket occupancy and overflow pressure.
    pub fn occupancy(&self) -> QueueOccupancy {
        QueueOccupancy {
            occupied_buckets: self.occupied.iter().map(|w| w.count_ones() as usize).sum(),
            wheel_events: self.wheel_len,
            overflow_events: self.far_len + self.past_horizon.len(),
            current_events: self.current.len(),
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<T: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: T) {
        for (time, event) in iter {
            self.push(time, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<T: IntoIterator<Item = (SimTime, E)>>(iter: T) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), 3);
        q.push(SimTime::from_micros(10), 1);
        q.push(SimTime::from_micros(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_micros(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(5), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(5)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_sees_through_every_layer() {
        let mut q = EventQueue::new();
        // Past-horizon heap only.
        let late = SimTime::from_micros(2 * 3600 * 1_000_000);
        q.push(late, 0);
        assert_eq!(q.peek_time(), Some(late));
        // Far wheel beats the heap; the earliest of an unsorted far bucket.
        let far = SimTime::from_micros(3600 * 1_000_000);
        q.push(far + crate::SimDuration::from_micros(7), 1);
        q.push(far, 1);
        assert_eq!(q.peek_time(), Some(far));
        // Near bucket beats the far wheel.
        let near = SimTime::from_micros(5_000);
        q.push(near, 2);
        assert_eq!(q.peek_time(), Some(near));
        // Working set beats both.
        assert_eq!(q.pop(), Some((near, 2)));
        q.push(near, 3);
        assert_eq!(q.peek_time(), Some(near));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<u8> = [(SimTime::from_micros(1), 1u8)].into_iter().collect();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_holds_across_clear() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(1), 'x');
        q.clear();
        let t = SimTime::from_micros(9);
        q.push(t, 'a');
        q.push(t, 'b');
        assert_eq!(q.pop(), Some((t, 'a')));
        assert_eq!(q.pop(), Some((t, 'b')));
    }

    #[test]
    fn collects_from_iterator() {
        let q: EventQueue<u8> = (0..5u8)
            .map(|i| (SimTime::from_micros(i as u64), i))
            .collect();
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn far_future_events_cross_far_wheel_and_heap() {
        let mut q = EventQueue::new();
        // Logins staggered over ~2.7 h — the first 44 inside the far
        // wheel's ~71 min horizon, the rest past it — plus near-term
        // chatter, interleaved.
        let mut expect = Vec::new();
        for i in 0..100u64 {
            let t = SimTime::from_micros(i * 97 * 1_000_000); // ~1.6 min apart
            q.push(t, i);
            expect.push((t, i));
        }
        for i in 100..110u64 {
            let t = SimTime::from_micros(i);
            q.push(t, i);
            expect.push((t, i));
        }
        expect.sort_by_key(|(t, i)| (*t, *i));
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expect);
        assert!(q.is_empty());
    }

    #[test]
    fn occupancy_reports_layout() {
        let mut q = EventQueue::new();
        assert_eq!(q.occupancy(), QueueOccupancy::default());
        q.push(SimTime::from_micros(2_000), 1); // wheel bucket
        q.push(SimTime::from_micros(2_040), 2); // same 1024 µs bucket
        q.push(SimTime::from_micros(60_000_000), 3); // far wheel
        q.push(SimTime::from_micros(7_200_000_000), 4); // past the horizon
        let occ = q.occupancy();
        assert_eq!(occ.occupied_buckets, 1);
        assert_eq!(occ.wheel_events, 2);
        assert_eq!(occ.overflow_events, 2);
        q.pop();
        let occ = q.occupancy();
        assert_eq!(occ.occupied_buckets, 0);
        assert_eq!(occ.current_events, 1);
    }

    /// The pre-refactor binary-heap queue, kept as the differential-test
    /// oracle: same `(time, seq)` total order, trivially correct.
    mod reference {
        use super::*;

        /// Heap entry ordered by `(time, seq)` only — the payload never
        /// participates in comparisons.
        struct Entry<E> {
            time: SimTime,
            seq: u64,
            event: E,
        }

        impl<E> PartialEq for Entry<E> {
            fn eq(&self, other: &Self) -> bool {
                (self.time, self.seq) == (other.time, other.seq)
            }
        }

        impl<E> Eq for Entry<E> {}

        impl<E> PartialOrd for Entry<E> {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }

        impl<E> Ord for Entry<E> {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                (self.time, self.seq).cmp(&(other.time, other.seq))
            }
        }

        pub struct HeapQueue<E> {
            heap: BinaryHeap<Reverse<Entry<E>>>,
            next_seq: u64,
        }

        impl<E> HeapQueue<E> {
            pub fn new() -> Self {
                Self {
                    heap: BinaryHeap::new(),
                    next_seq: 0,
                }
            }

            pub fn push(&mut self, time: SimTime, event: E) {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.heap.push(Reverse(Entry { time, seq, event }));
            }

            pub fn pop(&mut self) -> Option<(SimTime, E)> {
                self.heap.pop().map(|Reverse(e)| (e.time, e.event))
            }

            pub fn peek_time(&self) -> Option<SimTime> {
                self.heap.peek().map(|Reverse(e)| e.time)
            }

            pub fn len(&self) -> usize {
                self.heap.len()
            }

            /// Like the calendar queue's: the counter survives.
            pub fn clear(&mut self) {
                self.heap.clear();
            }
        }
    }

    mod properties {
        use super::reference::HeapQueue;
        use super::*;
        use proptest::prelude::*;

        const EPOCH_MICROS: u64 = (WHEEL_BUCKETS as u64) << TICK_SHIFT;
        const HORIZON_MICROS: u64 = FAR_BUCKETS as u64 * EPOCH_MICROS;

        #[derive(Clone, Debug)]
        enum Op {
            /// Push this many µs after the last popped time.
            After(u64),
            /// Push `.1 - 1` µs off the boundary `.0` epochs ahead.
            Boundary(u64, u64),
            Pop,
            Clear,
        }

        proptest! {
            /// Any push sequence pops in non-decreasing time order, and
            /// equal-time events keep their insertion order (stability).
            #[test]
            fn pops_sorted_and_stable(times in proptest::collection::vec(0u64..1_000, 1..200)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_micros(*t), i);
                }
                let mut last: Option<(SimTime, usize)> = None;
                while let Some((t, i)) = q.pop() {
                    if let Some((lt, li)) = last {
                        prop_assert!(t >= lt, "time went backwards");
                        if t == lt {
                            prop_assert!(i > li, "FIFO violated among ties");
                        }
                    }
                    last = Some((t, i));
                }
            }

            /// len() tracks pushes minus pops exactly.
            #[test]
            fn len_is_consistent(times in proptest::collection::vec(0u64..100, 0..100)) {
                let mut q = EventQueue::new();
                for (i, t) in times.iter().enumerate() {
                    q.push(SimTime::from_micros(*t), i);
                    prop_assert_eq!(q.len(), i + 1);
                }
                for left in (0..times.len()).rev() {
                    q.pop();
                    prop_assert_eq!(q.len(), left);
                }
                prop_assert!(q.is_empty());
            }

            /// Differential test against the binary-heap reference: random
            /// interleavings of schedules and drains — with time offsets
            /// spanning the working set, the near wheel, the far wheel and
            /// the past-horizon heap, timestamps exactly on and one µs
            /// either side of epoch boundaries, plus deliberate same-tick
            /// ties, and the occasional `clear` with events pending at every
            /// level — deliver identically from both implementations, and
            /// `peek_time` names the reference's minimum after every op.
            #[test]
            fn matches_heap_reference(
                ops in proptest::collection::vec(
                    prop_oneof![
                        // Near pushes: same tick / same epoch.
                        (0u64..5_000).prop_map(Op::After),
                        // Far pushes: land in the far wheel.
                        (4_000_000u64..400_000_000).prop_map(Op::After),
                        // Past the far horizon (> 71 min): the heap.
                        (HORIZON_MICROS..3 * HORIZON_MICROS).prop_map(Op::After),
                        // Exact ties on a handful of timestamps.
                        (0u64..4).prop_map(|t| Op::After(t * 1_000_000)),
                        // On an epoch boundary, or one µs before / after it.
                        (1u64..1_500, 0u64..3).prop_map(|(e, d)| Op::Boundary(e, d)),
                        Just(Op::Pop),
                        // Mostly pops; a rare clear, so the queues are
                        // deep at every level when one lands.
                        (0u64..12).prop_map(|r| if r == 0 { Op::Clear } else { Op::Pop }),
                    ],
                    1..400,
                ),
            ) {
                let mut calendar = EventQueue::new();
                let mut heap = HeapQueue::new();
                // Clocked like a simulation: pushes are relative to the
                // last popped time, so the cursor keeps moving forward.
                let mut now = 0u64;
                for (i, op) in ops.into_iter().enumerate() {
                    let at = match op {
                        Op::After(offset) => Some(now + offset),
                        Op::Boundary(epochs, d) => {
                            Some((now / EPOCH_MICROS + epochs) * EPOCH_MICROS + d - 1)
                        }
                        Op::Pop => {
                            let got = calendar.pop();
                            prop_assert_eq!(got, heap.pop(), "queues diverged");
                            if let Some((t, _)) = got {
                                now = t.as_micros();
                            }
                            None
                        }
                        Op::Clear => {
                            calendar.clear();
                            heap.clear();
                            None
                        }
                    };
                    if let Some(at) = at {
                        let t = SimTime::from_micros(at);
                        calendar.push(t, i);
                        heap.push(t, i);
                    }
                    prop_assert_eq!(calendar.len(), heap.len());
                    prop_assert_eq!(calendar.peek_time(), heap.peek_time());
                }
                // Drain both completely: every remaining event must match.
                loop {
                    let got = calendar.pop();
                    let want = heap.pop();
                    prop_assert_eq!(got, want, "queues diverged at drain");
                    prop_assert_eq!(calendar.peek_time(), heap.peek_time());
                    if got.is_none() {
                        break;
                    }
                }
            }
        }
    }

    mod layout {
        use super::*;

        /// A slab slot is the payload plus at most three words of header
        /// (`time`, `seq`, `next` and the vacancy niche): growth here
        /// multiplies across every pending event.
        #[test]
        fn node_header_is_at_most_three_words() {
            assert_eq!(std::mem::size_of::<Node<()>>(), 24);
            // A payload with a niche (the driver's event enum has one)
            // pays nothing for the `Option`.
            assert_eq!(std::mem::size_of::<Node<Box<u64>>>(), 24 + 8);
            assert_eq!(std::mem::size_of::<Key>(), 24);
        }

        /// The wheels reach ~71 min and cost an empty queue one `u32` list
        /// head per bucket, nothing per event, and no slab.
        #[test]
        fn empty_wheels_cost_four_bytes_a_bucket() {
            let horizon_micros = (FAR_BUCKETS as u64) << (EPOCH_SHIFT + TICK_SHIFT);
            assert_eq!(horizon_micros / 60_000_000, 71);
            let q: EventQueue<[u64; 7]> = EventQueue::new();
            assert_eq!(std::mem::size_of_val(&q.buckets[..]), WHEEL_BUCKETS * 4);
            assert_eq!(std::mem::size_of_val(&q.far[..]), FAR_BUCKETS * 4);
            assert_eq!(std::mem::size_of_val(&q.occupied), WHEEL_BUCKETS / 8);
            assert_eq!(std::mem::size_of_val(&q.far_occupied), FAR_BUCKETS / 8);
            assert_eq!(q.nodes.capacity(), 0);
        }

        /// The regression the slab replaced: per-bucket buffers kept every
        /// burst's capacity for the rest of the run. Bursts that visit
        /// 10,000 different ticks leave the slab exactly as large as the
        /// most events ever pending at once.
        #[test]
        fn slab_is_bounded_by_peak_pending() {
            let mut q = EventQueue::new();
            let mut peak = 0;
            for tick in 1..=10_000u64 {
                // A straggler a few epochs out, pending to the end, keeps
                // the far wheel in play.
                if tick % 1_000 == 0 {
                    q.push(SimTime::from_micros((tick + 20_000) << TICK_SHIFT), 0);
                }
                for i in 0..64 {
                    q.push(SimTime::from_micros((tick << TICK_SHIFT) + i % 7), i);
                }
                peak = peak.max(q.len());
                for _ in 0..64 {
                    q.pop().expect("the burst is pending");
                }
            }
            assert_eq!(peak, 64 + 10);
            assert_eq!(q.nodes.len(), peak);
            while q.pop().is_some() {}
            // Every slot is vacant and on the free list, each exactly once.
            assert_eq!(chain(&q.nodes, q.free).count(), q.nodes.len());
            assert!(q.nodes.iter().all(|n| n.event.is_none()));
        }
    }
}
