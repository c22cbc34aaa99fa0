//! Conservative sharded execution of a single run.
//!
//! A serial simulation is one [`Engine`] popping a single `(time, seq)`
//! total order. The sharded executor partitions the world across shards,
//! each owning its own calendar [`EventQueue`], and advances them in
//! *conservative epochs*: windows of virtual time short enough that no
//! message created inside the window by one shard can arrive inside the
//! same window at another. That holds whenever every cross-shard delay has
//! a known positive lower bound (the substrate's minimum pairwise latency)
//! and the epoch length does not exceed it — the classical conservative
//! lookahead argument, with the calendar queue's 1024 µs bucket as the
//! alignment unit ([`EPOCH_ALIGN_US`]).
//!
//! Determinism is exact, not statistical: the executor reconstructs the
//! serial run's `(time, seq)` total order bit for bit.
//!
//! * Events that existed before an epoch carry their **canonical** sequence
//!   numbers (assigned by the coordinator's single counter).
//! * Events a shard schedules *inside* the epoch for arrival *inside* the
//!   epoch (always same-shard, by the lookahead bound) are inserted locally
//!   under **provisional** keys counting up from [`CASCADE_SEQ_BASE`] — a
//!   range above every canonical number, so they pop after all same-time
//!   canonical events, exactly where the serial run would put them.
//! * Every scheduling call a shard makes is logged ([`EpochLog`]). At the
//!   barrier, [`MergeState::replay`] merges the shards' logs back into the
//!   canonical order, assigns each surviving call its canonical sequence
//!   number from the single counter, resolves provisional keys, and hands
//!   cross-epoch deliveries back for insertion into their owning shards.
//!
//! The replay never re-executes handlers — phase 1 already ran them — it
//! only re-establishes order, which is what a coordinator needs to fold
//! order-sensitive side effects (metrics, samplers) identically to the
//! serial run.

use crate::{Engine, EventQueue, SimDuration, SimTime};

/// First provisional sequence key. Canonical numbers live below (a serial
/// run would need ~292 years at 10⁹ events/s to reach `2^63`), provisional
/// keys at or above, so within one shard's queue every same-time canonical
/// event pops before every same-time intra-epoch cascade — matching the
/// serial order, where a cascade's sequence number always exceeds those of
/// the events that predate it.
pub const CASCADE_SEQ_BASE: u64 = 1 << 63;

/// Epoch alignment unit in microseconds: the calendar queue's bucket
/// width. Epoch boundaries are multiples of this so an epoch drains whole
/// buckets.
pub const EPOCH_ALIGN_US: u64 = 1 << crate::queue::TICK_SHIFT;

/// The largest bucket-aligned epoch length not exceeding `lookahead` (the
/// minimum cross-shard delay), or `None` when the lookahead is below one
/// bucket — too short for conservative sharding.
pub fn epoch_length(lookahead: SimDuration) -> Option<SimDuration> {
    let ticks = lookahead.as_micros() / EPOCH_ALIGN_US;
    (ticks > 0).then(|| SimDuration::from_micros(ticks * EPOCH_ALIGN_US))
}

/// The scheduling face an event handler sees, implemented by both the
/// serial [`Engine`] and the sharded [`ShardEngine`]. Drivers written
/// against this trait run unchanged under either executor.
pub trait EventScheduler {
    /// The event payload this scheduler carries.
    type Event;

    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Schedules `event` at absolute time `at` (clamped to `now`: the
    /// clock never runs backwards).
    fn schedule_at(&mut self, at: SimTime, event: Self::Event);

    /// Schedules `event` after `delay` from the current time.
    fn schedule_in(&mut self, delay: SimDuration, event: Self::Event) {
        self.schedule_at(self.now() + delay, event);
    }
}

impl<E> EventScheduler for Engine<E> {
    type Event = E;

    fn now(&self) -> SimTime {
        Engine::now(self)
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        Engine::schedule_at(self, at, event);
    }

    fn schedule_in(&mut self, delay: SimDuration, event: E) {
        Engine::schedule_in(self, delay, event);
    }
}

/// One logged scheduling call, in phase-1 execution order.
#[derive(Debug)]
enum ShardCall<E> {
    /// The call landed in this shard's own queue inside the epoch under a
    /// provisional key; the payload stays in the queue, only the fact of
    /// the call (which consumes a canonical sequence number at replay) is
    /// logged.
    Local,
    /// The call's arrival is at or past the epoch end: the payload is held
    /// back for the coordinator to deliver under its canonical number.
    Deferred {
        /// Arrival time (already clamped to the scheduling instant).
        at: SimTime,
        /// The scheduled event.
        event: E,
    },
}

/// One processed event in a shard's epoch log.
#[derive(Clone, Copy, Debug)]
struct EpochEntry {
    /// Delivery time.
    time: SimTime,
    /// Queue key: the canonical sequence number for pre-epoch events, or a
    /// provisional `CASCADE_SEQ_BASE + n` key for intra-epoch cascades.
    key: u64,
    /// End of this entry's range in the log's flat `calls` vector (the
    /// range starts at the previous entry's end).
    calls_end: u32,
}

/// Everything one shard did during one epoch: the events it processed (in
/// its local pop order) and every scheduling call their handlers made.
#[derive(Debug)]
pub struct EpochLog<E> {
    entries: Vec<EpochEntry>,
    calls: Vec<ShardCall<E>>,
}

impl<E> EpochLog<E> {
    /// Number of events the shard processed this epoch.
    pub fn processed(&self) -> usize {
        self.entries.len()
    }
}

/// A cross-epoch event the coordinator routed out of [`MergeState::replay`],
/// already stamped with its canonical sequence number. The caller decides
/// which shard owns it and hands it to [`ShardEngine::deliver`].
#[derive(Debug)]
pub struct Delivery<E> {
    /// Arrival time.
    pub at: SimTime,
    /// Canonical sequence number.
    pub seq: u64,
    /// The shard whose handler scheduled this event — the "from" half of
    /// a cross-shard message edge (the caller's routing decision is the
    /// "to" half). Profiling-only: delivery order ignores it.
    pub from: usize,
    /// The event itself.
    pub event: E,
}

/// What one epoch's replay produced.
#[derive(Debug)]
pub struct EpochReplay<E> {
    /// Events replayed (== total processed across shards this epoch).
    pub replayed: u64,
    /// Time of the last event in canonical order, if any were replayed.
    pub last_time: Option<SimTime>,
    /// Cross-epoch deliveries in canonical creation order, for routing to
    /// their owning shards. Insertion order does not affect delivery
    /// order — the queues pop by `(time, seq)` alone.
    pub deliveries: Vec<Delivery<E>>,
}

/// One shard's half of the executor: a calendar queue popped in epoch
/// windows, with every scheduling call logged for the barrier merge.
///
/// Call discipline per epoch: [`begin_epoch`](Self::begin_epoch), then
/// [`pop_epoch_event`](Self::pop_epoch_event) until it returns `None`
/// (running the handler — which schedules through the [`EventScheduler`]
/// impl — between calls), then [`take_epoch_log`](Self::take_epoch_log).
/// Between epochs the coordinator inserts cross-epoch traffic with
/// [`deliver`](Self::deliver).
#[derive(Debug)]
pub struct ShardEngine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    epoch_end: SimTime,
    /// Provisional keys handed out this epoch (reset at `begin_epoch`;
    /// sound because every provisional-key event arrives — and is popped —
    /// before the epoch ends).
    cascades: u64,
    /// The entry currently being handled: `(time, key)` of the last pop,
    /// closed into `entries` on the next pop or at `take_epoch_log`.
    open: Option<(SimTime, u64)>,
    entries: Vec<EpochEntry>,
    calls: Vec<ShardCall<E>>,
    processed: u64,
    peak_pending: usize,
}

impl<E> ShardEngine<E> {
    /// Creates a shard engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            epoch_end: SimTime::ZERO,
            cascades: 0,
            open: None,
            entries: Vec::new(),
            calls: Vec::new(),
            processed: 0,
            peak_pending: 0,
        }
    }

    /// The current simulated time (the last popped event's timestamp).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events this shard has processed across all epochs.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Pending events in this shard's queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Largest queue depth this shard ever held.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Timestamp of this shard's earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Inserts a pre-stamped event — initial seeds and the coordinator's
    /// cross-epoch [`Delivery`]s. Must carry a canonical (sub-
    /// [`CASCADE_SEQ_BASE`]) sequence number.
    pub fn deliver(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < CASCADE_SEQ_BASE, "delivery with a provisional key");
        self.queue.push_with_seq(at, seq, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Opens the epoch ending (exclusively) at `end`.
    pub fn begin_epoch(&mut self, end: SimTime) {
        debug_assert!(self.open.is_none() && self.entries.is_empty() && self.calls.is_empty());
        self.epoch_end = end;
        self.cascades = 0;
    }

    /// Pops the next event inside the current epoch, advancing the clock,
    /// or returns `None` when the epoch's window is drained. The caller
    /// runs the handler between calls; its scheduling lands on this
    /// shard's [`EventScheduler`] impl and is logged.
    pub fn pop_epoch_event(&mut self) -> Option<(SimTime, E)> {
        self.close_open();
        match self.queue.peek_time() {
            Some(t) if t < self.epoch_end => {
                let (time, key, event) = self.queue.pop_with_seq().expect("peeked event vanished");
                debug_assert!(time >= self.now, "shard queue yielded a past event");
                self.now = time;
                self.processed += 1;
                self.open = Some((time, key));
                Some((time, event))
            }
            _ => None,
        }
    }

    /// Closes the epoch, returning its log and leaving the engine ready
    /// for [`begin_epoch`](Self::begin_epoch).
    pub fn take_epoch_log(&mut self) -> EpochLog<E> {
        self.close_open();
        EpochLog {
            entries: std::mem::take(&mut self.entries),
            calls: std::mem::take(&mut self.calls),
        }
    }

    fn close_open(&mut self) {
        if let Some((time, key)) = self.open.take() {
            self.entries.push(EpochEntry {
                time,
                key,
                calls_end: u32::try_from(self.calls.len()).expect("calls fit in u32"),
            });
        }
    }
}

impl<E> Default for ShardEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventScheduler for ShardEngine<E> {
    type Event = E;

    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            self.open.is_some(),
            "scheduling outside an epoch entry — use deliver() between epochs"
        );
        let at = at.max(self.now);
        if at < self.epoch_end {
            // Intra-epoch arrival: by the lookahead bound this is always a
            // same-shard event. Insert it locally under a provisional key
            // so the epoch keeps draining through the cascade.
            let key = CASCADE_SEQ_BASE + self.cascades;
            self.cascades += 1;
            self.queue.push_with_seq(at, key, event);
            self.peak_pending = self.peak_pending.max(self.queue.len());
            self.calls.push(ShardCall::Local);
        } else {
            self.calls.push(ShardCall::Deferred { at, event });
        }
    }
}

/// The coordinator's merge: re-establishes the canonical `(time, seq)`
/// order across shard logs at each epoch barrier and owns the single
/// canonical sequence counter.
#[derive(Debug)]
pub struct MergeState {
    next_seq: u64,
    /// Per shard: canonical numbers assigned to this epoch's `Local` calls
    /// in creation order — the resolution table for provisional keys.
    resolved: Vec<Vec<u64>>,
}

impl MergeState {
    /// A merge state for `shards` shards whose canonical counter starts at
    /// `first_seq` (the number of pre-seeded events, which occupy
    /// `0..first_seq`).
    pub fn new(shards: usize, first_seq: u64) -> Self {
        Self {
            next_seq: first_seq,
            resolved: (0..shards).map(|_| Vec::new()).collect(),
        }
    }

    /// The next canonical sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Merges one epoch's shard logs back into the canonical serial order.
    ///
    /// `on_entry(shard, time)` fires once per processed event, in exactly
    /// the order the serial run would have processed them; a shard's own
    /// entries are visited in its log order, so per-shard side-effect
    /// queues (metrics notes) can be drained with simple cursors. Every
    /// logged call is assigned its canonical sequence number here;
    /// cross-epoch calls come back as [`Delivery`]s for routing.
    ///
    /// # Panics
    ///
    /// Panics if `logs` does not carry exactly one log per shard.
    pub fn replay<E>(
        &mut self,
        logs: Vec<EpochLog<E>>,
        mut on_entry: impl FnMut(usize, SimTime),
    ) -> EpochReplay<E> {
        assert_eq!(logs.len(), self.resolved.len(), "one log per shard");
        for r in &mut self.resolved {
            r.clear();
        }
        let shards = logs.len();
        let mut entries: Vec<Vec<EpochEntry>> = Vec::with_capacity(shards);
        let mut calls: Vec<std::vec::IntoIter<ShardCall<E>>> = Vec::with_capacity(shards);
        for log in logs {
            entries.push(log.entries);
            calls.push(log.calls.into_iter());
        }
        let mut cursor = vec![0usize; shards];
        let mut calls_taken = vec![0u32; shards];
        let mut deliveries = Vec::new();
        let mut replayed = 0u64;
        let mut last_time = None;

        loop {
            // The head entry with the smallest (time, canonical key). A
            // provisional head key always resolves: its creating entry sits
            // earlier in the same shard's log, hence already replayed.
            let mut best: Option<(SimTime, u64, usize)> = None;
            for s in 0..shards {
                let Some(e) = entries[s].get(cursor[s]) else {
                    continue;
                };
                let key = if e.key < CASCADE_SEQ_BASE {
                    e.key
                } else {
                    self.resolved[s][(e.key - CASCADE_SEQ_BASE) as usize]
                };
                if best.is_none_or(|(bt, bk, _)| (e.time, key) < (bt, bk)) {
                    best = Some((e.time, key, s));
                }
            }
            let Some((time, _, s)) = best else {
                break;
            };
            let entry = entries[s][cursor[s]];
            cursor[s] += 1;
            on_entry(s, time);
            replayed += 1;
            last_time = Some(time);
            let n_calls = (entry.calls_end - calls_taken[s]) as usize;
            calls_taken[s] = entry.calls_end;
            for call in calls[s].by_ref().take(n_calls) {
                let seq = self.next_seq;
                self.next_seq += 1;
                match call {
                    ShardCall::Local => self.resolved[s].push(seq),
                    ShardCall::Deferred { at, event } => {
                        deliveries.push(Delivery {
                            at,
                            seq,
                            from: s,
                            event,
                        });
                    }
                }
            }
        }

        EpochReplay {
            replayed,
            last_time,
            deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_length_is_bucket_aligned() {
        assert_eq!(epoch_length(SimDuration::from_micros(1023)), None);
        assert_eq!(
            epoch_length(SimDuration::from_micros(1024)),
            Some(SimDuration::from_micros(1024))
        );
        assert_eq!(
            epoch_length(SimDuration::from_millis(20)),
            Some(SimDuration::from_micros(19 * 1024))
        );
    }

    /// The toy world both executors run: `nodes` counters passing events
    /// around. An event `(node, hops)` with `hops > 0` fans out
    /// deterministically (derived from a hash of its identity): always one
    /// cross-node send paying at least the lookahead, sometimes a same-node
    /// cascade with a short delay — the shape of the real driver, where
    /// sub-lookahead scheduling is always same-node.
    mod toy {
        use super::*;

        pub const LOOKAHEAD_US: u64 = 4 * EPOCH_ALIGN_US;

        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct Toy {
            pub node: u32,
            pub hops: u32,
            pub tag: u64,
        }

        fn mix(x: u64) -> u64 {
            let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// The handler: shared verbatim by the serial oracle and the
        /// sharded run. Logs its execution, then schedules follow-ups
        /// through whichever scheduler it was handed.
        pub fn handle<S: EventScheduler<Event = Toy>>(
            nodes: u32,
            sched: &mut S,
            now: SimTime,
            ev: Toy,
            log: &mut Vec<(SimTime, Toy)>,
        ) {
            log.push((now, ev));
            if ev.hops == 0 {
                return;
            }
            let h = mix(ev.tag ^ (u64::from(ev.node) << 32 | u64::from(ev.hops)));
            // Cross-node send: pays at least the lookahead, sometimes far
            // enough to leave the near wheel for the far one.
            let extra = if h.is_multiple_of(5) {
                6_000_000
            } else {
                h % 3_000
            };
            let to = (ev.node + 1 + (h as u32 % (nodes - 1).max(1))) % nodes;
            sched.schedule_at(
                now + SimDuration::from_micros(LOOKAHEAD_US + extra),
                Toy {
                    node: to,
                    hops: ev.hops - 1,
                    tag: mix(h),
                },
            );
            // Same-node cascade with a sub-lookahead delay (often zero:
            // a same-time tie the seq order must break exactly).
            if h.is_multiple_of(2) {
                sched.schedule_at(
                    now + SimDuration::from_micros(h % (LOOKAHEAD_US / 2)),
                    Toy {
                        node: ev.node,
                        hops: ev.hops - 1,
                        tag: mix(h ^ 0xFFFF),
                    },
                );
            }
        }

        /// Serial oracle: one engine, plain `(time, seq)` order.
        pub fn run_serial(nodes: u32, seeds: &[Toy]) -> Vec<(SimTime, Toy)> {
            let mut engine: Engine<Toy> = Engine::new();
            for (i, &s) in seeds.iter().enumerate() {
                engine.schedule_at(SimTime::from_micros(i as u64 % 7), s);
            }
            let mut log = Vec::new();
            while let Some((now, ev)) = engine.next_event() {
                handle(nodes, &mut engine, now, ev, &mut log);
            }
            log
        }

        /// Sharded run: nodes dealt round-robin across `shards`, epochs of
        /// the full lookahead, canonical log rebuilt from per-shard note
        /// queues at each barrier — the driver's structure in miniature.
        pub fn run_sharded(nodes: u32, seeds: &[Toy], shards: usize) -> Vec<(SimTime, Toy)> {
            let shard_of = |node: u32| (node as usize) % shards;
            let epoch_us = epoch_length(SimDuration::from_micros(LOOKAHEAD_US))
                .expect("lookahead covers a bucket")
                .as_micros();
            let mut engines: Vec<ShardEngine<Toy>> =
                (0..shards).map(|_| ShardEngine::new()).collect();
            for (i, &s) in seeds.iter().enumerate() {
                engines[shard_of(s.node)].deliver(SimTime::from_micros(i as u64 % 7), i as u64, s);
            }
            let mut merge = MergeState::new(shards, seeds.len() as u64);
            // Per-shard phase-1 note queues, drained by replay cursors.
            let mut notes: Vec<Vec<(SimTime, Toy)>> = vec![Vec::new(); shards];
            let mut note_cursor = vec![0usize; shards];
            let mut log = Vec::new();

            while let Some(next) = engines.iter().filter_map(|e| e.peek_time()).min() {
                let end = SimTime::from_micros((next.as_micros() / epoch_us + 1) * epoch_us);
                // Phase 1: every shard drains its window independently.
                for (s, engine) in engines.iter_mut().enumerate() {
                    engine.begin_epoch(end);
                    while let Some((now, ev)) = engine.pop_epoch_event() {
                        let notes = &mut notes[s];
                        handle(nodes, engine, now, ev, notes);
                    }
                }
                // Barrier: canonical replay + cross-epoch routing.
                let logs: Vec<EpochLog<Toy>> =
                    engines.iter_mut().map(|e| e.take_epoch_log()).collect();
                let replay = merge.replay(logs, |s, time| {
                    let (t, ev) = notes[s][note_cursor[s]];
                    note_cursor[s] += 1;
                    assert_eq!(t, time, "note stream out of step with replay");
                    log.push((t, ev));
                });
                for d in replay.deliveries {
                    engines[shard_of(d.event.node)].deliver(d.at, d.seq, d.event);
                }
            }
            for s in 0..shards {
                assert_eq!(note_cursor[s], notes[s].len(), "unreplayed notes");
            }
            log
        }

        pub fn seeds(nodes: u32, count: usize, salt: u64) -> Vec<Toy> {
            (0..count)
                .map(|i| Toy {
                    node: (mix(salt ^ i as u64) % u64::from(nodes)) as u32,
                    hops: 3 + (mix(salt ^ (i as u64) << 7) % 4) as u32,
                    tag: mix(salt.wrapping_add(i as u64)),
                })
                .collect()
        }
    }

    #[test]
    fn sharded_toy_run_matches_serial_exactly() {
        let nodes = 13;
        let seeds = toy::seeds(nodes, 9, 42);
        let serial = toy::run_serial(nodes, &seeds);
        assert!(serial.len() > seeds.len(), "toy run actually fans out");
        for shards in [1, 2, 3, 5] {
            let sharded = toy::run_sharded(nodes, &seeds, shards);
            assert_eq!(serial, sharded, "diverged at {shards} shards");
        }
    }

    #[test]
    fn single_shard_epoch_loop_is_the_serial_order() {
        // Degenerate case worth pinning alone: one shard means no merge
        // ambiguity, but the epoch/cascade machinery still runs.
        let nodes = 4;
        let seeds = toy::seeds(nodes, 5, 7);
        assert_eq!(
            toy::run_serial(nodes, &seeds),
            toy::run_sharded(nodes, &seeds, 1)
        );
    }

    mod properties {
        use super::toy;
        use proptest::prelude::*;

        proptest! {
            /// The epoch-barrier merge preserves the exact serial
            /// `(time, seq)` processing order for arbitrary workloads and
            /// shard counts — the sharded-executor extension of the
            /// queue's heap-oracle differential test.
            #[test]
            fn epoch_merge_matches_serial_oracle(
                salt in any::<u64>(),
                nodes in 2u32..24,
                seed_count in 1usize..12,
                shards in 1usize..5,
            ) {
                let seeds = toy::seeds(nodes, seed_count, salt);
                let serial = toy::run_serial(nodes, &seeds);
                let sharded = toy::run_sharded(nodes, &seeds, shards);
                prop_assert_eq!(serial, sharded);
            }
        }
    }
}
