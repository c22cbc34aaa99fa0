//! The simulation driver loop.

use crate::{EventQueue, SimDuration, SimTime};

/// Owns the virtual clock and the event queue and drives a simulation to
/// completion.
///
/// The engine is deliberately minimal: protocol crates pull events with
/// [`next_event`] (advancing the clock), react, and [`schedule`] follow-ups.
/// Pull-style dispatch keeps the borrow checker out of the way — the caller
/// owns both the engine and the world state.
///
/// [`next_event`]: Engine::next_event
/// [`schedule`]: Engine::schedule_in
///
/// # Examples
///
/// A tiny ping/pong between two "nodes":
///
/// ```
/// use socialtube_sim::{Engine, SimDuration};
///
/// #[derive(Debug)]
/// enum Ev { Ping(u32), Pong }
///
/// let mut engine = Engine::new();
/// engine.schedule_in(SimDuration::from_millis(10), Ev::Ping(1));
/// let mut pongs = 0;
/// while let Some((_, ev)) = engine.next_event() {
///     match ev {
///         Ev::Ping(_) => engine.schedule_in(SimDuration::from_millis(10), Ev::Pong),
///         Ev::Pong => pongs += 1,
///     }
/// }
/// assert_eq!(pongs, 1);
/// assert_eq!(engine.now().as_millis(), 20);
/// ```
#[derive(Debug)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    /// Deliver at most this many events (`None` = unlimited).
    event_budget: Option<u64>,
    /// True once [`next_event`](Engine::next_event) refused to deliver
    /// because the budget was spent.
    budget_exhausted: bool,
    /// Largest queue depth ever reached (event-queue pressure metric).
    peak_pending: usize,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            event_budget: None,
            budget_exhausted: false,
            peak_pending: 0,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Returns how many events have been delivered so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Returns the number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Returns the largest queue depth the engine ever held — the
    /// event-queue pressure number instrumentation folds into its
    /// queue-depth histogram at drain.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Returns true when no events remain to deliver — the run completed on
    /// its own rather than being cut short by a budget.
    pub fn is_drained(&self) -> bool {
        self.pending() == 0
    }

    /// Caps the total number of events this engine will deliver — the
    /// runaway-simulation safety valve. `0` removes the cap.
    ///
    /// Once `max_events` events have been delivered, [`next_event`]
    /// returns `None` even if events remain queued, and
    /// [`budget_exhausted`] reports true.
    ///
    /// [`next_event`]: Engine::next_event
    /// [`budget_exhausted`]: Engine::budget_exhausted
    pub fn set_event_budget(&mut self, max_events: u64) {
        self.event_budget = (max_events > 0).then_some(max_events);
    }

    /// True if the run stopped because the event budget was spent while
    /// events were still pending.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Events scheduled before the current time are delivered "now": the
    /// clock never runs backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.queue.push(at, event);
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Delivers the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty (the run is complete).
    pub fn next_event(&mut self) -> Option<(SimTime, E)> {
        if let Some(budget) = self.event_budget {
            if self.processed >= budget {
                self.budget_exhausted = !self.is_drained();
                return None;
            }
        }
        let (time, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue yielded a past event");
        self.now = time;
        self.processed += 1;
        Some((time, event))
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(SimTime::from_micros(100), 1);
        e.schedule_at(SimTime::from_micros(50), 0);
        let (t0, _) = e.next_event().unwrap();
        let (t1, _) = e.next_event().unwrap();
        assert!(t0 < t1);
        assert_eq!(e.now(), t1);
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(SimTime::from_micros(100), 1);
        e.next_event();
        e.schedule_at(SimTime::from_micros(10), 2);
        let (t, ev) = e.next_event().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
        assert_eq!(ev, 2);
    }

    #[test]
    fn is_drained_tracks_queue_state() {
        let mut e: Engine<u8> = Engine::new();
        assert!(e.is_drained());
        e.schedule_at(SimTime::from_micros(1), 1);
        assert!(!e.is_drained());
        e.next_event();
        assert!(e.is_drained());
        assert!(!e.budget_exhausted());
    }

    #[test]
    fn event_budget_stops_delivery() {
        let mut e: Engine<u8> = Engine::new();
        e.set_event_budget(2);
        for i in 0..5 {
            e.schedule_at(SimTime::from_micros(i), i as u8);
        }
        let mut seen = Vec::new();
        while let Some((_, ev)) = e.next_event() {
            seen.push(ev);
        }
        assert_eq!(seen, vec![0, 1]);
        assert!(e.budget_exhausted(), "events were still pending");
        assert!(!e.is_drained());
        assert_eq!(e.processed(), 2);
    }

    #[test]
    fn budget_not_exhausted_when_run_drains_first() {
        let mut e: Engine<u8> = Engine::new();
        e.set_event_budget(10);
        e.schedule_at(SimTime::from_micros(1), 1);
        while e.next_event().is_some() {}
        assert!(e.is_drained());
        assert!(!e.budget_exhausted());
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let mut e: Engine<u8> = Engine::new();
        e.set_event_budget(1);
        e.set_event_budget(0);
        for i in 0..4 {
            e.schedule_at(SimTime::from_micros(i), i as u8);
        }
        let mut n = 0;
        while e.next_event().is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
        assert!(!e.budget_exhausted());
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        let mut e: Engine<u8> = Engine::new();
        assert_eq!(e.peak_pending(), 0);
        for i in 0..3 {
            e.schedule_at(SimTime::from_micros(i), i as u8);
        }
        assert_eq!(e.peak_pending(), 3);
        while e.next_event().is_some() {}
        // Draining does not lower the high-water mark.
        assert_eq!(e.peak_pending(), 3);
    }
}
