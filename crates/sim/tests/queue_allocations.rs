//! A warmed [`EventQueue`] push/pop cycle makes no allocator calls: every
//! level of the wheel links slots of one slab, and a push takes the slot
//! the last pop vacated. Its own test binary, because the counting
//! allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use socialtube_sim::{EventQueue, SimTime};

thread_local! {
    /// Allocator calls made by this thread; the test harness's other
    /// threads allocate on their own schedule.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

struct Counting;

impl Counting {
    fn count() {
        // Const-initialised and without a destructor, so reading it never
        // allocates; `try_with` because a thread may free during teardown.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method hands its arguments unchanged to `System`, whose
// contract is the one the caller was held to; counting touches no memory
// the allocator manages.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MINUTE: u64 = 60_000_000;

/// The driver's event size; `[0]` is the event's delay in µs, `[1]` flips
/// on every delivery.
type Ev = [u64; 7];

/// Pops the earliest event and schedules it again, so the number pending
/// never changes. Every other delivery is re-armed at its own instant —
/// into the working set of the tick being drained — and the rest after the
/// event's own delay.
fn step(q: &mut EventQueue<Ev>) -> SimTime {
    let (at, mut ev) = q.pop().expect("the held set never drains");
    ev[1] ^= 1;
    let delay = if ev[1] == 0 { 0 } else { ev[0] };
    q.push(SimTime::from_micros(at.as_micros() + delay), ev);
    at
}

#[test]
fn warmed_push_pop_cycle_never_calls_the_allocator() {
    let before = calls();
    drop(std::hint::black_box(vec![0u8; 64]));
    assert_eq!(calls() - before, 2, "the counter sees this thread's calls");

    let mut q = EventQueue::new();
    let hold = |i: u64, delay: u64| (SimTime::from_micros(i), [delay, 0, 0, 0, 0, 0, 0]);
    // A 70-event burst that shares one instant for ever (the chunk
    // deliveries of one upload slot), timers inside the epoch, events
    // 1–10 epochs out in the far wheel, and sessions past its 71 min
    // horizon.
    q.extend((0..70).map(|_| hold(0, 20_000_003)));
    q.extend((0..16).map(|i| hold(i, 500_000 + i * 250_007)));
    q.extend((0..128).map(|i| hold(i, 4_200_000 + i * 300_011)));
    q.extend((0..64).map(|i| hold(i, 72 * MINUTE + i * 7_000_003)));
    let pending = q.len();

    // Warm-up: until every level has cycled twice.
    while step(&mut q).as_micros() < 170 * MINUTE {}
    let before = calls();
    let mut steps = 0u64;
    while step(&mut q).as_micros() < 340 * MINUTE {
        steps += 1;
    }
    assert_eq!(
        calls() - before,
        0,
        "allocator calls in {steps} warmed steps"
    );
    assert!(steps > 100_000, "only {steps} steps measured");
    assert_eq!(q.len(), pending);
    let levels = q.occupancy();
    assert!(levels.wheel_events > 0 && levels.overflow_events > 0);
}
