//! A delay queue: deliver items at (or after) a chosen instant.
//!
//! One background thread serves arbitrarily many scheduled items. The
//! testbed uses delay queues for three things: protocol timers, artificial
//! propagation latency, and bandwidth pacing of chunk sends.

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Pending items by due time then insertion order, plus the sequence
/// counter and the shutdown flag, under one lock.
struct State<T> {
    pending: BTreeMap<(Instant, u64), T>,
    next_seq: u64,
    shutdown: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
}

impl<T> Shared<T> {
    /// Locks the state. Poisoning is ignored: every critical section is one
    /// insert, one removal or one flag store, so a thread that panicked
    /// while holding the lock left the state valid.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Handle to a delay-queue thread; scheduled items are forwarded to the
/// output channel when due.
///
/// Dropping the queue (or calling [`shutdown`](DelayQueue::shutdown)) stops
/// the thread; items not yet due are discarded.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use std::sync::mpsc;
/// use socialtube_net::delay::DelayQueue;
///
/// let (tx, rx) = mpsc::channel();
/// let queue = DelayQueue::spawn(tx);
/// queue.schedule(Instant::now() + Duration::from_millis(5), "hello");
/// assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "hello");
/// queue.shutdown();
/// ```
pub struct DelayQueue<T: Send + 'static> {
    shared: Arc<Shared<T>>,
    handle: Option<JoinHandle<()>>,
}

impl<T: Send + 'static> std::fmt::Debug for DelayQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayQueue")
            .field("pending", &self.pending())
            .finish()
    }
}

impl<T: Send + 'static> DelayQueue<T> {
    /// Spawns the delay thread, forwarding due items to `out`.
    pub fn spawn(out: Sender<T>) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: BTreeMap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("delay-queue".into())
            .spawn(move || loop {
                let mut guard = worker.lock();
                // Every wake-up (notified, timed out or spurious) re-checks
                // the flag and the earliest pending item.
                loop {
                    if guard.shutdown {
                        return; // shutdown requested
                    }
                    let now = Instant::now();
                    let head = guard.pending.first_key_value().map(|(&(due, _), _)| due);
                    guard = match head {
                        Some(due) if due <= now => break,
                        Some(due) => worker
                            .wake
                            .wait_timeout(guard, due - now)
                            .map_or_else(|e| e.into_inner().0, |(guard, _)| guard),
                        None => worker
                            .wake
                            .wait(guard)
                            .unwrap_or_else(PoisonError::into_inner),
                    };
                }
                let (_, item) = guard.pending.pop_first().expect("peeked entry exists");
                drop(guard);
                if out.send(item).is_err() {
                    return; // receiver gone
                }
            })
            .expect("spawn delay-queue thread");
        Self {
            shared,
            handle: Some(handle),
        }
    }

    /// Schedules `item` for delivery at `due` (immediately if in the past).
    pub fn schedule(&self, due: Instant, item: T) {
        let mut guard = self.shared.lock();
        let seq = guard.next_seq;
        guard.next_seq += 1;
        guard.pending.insert((due, seq), item);
        drop(guard);
        self.shared.wake.notify_one();
    }

    /// Number of items not yet delivered.
    pub fn pending(&self) -> usize {
        self.shared.lock().pending.len()
    }

    /// Stops the thread; pending items are discarded.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> Drop for DelayQueue<T> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn delivers_in_due_order() {
        let (tx, rx) = mpsc::channel();
        let q = DelayQueue::spawn(tx);
        let now = Instant::now();
        q.schedule(now + Duration::from_millis(30), 3);
        q.schedule(now + Duration::from_millis(10), 1);
        q.schedule(now + Duration::from_millis(20), 2);
        let got: Vec<i32> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(2)).unwrap())
            .collect();
        assert_eq!(got, vec![1, 2, 3]);
        q.shutdown();
    }

    #[test]
    fn past_deadlines_deliver_immediately() {
        let (tx, rx) = mpsc::channel();
        let q = DelayQueue::spawn(tx);
        q.schedule(Instant::now() - Duration::from_secs(1), "late");
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)).unwrap(), "late");
        q.shutdown();
    }

    #[test]
    fn respects_delays_approximately() {
        let (tx, rx) = mpsc::channel();
        let q = DelayQueue::spawn(tx);
        let start = Instant::now();
        q.schedule(start + Duration::from_millis(50), ());
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(45));
        q.shutdown();
    }

    #[test]
    fn shutdown_discards_pending() {
        let (tx, rx) = mpsc::channel::<u8>();
        let q = DelayQueue::spawn(tx);
        q.schedule(Instant::now() + Duration::from_secs(60), 1);
        assert_eq!(q.pending(), 1);
        q.shutdown();
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn drop_stops_thread() {
        let (tx, _rx) = mpsc::channel::<u8>();
        let q = DelayQueue::spawn(tx);
        q.schedule(Instant::now() + Duration::from_secs(60), 1);
        drop(q); // must not hang
    }

    #[test]
    fn many_items_all_arrive() {
        let (tx, rx) = mpsc::channel();
        let q = DelayQueue::spawn(tx);
        let now = Instant::now();
        for i in 0..500 {
            q.schedule(now + Duration::from_micros(i * 10), i);
        }
        let mut got: Vec<u64> = (0..500)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..500).collect::<Vec<u64>>());
        q.shutdown();
    }
}
