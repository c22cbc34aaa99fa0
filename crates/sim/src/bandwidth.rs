//! Fluid bandwidth models for the server and peer upload links.

use crate::{SimDuration, SimTime};

/// A FIFO fluid link: transfers are served back-to-back at a fixed capacity.
///
/// A transfer of `bits` requested at time `t` starts when the link frees up
/// and takes `bits / capacity` seconds. This is the classic fluid
/// approximation used by VoD simulators: it captures queueing under overload
/// (the effect behind PA-VoD's long startup delays in Fig 17) without
/// per-packet detail.
#[derive(Debug, Clone)]
struct FifoLink {
    capacity_bps: u64,
    busy_until: SimTime,
}

impl FifoLink {
    fn new(capacity_bps: u64) -> Self {
        assert!(capacity_bps > 0, "link capacity must be positive");
        Self {
            capacity_bps,
            busy_until: SimTime::ZERO,
        }
    }

    /// Enqueues a transfer of `bits` at time `now`; returns its completion
    /// time and the queueing delay it waited behind earlier ones.
    fn transfer(&mut self, now: SimTime, bits: u64) -> (SimTime, SimDuration) {
        let start = now.max(self.busy_until);
        let service = SimDuration::from_secs_f64(bits as f64 / self.capacity_bps as f64);
        let done = start + service;
        self.busy_until = done;
        (done, start.duration_since(now))
    }

    /// Queueing delay a transfer arriving at `now` would experience.
    fn backlog(&self, now: SimTime) -> SimDuration {
        if self.busy_until > now {
            self.busy_until.duration_since(now)
        } else {
            SimDuration::ZERO
        }
    }
}

/// The origin server's bounded upload pipe (Table I: 50 Mbps).
///
/// Every video chunk the P2P overlay fails to locate is served from here;
/// when the request rate exceeds capacity the FIFO backlog grows and startup
/// delays balloon — exactly the scalability problem motivating SocialTube
/// (observation O1). The server alone counts the bits it serves (the run's
/// server bandwidth cost); a recorded run samples its
/// [`backlog`](ServerQueue::backlog) once per simulated minute.
///
/// # Examples
///
/// ```
/// use socialtube_sim::{ServerQueue, SimTime};
///
/// let mut server = ServerQueue::new(1_000_000); // 1 Mbps
/// let done = server.serve(SimTime::ZERO, 500_000); // 0.5 Mbit
/// assert_eq!(done.as_millis(), 500);
/// ```
#[derive(Debug, Clone)]
pub struct ServerQueue {
    link: FifoLink,
    bits_served: u64,
}

impl ServerQueue {
    /// Creates a server with `capacity_bps` bits/second of upload bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` is zero.
    pub fn new(capacity_bps: u64) -> Self {
        Self {
            link: FifoLink::new(capacity_bps),
            bits_served: 0,
        }
    }

    /// Serves `bits` starting no earlier than `now`; returns when the
    /// transfer completes (including any queueing behind earlier requests).
    pub fn serve(&mut self, now: SimTime, bits: u64) -> SimTime {
        self.serve_timed(now, bits).0
    }

    /// Like [`serve`](ServerQueue::serve), also returning the queueing
    /// delay this transfer waited behind earlier ones (the per-chunk
    /// bandwidth-queue wait instrumentation observes).
    pub fn serve_timed(&mut self, now: SimTime, bits: u64) -> (SimTime, SimDuration) {
        self.bits_served += bits;
        self.link.transfer(now, bits)
    }

    /// Current backlog a new request arriving at `now` would wait behind.
    pub fn backlog(&self, now: SimTime) -> SimDuration {
        self.link.backlog(now)
    }

    /// Total bits served so far (server bandwidth cost).
    pub fn bits_served(&self) -> u64 {
        self.bits_served
    }
}

/// Per-peer upload links.
///
/// Each peer uploads at `peer_capacity_bps` (default 1 Mbps — "most Internet
/// users have typical download bandwidths of at least twice [the 320 kbps]
/// bitrate", Section IV-B; upload is the binding constraint). Peers serve
/// chunk requests FIFO like the server, so a popular provider also queues.
#[derive(Debug, Clone)]
pub struct UploadScheduler {
    links: Vec<FifoLink>,
}

impl UploadScheduler {
    /// Creates upload links for `nodes` peers, each with `capacity_bps`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bps` is zero.
    pub fn new(nodes: usize, capacity_bps: u64) -> Self {
        Self {
            links: vec![FifoLink::new(capacity_bps); nodes],
        }
    }

    /// Enqueues an upload of `bits` from `node` at `now`; returns its
    /// completion time and the queueing delay it waited on `node`'s link.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn upload_timed(&mut self, node: usize, now: SimTime, bits: u64) -> (SimTime, SimDuration) {
        self.links[node].transfer(now, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_bits_over_capacity() {
        let mut s = ServerQueue::new(2_000_000);
        let done = s.serve(SimTime::ZERO, 1_000_000);
        assert_eq!(done.as_millis(), 500);
        assert_eq!(s.bits_served(), 1_000_000);
    }

    #[test]
    fn overlapping_requests_queue_fifo() {
        let mut s = ServerQueue::new(1_000_000);
        let d1 = s.serve(SimTime::ZERO, 1_000_000); // finishes at 1s
        let (d2, waited) = s.serve_timed(SimTime::ZERO, 1_000_000); // queues, finishes at 2s
        assert_eq!(d1.as_millis(), 1_000);
        assert_eq!(d2.as_millis(), 2_000);
        assert_eq!(waited, SimDuration::from_secs(1));
        // Both paths count toward the server's bandwidth cost.
        assert_eq!(s.bits_served(), 2_000_000);
    }

    #[test]
    fn idle_link_has_no_backlog() {
        let mut s = ServerQueue::new(1_000_000);
        assert_eq!(s.backlog(SimTime::ZERO), SimDuration::ZERO);
        s.serve(SimTime::ZERO, 2_000_000);
        assert_eq!(s.backlog(SimTime::ZERO), SimDuration::from_secs(2));
        assert_eq!(
            s.backlog(SimTime::from_micros(3_000_000)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn link_drains_between_requests() {
        let mut s = ServerQueue::new(1_000_000);
        s.serve(SimTime::ZERO, 1_000_000);
        // Next request arrives after the first completed: no queueing.
        let (done, waited) = s.serve_timed(SimTime::from_micros(5_000_000), 1_000_000);
        assert_eq!(done.as_micros(), 6_000_000);
        assert_eq!(waited, SimDuration::ZERO);
    }

    #[test]
    fn uploads_are_per_node() {
        let mut u = UploadScheduler::new(2, 1_000_000);
        let a = u.upload_timed(0, SimTime::ZERO, 1_000_000);
        let b = u.upload_timed(1, SimTime::ZERO, 1_000_000);
        // Independent links: both finish at 1s without queueing.
        assert_eq!(a, b);
        assert_eq!(a, (SimTime::from_micros(1_000_000), SimDuration::ZERO));
    }

    /// A peer uplink is its capacity and busy-until instant, nothing more:
    /// the scheduler holds one per node.
    #[test]
    fn peer_uplink_is_two_words() {
        assert_eq!(std::mem::size_of::<FifoLink>(), 16);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ServerQueue::new(0);
    }
}
