//! The network parameters of a run, shared by both platforms.

use crate::{LatencyModel, SimDuration, SimRng};

/// Link capacities and propagation delays: what the [`LatencyModel`], the
/// per-peer [`UploadScheduler`](crate::UploadScheduler) and the origin's
/// [`ServerQueue`](crate::ServerQueue) are built from, in the simulator and
/// in the TCP testbed alike.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkOptions {
    /// Server upload capacity in bits/second.
    ///
    /// Table I's value is garbled in the available text ("5 mbps"); at
    /// 10,000 nodes the aggregate playback demand is ~3.2 Gbps, so the
    /// server is provisioned at 1 Gbps — enough to keep a pure
    /// client-server system alive but visibly overloaded, which is the
    /// regime the paper evaluates.
    pub server_bandwidth_bps: u64,
    /// Per-peer upload capacity in bits/second (≈ 3× the 320 kbps bitrate,
    /// the "typical" broadband of Section IV-B).
    pub peer_upload_bps: u64,
    /// Minimum one-way propagation delay.
    pub latency_min: SimDuration,
    /// Maximum one-way propagation delay.
    pub latency_max: SimDuration,
}

impl Default for NetworkOptions {
    fn default() -> Self {
        Self {
            server_bandwidth_bps: 1_000_000_000,
            peer_upload_bps: 1_000_000,
            latency_min: SimDuration::from_millis(20),
            latency_max: SimDuration::from_millis(200),
        }
    }
}

impl NetworkOptions {
    /// What keeps these options from describing a network, if anything: a
    /// link without capacity or an inverted latency range.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.peer_upload_bps == 0 || self.server_bandwidth_bps == 0 {
            Err("link capacities must be positive")
        } else if self.latency_min > self.latency_max {
            Err("latency_min must not exceed latency_max")
        } else {
            Ok(())
        }
    }

    /// The pairwise delays of a run rooted at `root`. The model hashes
    /// `(root, pair)`, so both platforms see the same delay on every link.
    ///
    /// # Panics
    ///
    /// Panics if `latency_min > latency_max`.
    pub fn latency_model(&self, root: &SimRng) -> LatencyModel {
        LatencyModel::new(root, self.latency_min, self.latency_max)
    }
}
