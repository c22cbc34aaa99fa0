//! Layer probes: each times calls into one layer's public functions, from
//! outside, on the workload's own trace and population. Peers are visited
//! in seeded-random order so the working set is the run's, not one hot
//! cache line. Probes run only in the traced run; every probe is one span.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use socialtube::{
    ChunkSource, Command, LinkKind, Message, Outbox, PeerAddr, QueryScope, Report, RequestId,
    ServerOutbox, TimerKind, TransferKind, VodPeer, VodServer,
};
use socialtube_experiments::harness::{ProtocolStack, StackBuilder};
use socialtube_experiments::recording::record_report;
use socialtube_experiments::{ExperimentOptions, MetricsCollector, Protocol, RecorderConfig};
use socialtube_model::{ChannelId, NodeId, VideoId};
use socialtube_obs::{current_rss_bytes, Counter, HistKind, Recorder, RunRecorder};
use socialtube_sim::{
    EventQueue, LatencyModel, ServerQueue, SimDuration, SimRng, SimTime, UploadScheduler,
};
use socialtube_trace::SharedTrace;

use crate::common::Rng;
use crate::spans::Spans;

/// The driver derives its root stream from the run seed this way; probes
/// build their stacks and latency models from the same stream.
fn root_rng(seed: u64) -> SimRng {
    SimRng::seed(seed ^ 0x50c1_a17b)
}

fn node(index: usize) -> NodeId {
    NodeId::new(index as u32)
}

/// Times `iters` calls of `op` and returns nanoseconds per call.
fn ns_per_call(iters: usize, mut op: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// A built, logged-in population with neighbor tables and warm caches.
pub struct Population {
    peers: Vec<Box<dyn VodPeer + Send>>,
    server: Box<dyn VodServer + Send>,
    /// Each peer's first subscribed channel.
    channel: Vec<Option<ChannelId>>,
    /// The three most popular videos of that channel (of channel 0 for a
    /// peer without subscriptions): what the peer caches and is asked for.
    popular: Vec<Vec<VideoId>>,
    videos: usize,
    out: Outbox,
    server_out: ServerOutbox,
}

/// What building one population cost.
pub struct BuildCost {
    pub build_s: f64,
    pub bytes_per_peer: f64,
}

impl Population {
    /// Builds `protocol`'s stack over the trace (the timed, spanned part),
    /// then brings it to a mid-run state: everyone logged in and known to
    /// the server, five random neighbors each, and the three most popular
    /// videos of each peer's first channel fully cached.
    pub fn build(
        protocol: Protocol,
        shared: &SharedTrace,
        options: &ExperimentOptions,
        seed: u64,
        spans: &mut Spans,
    ) -> (Self, BuildCost) {
        let users = shared.graph.user_count();
        let builder = StackBuilder::from_options(protocol, Arc::clone(shared.catalog()), options);
        let rss_before = current_rss_bytes();
        let span = spans.enter("stack.build");
        let start = Instant::now();
        let ProtocolStack { peers, server } = builder.build(shared, &root_rng(seed));
        let build_s = start.elapsed().as_secs_f64();
        spans.exit(span);

        let span = spans.enter("probe.warm_population");
        let catalog = shared.catalog();
        let channel: Vec<Option<ChannelId>> = (0..users)
            .map(|u| {
                let user = shared.graph.user(node(u)).ok()?;
                user.subscriptions().first().copied()
            })
            .collect();
        let popular = channel
            .iter()
            .map(|c| catalog.top_videos(c.unwrap_or(ChannelId::new(0)), 3))
            .collect();
        let mut pop = Population {
            peers,
            server,
            channel,
            popular,
            videos: catalog.video_count().max(1),
            out: Outbox::new(),
            server_out: ServerOutbox::new(),
        };
        let mut rng = Rng::new(seed ^ 0x9a17);
        let now = SimTime::ZERO;
        for u in 0..users {
            pop.peers[u].on_login(now, &mut pop.out);
            for command in pop.out.drain() {
                if let Command::ToServer { msg } = command {
                    pop.server
                        .on_message(now, node(u), msg, &mut pop.server_out);
                }
            }
            pop.server_out.drain();
        }
        for u in 0..users {
            for _ in 0..5 {
                let from = rng.below(users);
                if from == u {
                    continue;
                }
                let request = Message::ConnectRequest {
                    kind: LinkKind::Inner,
                    channel: pop.channel[u],
                    video: pop.popular[u].first().copied(),
                };
                pop.peers[u].on_message(now, PeerAddr::Peer(node(from)), request, &mut pop.out);
            }
            for (i, &video) in pop.popular[u].iter().enumerate() {
                let Ok(v) = catalog.video(video) else {
                    continue;
                };
                let id = RequestId::new(node(u), i as u32);
                for chunk in 0..v.chunk_count() {
                    let data = Message::ChunkData {
                        id,
                        video,
                        chunk,
                        bits: v.chunk_size_bits(),
                        kind: TransferKind::Playback,
                    };
                    pop.peers[u].on_message(now, PeerAddr::Server, data, &mut pop.out);
                }
            }
            pop.out.drain();
        }
        spans.exit(span);
        // Peers are built empty and grow as they run, so the memory that
        // matters is that of the warmed population.
        let cost = BuildCost {
            build_s,
            bytes_per_peer: current_rss_bytes().saturating_sub(rss_before) as f64
                / users.max(1) as f64,
        };
        (pop, cost)
    }

    fn users(&self) -> usize {
        self.peers.len()
    }

    /// The message a run delivers most: alternately a flooded `Query` and a
    /// `ChunkRequest`, for a video the target's community cares about
    /// (half the time one it has cached), from a random other peer.
    fn message_for(
        &self,
        target: usize,
        i: usize,
        rng: &mut Rng,
        scope_per_video: bool,
    ) -> (PeerAddr, Message) {
        let users = self.users();
        let from = node((target + 1 + rng.below(users.max(2) - 1)) % users);
        let popular = &self.popular[target];
        let video = if i % 4 < 2 && !popular.is_empty() {
            popular[rng.below(popular.len())]
        } else {
            VideoId::new(rng.below(self.videos) as u32)
        };
        let id = RequestId::new(from, i as u32);
        let msg = if i.is_multiple_of(2) {
            let scope = match (scope_per_video, self.channel[target]) {
                (false, Some(channel)) => QueryScope::Channel(channel),
                _ => QueryScope::PerVideo,
            };
            Message::Query {
                id,
                video,
                ttl: 2,
                origin: from,
                scope,
            }
        } else {
            Message::ChunkRequest {
                id,
                video,
                from_chunk: 0,
                kind: TransferKind::Playback,
            }
        };
        (PeerAddr::Peer(from), msg)
    }

    /// `on_message` over the whole population in random order (cold), or
    /// into one peer (hot). The stream is built before the clock starts.
    pub fn on_message_ns(
        &mut self,
        iters: usize,
        seed: u64,
        hot: bool,
        scope_per_video: bool,
    ) -> f64 {
        let mut rng = Rng::new(seed ^ 0x0e55);
        let users = self.users();
        let hot_target = rng.below(users);
        let inputs: Vec<(usize, PeerAddr, Message)> = (0..iters)
            .map(|i| {
                let target = if hot { hot_target } else { rng.below(users) };
                let (from, msg) = self.message_for(target, i, &mut rng, scope_per_video);
                (target, from, msg)
            })
            .collect();
        let now = SimTime::from_micros(1_000_000);
        let start = Instant::now();
        for (target, from, msg) in inputs {
            self.peers[target].on_message(now, from, msg, &mut self.out);
            black_box(self.out.drain().count());
        }
        start.elapsed().as_nanos() as f64 / iters.max(1) as f64
    }

    /// `ProbeTick` over the population in random order.
    pub fn on_timer_ns(&mut self, iters: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed ^ 0x71e5);
        let users = self.users();
        let targets: Vec<usize> = (0..iters).map(|_| rng.below(users)).collect();
        let now = SimTime::from_micros(2_000_000);
        ns_per_call(iters, |i| {
            self.peers[targets[i]].on_timer(now, TimerKind::ProbeTick, &mut self.out);
            black_box(self.out.drain().count());
        })
    }

    /// `watch` once per peer, in random order, of a random catalog video.
    pub fn watch_ns(&mut self, seed: u64) -> f64 {
        let mut rng = Rng::new(seed ^ 0x3a7c);
        let users = self.users();
        let order = rng.permutation(users);
        let picks: Vec<VideoId> = (0..users)
            .map(|_| VideoId::new(rng.below(self.videos) as u32))
            .collect();
        let now = SimTime::from_micros(3_000_000);
        ns_per_call(users, |i| {
            self.peers[order[i]].watch(now, picks[i], &mut self.out);
            black_box(self.out.drain().count());
        })
    }

    /// `JoinRequest`/`VideoRequest` stream from random peers into the server.
    pub fn server_on_message_ns(&mut self, iters: usize, seed: u64) -> f64 {
        let mut rng = Rng::new(seed ^ 0x5e7e);
        let users = self.users();
        let inputs: Vec<(NodeId, VideoId)> = (0..iters)
            .map(|_| {
                let from = node(rng.below(users));
                (from, VideoId::new(rng.below(self.videos) as u32))
            })
            .collect();
        let now = SimTime::from_micros(4_000_000);
        ns_per_call(iters, |i| {
            let (from, video) = inputs[i];
            let msg = if i.is_multiple_of(2) {
                Message::JoinRequest { video }
            } else {
                Message::VideoRequest {
                    id: RequestId::new(from, i as u32),
                    video,
                    from_chunk: 0,
                    kind: TransferKind::Playback,
                }
            };
            self.server.on_message(now, from, msg, &mut self.server_out);
            black_box(self.server_out.drain().count());
        })
    }
}

/// What the queue probe measured.
pub struct QueueProbe {
    pub push_pop_ns: f64,
    pub overflow_share: f64,
}

/// `EventQueue` pop + push held at `occupancy` pending events with the
/// run's delay mix: a share `long_share` of the pushes (the traced rep's
/// timers and session events over its events) waits 1 s to 5 min, which
/// lands past the wheel's ~4.2 s window and so exercises the overflow heap;
/// the rest are message latencies of 20-200 ms. The payload is 56 bytes,
/// the size the driver's event type is pinned to.
pub fn queue(occupancy: usize, iters: usize, seed: u64, long_share: f64) -> QueueProbe {
    let mut rng = Rng::new(seed ^ 0x90e0e);
    let long_per_million = (long_share.clamp(0.0, 1.0) * 1e6) as usize;
    let mut delay = move || {
        if rng.below(1_000_000) < long_per_million {
            1_000_000 + rng.below(299_000_000) as u64
        } else {
            20_000 + rng.below(180_000) as u64
        }
    };
    let mut q: EventQueue<[u64; 7]> = EventQueue::new();
    for i in 0..occupancy.max(1) {
        q.push(SimTime::from_micros(delay()), [i as u64; 7]);
    }
    let delays: Vec<u64> = (0..iters).map(|_| delay()).collect();
    let push_pop_ns = ns_per_call(iters, |i| {
        let (now, payload) = q.pop().expect("occupancy is held constant");
        q.push(now + SimDuration::from_micros(delays[i]), payload);
    });
    let occupancy = q.occupancy();
    QueueProbe {
        push_pop_ns,
        overflow_share: occupancy.overflow_events as f64 / q.len().max(1) as f64,
    }
}

/// `LatencyModel::delay` over random pairs of the population.
pub fn latency_delay_ns(options: &ExperimentOptions, users: usize, iters: usize, seed: u64) -> f64 {
    let model = LatencyModel::new(
        &root_rng(seed),
        options.network.latency_min,
        options.network.latency_max,
    );
    let mut rng = Rng::new(seed ^ 0x1a7e);
    let pairs: Vec<(u32, u32)> = (0..iters)
        .map(|_| (rng.below(users) as u32, rng.below(users) as u32))
        .collect();
    ns_per_call(iters, |i| {
        black_box(model.delay(pairs[i].0, pairs[i].1));
    })
}

/// `UploadScheduler::upload_timed` (per call, random peer) and
/// `ServerQueue::serve_timed`, with virtual time advancing 10 µs per call
/// as in a busy run.
pub fn bandwidth_ns(
    options: &ExperimentOptions,
    users: usize,
    iters: usize,
    seed: u64,
) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0xba2d);
    let nodes: Vec<usize> = (0..iters).map(|_| rng.below(users)).collect();
    let mut uploads = UploadScheduler::new(users, options.network.peer_upload_bps);
    let upload_ns = ns_per_call(iters, |i| {
        let now = SimTime::from_micros(10 * i as u64);
        black_box(uploads.upload_timed(nodes[i], now, 57_600));
    });
    let mut server = ServerQueue::new(options.network.server_bandwidth_bps);
    let serve_ns = ns_per_call(iters, |i| {
        let now = SimTime::from_micros(10 * i as u64);
        black_box(server.serve_timed(now, 57_600));
    });
    (upload_ns, serve_ns)
}

/// `MetricsCollector::on_report` over a stream of nine chunk arrivals to
/// one playback start (virtual time advancing 1 ms per report, so the
/// per-minute timeline grows as in a run), then one `summary()`.
pub fn metrics(users: usize, iters: usize, seed: u64) -> (f64, f64) {
    let mut rng = Rng::new(seed ^ 0x3e71);
    let reports: Vec<Report> = (0..iters)
        .map(|i| {
            let node = node(rng.below(users));
            let video = VideoId::new(rng.below(1_000) as u32);
            if i % 10 == 9 {
                Report::PlaybackStarted {
                    node,
                    video,
                    requested_at: SimTime::from_micros(1_000 * i as u64 / 2),
                    source: ChunkSource::Peer,
                }
            } else {
                Report::ChunkReceived {
                    node,
                    video,
                    bits: 57_600,
                    source: if i % 3 == 0 {
                        ChunkSource::Server
                    } else {
                        ChunkSource::Peer
                    },
                    kind: TransferKind::Playback,
                }
            }
        })
        .collect();
    let mut collector = MetricsCollector::new(users);
    let on_report_ns = ns_per_call(iters, |i| {
        collector.on_report(SimTime::from_micros(1_000 * i as u64), reports[i]);
    });
    for watched in 1..=10 {
        collector.sample_links(watched, 5 + watched as usize);
    }
    let start = Instant::now();
    black_box(collector.summary());
    (on_report_ns, start.elapsed().as_secs_f64())
}

/// One `count` + `observe` + `record_report` into a full `RunRecorder`: the
/// three hooks the driver calls per event with recording on.
pub fn recorder_hook_ns(iters: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed ^ 0x0b5);
    let reports: Vec<Report> = (0..iters)
        .map(|_| Report::PlaybackStarted {
            node: node(rng.below(1_000)),
            video: VideoId::new(rng.below(1_000) as u32),
            requested_at: SimTime::ZERO,
            source: ChunkSource::Peer,
        })
        .collect();
    let mut rec = RunRecorder::new(RecorderConfig::full());
    let ns = ns_per_call(iters, |i| {
        rec.count(Counter::EvPeerMsg);
        rec.observe(HistKind::QueueDepth, i as u64);
        record_report(&mut rec, SimTime::from_micros(i as u64), &reports[i]);
    });
    black_box(rec.finish());
    ns
}
