//! The session model: what every node does next, on both platforms.
//!
//! Section V runs one viewing workload under PeerSim and on PlanetLab: each
//! node logs in for a fixed number of sessions of ten videos, stays off for
//! a Poisson-distributed time between sessions (following the user-arrival
//! analysis of Chatzopoulou et al.), and picks each next video 75% from the
//! same channel, 15% from the same category and 10% from a different one.
//! [`WorkloadConfig`] states its parameters and [`SessionDirector`] replays
//! it; the simulator's event loop and the TCP testbed's wall-clock loop
//! only decide *when* its transitions fire.
//!
//! A workload can instead be a script: [`WorkloadConfig::script`] lists
//! explicit [`ScriptStep`]s at fixed times, which the same two loops fire
//! in place of the session model.

use rand_distr::{Distribution, Poisson};
use socialtube_model::{ChannelId, NodeId, VideoId};
use socialtube_sim::{SimDuration, SimRng};
use socialtube_trace::Trace;

use rand::Rng;

/// Chance that the next video stays in the current channel (Section V).
const SAME_CHANNEL: f64 = 0.75;
/// Chance that it moves to another channel of the current category; the
/// remaining 10% jump to a different category.
const SAME_CATEGORY: f64 = 0.15;

/// Session structure parameters (Section V).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Sessions per node (simulation: 25; PlanetLab: 50).
    pub sessions_per_node: u32,
    /// Videos watched per session (paper: 10).
    pub videos_per_session: u32,
    /// Mean of the Poisson-distributed off period between sessions. The
    /// draw counts whole seconds and its mean is clamped to at least 1 s,
    /// so any mean below 1 s runs as 1 s, and no off period is shorter
    /// than 1 s.
    pub mean_off: SimDuration,
    /// Think time between login (or a finished video) and the next request.
    pub browse_delay: SimDuration,
    /// Stagger window for initial logins (avoids a thundering herd at t=0).
    pub login_stagger: SimDuration,
    /// Probability that a session ends with an *abrupt failure* (browser
    /// crash, network drop) instead of a graceful logoff: the node vanishes
    /// without notifying neighbors or the server, leaving the overlay to
    /// discover the failure through probing (Section IV-A structure
    /// maintenance).
    pub abrupt_departure_prob: f64,
    /// A scripted workload: these actions at these times, in place of the
    /// session model, whose parameters above it then ignores. A scripted
    /// login starts no browsing, a scripted watch gets no follow-up, and a
    /// scripted logout is graceful and brings no re-login. The simulator
    /// runs a script to drain, so it should log out every node it logs in:
    /// an online peer's probe timers re-arm forever. Empty (the default)
    /// runs the sessions.
    pub script: Vec<ScriptStep>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            sessions_per_node: 25,
            videos_per_session: 10,
            mean_off: SimDuration::from_secs(500),
            browse_delay: SimDuration::from_secs(2),
            login_stagger: SimDuration::from_secs(500),
            abrupt_departure_prob: 0.0,
            script: Vec::new(),
        }
    }
}

/// One user action in a scripted workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScriptAction {
    /// The node starts a session.
    Login(NodeId),
    /// The node selects a video to watch.
    Watch(NodeId, VideoId),
    /// The node ends its session gracefully.
    Logout(NodeId),
}

/// A scripted action with its firing time: an offset from run start, which
/// the testbed maps 1:1 onto wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScriptStep {
    /// When the action fires, relative to run start.
    pub at: SimDuration,
    /// The action.
    pub action: ScriptAction,
}

/// One node's session state and its own random streams.
///
/// All of a node's randomness lives here, so a node's draws depend only on
/// its own event history — never on how its events interleave with other
/// nodes'. That independence is what lets a sharded run partition nodes
/// across directors and still replay the identical sequences.
#[derive(Debug)]
struct NodeSession {
    /// Off-period draws (the `"churn"` stream).
    churn: SimRng,
    /// Video picks (the `"workload"` stream).
    picks: SimRng,
    /// Abrupt-exit draws (the `"failures"` stream).
    failures: SimRng,
    /// Off periods still to draw: one fewer than the sessions, since the
    /// first session starts at the stagger offset.
    offs_left: u32,
    videos_left_in_session: u32,
    videos_watched_total: u32,
    current_video: Option<VideoId>,
    awaiting_playback: bool,
    /// The next session end is an abrupt failure, not a graceful logoff.
    abrupt_next: bool,
}

impl NodeSession {
    /// Draws the off period before the next session, or `None` once the
    /// node's sessions are spent: `Poisson(max(mean_off, 1 s))` whole
    /// seconds, never below 1 s.
    fn next_off_period(&mut self, mean_off: SimDuration) -> Option<SimDuration> {
        self.offs_left = self.offs_left.checked_sub(1)?;
        let poisson = Poisson::new(mean_off.as_secs_f64().max(1.0)).expect("mean is at least 1 s");
        let draw = poisson.sample(&mut self.churn).max(1.0);
        Some(SimDuration::from_secs_f64(draw))
    }

    /// Picks the video after `current_video`: the first of a session comes
    /// from a subscribed channel, every later one follows the 75/15/10 mix.
    fn pick_video(&mut self, trace: &Trace, node: NodeId) -> Option<VideoId> {
        let Some(prev) = self.current_video else {
            return self.first_video(trace, node);
        };
        let prev_channel = trace.catalog.video(prev).ok()?.channel();
        let roll: f64 = self.picks.gen();
        if roll < SAME_CHANNEL {
            self.video_in_channel(trace, prev_channel)
        } else if roll < SAME_CHANNEL + SAME_CATEGORY {
            let category = trace
                .catalog
                .channel(prev_channel)
                .ok()?
                .primary_category()?;
            let channels = trace.catalog.channels_in_category(category);
            let channel = *self.picks.pick(channels)?;
            self.video_in_channel(trace, channel)
        } else {
            // Different category: uniform over channels not in the previous
            // category (falls back to any channel in degenerate catalogs).
            let prev_cat = trace.catalog.channel(prev_channel).ok()?.primary_category();
            for _ in 0..16 {
                let channel = self.random_channel(trace)?;
                if trace.catalog.channel(channel).ok()?.primary_category() != prev_cat {
                    return self.video_in_channel(trace, channel);
                }
            }
            let ch = self.random_channel(trace)?;
            self.video_in_channel(trace, ch)
        }
    }

    /// A popular video from one of the node's subscribed channels
    /// (subscribers watch their channels' videos — the trace-analysis
    /// observation O2), falling back to a random channel for nodes without
    /// subscriptions.
    fn first_video(&mut self, trace: &Trace, node: NodeId) -> Option<VideoId> {
        let subs = trace
            .graph
            .user(node)
            .map(|u| u.subscriptions().to_vec())
            .unwrap_or_default();
        let channel = if subs.is_empty() {
            self.random_channel(trace)?
        } else {
            subs[self.picks.gen_range(0..subs.len())]
        };
        self.video_in_channel(trace, channel)
    }

    /// A video inside `channel`, weighted by view count (popular videos are
    /// watched more — the within-channel Zipf of Fig 9).
    fn video_in_channel(&mut self, trace: &Trace, channel: ChannelId) -> Option<VideoId> {
        let videos = trace.catalog.channel(channel).ok()?.videos().to_vec();
        if videos.is_empty() {
            return None;
        }
        let weights: Vec<f64> = videos
            .iter()
            .map(|v| {
                trace
                    .catalog
                    .video(*v)
                    .map(|x| x.views() as f64 + 1.0)
                    .unwrap_or(1.0)
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut draw = self.picks.gen::<f64>() * total;
        for (v, w) in videos.iter().zip(&weights) {
            draw -= w;
            if draw <= 0.0 {
                return Some(*v);
            }
        }
        videos.last().copied()
    }

    fn random_channel(&mut self, trace: &Trace) -> Option<ChannelId> {
        let n = trace.catalog.channel_count();
        if n == 0 {
            return None;
        }
        Some(ChannelId::new(self.picks.gen_range(0..n as u32)))
    }
}

/// What a node should do after a watch concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStep {
    /// Browse for the next video after this think time.
    Continue(SimDuration),
    /// The session's video budget is spent: log out now.
    EndSession,
}

/// The workload state machine both platforms replay: login stagger,
/// off periods between sessions, abrupt-departure draws and video
/// selection.
///
/// The platform only decides when transitions fire (virtual vs wall-clock
/// time) and performs the side effects (calling into peers, scheduling).
/// All workload randomness is derived from the driver's root RNG under the
/// stable stream labels `"stagger"` and *per-node indexed* `"workload"`,
/// `"failures"` and `"churn"`; those labels and the order of draws within
/// each stream are the reproducibility contract.
///
/// Call discipline (per node): [`login_offset`](Self::login_offset) once at
/// start-up, then for each session [`on_login`](Self::on_login) →
/// ([`next_video`](Self::next_video) →
/// [`on_playback_started`](Self::on_playback_started) →
/// [`on_watch_end`](Self::on_watch_end))* → [`on_logout`](Self::on_logout).
#[derive(Debug)]
pub struct SessionDirector {
    workload: WorkloadConfig,
    stagger: Vec<SimDuration>,
    /// One slot per node; `None` when the node's session state has been
    /// moved into another director by [`partition`](Self::partition).
    nodes: Vec<Option<NodeSession>>,
}

impl SessionDirector {
    /// Creates the director for `users` nodes, deriving all workload
    /// randomness from `root`.
    ///
    /// Draw order is part of the reproducibility contract: one stagger
    /// offset per node, in node order, from the `"stagger"` stream. All
    /// other streams are per-node indexed, so their draws depend only on
    /// each node's own history.
    pub fn new(users: usize, workload: WorkloadConfig, root: &SimRng) -> Self {
        let mut stagger_rng = root.stream("stagger");
        let mut nodes = Vec::with_capacity(users);
        let mut stagger = Vec::with_capacity(users);
        for u in 0..users as u64 {
            nodes.push(Some(NodeSession {
                churn: root.stream_indexed("churn", u),
                picks: root.stream_indexed("workload", u),
                failures: root.stream_indexed("failures", u),
                offs_left: workload.sessions_per_node.saturating_sub(1),
                videos_left_in_session: 0,
                videos_watched_total: 0,
                current_video: None,
                awaiting_playback: false,
                abrupt_next: false,
            }));
            stagger.push(SimDuration::from_micros(
                stagger_rng.gen_range(0..=workload.login_stagger.as_micros().max(1)),
            ));
        }
        Self {
            workload,
            stagger,
            nodes,
        }
    }

    /// Number of nodes under direction.
    pub fn users(&self) -> usize {
        self.nodes.len()
    }

    /// Consumes the director and deals its node sessions out to `shards`
    /// new directors according to `shard_of` (one owning shard index per
    /// node). Every returned director keeps full-length tables so node ids
    /// index directly; only the owned slots are populated.
    pub fn partition(self, shard_of: &[usize], shards: usize) -> Vec<SessionDirector> {
        assert_eq!(shard_of.len(), self.nodes.len(), "one shard per node");
        let mut parts: Vec<SessionDirector> = (0..shards)
            .map(|_| SessionDirector {
                workload: self.workload.clone(),
                stagger: self.stagger.clone(),
                nodes: (0..self.nodes.len()).map(|_| None).collect(),
            })
            .collect();
        for (u, session) in self.nodes.into_iter().enumerate() {
            parts[shard_of[u]].nodes[u] = session;
        }
        parts
    }

    fn node(&self, node: NodeId) -> &NodeSession {
        self.nodes[node.index()]
            .as_ref()
            .expect("node owned by another shard's director")
    }

    fn node_mut(&mut self, node: NodeId) -> &mut NodeSession {
        self.nodes[node.index()]
            .as_mut()
            .expect("node owned by another shard's director")
    }

    /// The workload parameters this director replays.
    pub fn workload(&self) -> &WorkloadConfig {
        &self.workload
    }

    /// The staggered first-login offset for `node`.
    pub fn login_offset(&self, node: NodeId) -> SimDuration {
        self.stagger[node.index()]
    }

    /// A session begins: resets the video budget and decides, up front and
    /// deterministically, whether this session will end in an abrupt
    /// failure.
    pub fn on_login(&mut self, node: NodeId) {
        let videos = self.workload.videos_per_session;
        let abrupt_prob = self.workload.abrupt_departure_prob;
        let state = self.node_mut(node);
        state.videos_left_in_session = videos;
        state.abrupt_next = state.failures.chance(abrupt_prob);
    }

    /// Whether the session that is now ending exits abruptly (no goodbyes
    /// leave the machine — the platform must drop the logout outbox).
    pub fn is_abrupt_exit(&self, node: NodeId) -> bool {
        self.node(node).abrupt_next
    }

    /// A session ends. Returns the off period until the next login, or
    /// `None` when the node's session budget is spent.
    pub fn on_logout(&mut self, node: NodeId) -> Option<SimDuration> {
        let mean_off = self.workload.mean_off;
        self.node_mut(node).next_off_period(mean_off)
    }

    /// Picks `node`'s next video (75/15/10 selection mix over the trace)
    /// and marks the node as awaiting its playback.
    pub fn next_video(&mut self, trace: &Trace, node: NodeId) -> Option<VideoId> {
        let state = self.node_mut(node);
        let video = state.pick_video(trace, node)?;
        state.current_video = Some(video);
        state.awaiting_playback = true;
        Some(video)
    }

    /// Playback of `video` began at `node`. Returns the node's total
    /// watched count (the Fig 18 x-axis) if this playback advances the
    /// session, or `None` for stale starts (e.g. a background fetch
    /// completing after the user moved on).
    pub fn on_playback_started(&mut self, node: NodeId, video: VideoId) -> Option<u32> {
        let state = self.node_mut(node);
        if !state.awaiting_playback || state.current_video != Some(video) {
            return None;
        }
        state.awaiting_playback = false;
        state.videos_left_in_session = state.videos_left_in_session.saturating_sub(1);
        state.videos_watched_total += 1;
        Some(state.videos_watched_total)
    }

    /// The current watch concluded (the video played to its end): continue
    /// browsing or end the session.
    pub fn on_watch_end(&self, node: NodeId) -> SessionStep {
        if self.node(node).videos_left_in_session > 0 {
            SessionStep::Continue(self.workload.browse_delay)
        } else {
            SessionStep::EndSession
        }
    }

    /// A watch never produced a playback (dead provider, lost message):
    /// gives up on it and reports what to do next. Returns `None` if the
    /// node was not awaiting a playback (the safety net raced a real
    /// start). Used by the real-time testbed's watch timeout.
    pub fn abandon_watch(&mut self, node: NodeId) -> Option<SessionStep> {
        let state = self.node_mut(node);
        if !state.awaiting_playback {
            return None;
        }
        state.awaiting_playback = false;
        state.videos_left_in_session = state.videos_left_in_session.saturating_sub(1);
        Some(self.on_watch_end(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socialtube_trace::{generate, TraceConfig};

    fn trace() -> Trace {
        generate(&TraceConfig::tiny(), 31)
    }

    fn director(users: usize, workload: WorkloadConfig) -> SessionDirector {
        SessionDirector::new(users, workload, &crate::configs::root_rng(42))
    }

    /// A fresh node session whose video picks come from `SimRng::seed(seed)`.
    fn viewer(seed: u64) -> NodeSession {
        let mut d = director(1, WorkloadConfig::default());
        let mut session = d.nodes[0].take().expect("owned");
        session.picks = SimRng::seed(seed);
        session
    }

    /// Every off period node 0 draws under `workload`, in order.
    fn off_periods(workload: WorkloadConfig, seed: u64) -> Vec<SimDuration> {
        let mut d = SessionDirector::new(1, workload, &SimRng::seed(seed));
        std::iter::from_fn(|| d.on_logout(NodeId::new(0))).collect()
    }

    fn with_sessions(sessions: u32, mean_off: SimDuration) -> WorkloadConfig {
        WorkloadConfig {
            sessions_per_node: sessions,
            mean_off,
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn paper_mix_sums_to_one() {
        let other = 1.0 - SAME_CHANNEL - SAME_CATEGORY;
        assert!((SAME_CHANNEL - 0.75).abs() < 1e-12);
        assert!((SAME_CATEGORY - 0.15).abs() < 1e-12);
        assert!((other - 0.10).abs() < 1e-12);
    }

    #[test]
    fn first_video_comes_from_subscriptions() {
        let t = trace();
        let mut session = viewer(1);
        for node_idx in 0..20u32 {
            let node = NodeId::new(node_idx);
            let video = session.first_video(&t, node).expect("video picked");
            let channel = t.catalog.video(video).unwrap().channel();
            let user = t.graph.user(node).unwrap();
            if !user.subscriptions().is_empty() {
                assert!(
                    user.is_subscribed(channel),
                    "first video must come from a subscribed channel"
                );
            }
        }
    }

    #[test]
    fn selection_mix_is_roughly_75_15_10() {
        let t = trace();
        let mut session = viewer(2);
        let node = NodeId::new(0);
        session.current_video = session.pick_video(&t, node);
        let mut same_channel = 0;
        let mut same_category = 0;
        let n = 3000;
        for _ in 0..n {
            let prev = session.current_video.unwrap();
            let next = session.pick_video(&t, node).expect("video picked");
            let (pc, nc) = (
                t.catalog.video(prev).unwrap().channel(),
                t.catalog.video(next).unwrap().channel(),
            );
            if pc == nc {
                same_channel += 1;
            } else {
                let pcat = t.catalog.channel(pc).unwrap().primary_category();
                let ncat = t.catalog.channel(nc).unwrap().primary_category();
                if pcat == ncat {
                    same_category += 1;
                }
            }
            session.current_video = Some(next);
        }
        let frac_channel = same_channel as f64 / n as f64;
        // Same-channel picks: 75% by mix, plus same-category picks that land
        // on the same channel by chance.
        assert!(
            (0.70..0.85).contains(&frac_channel),
            "channel frac {frac_channel}"
        );
        assert!(same_category > 0);
        // 10% by mix, plus same-category picks of a channel whose primary
        // category differs (these 3,000 draws give 0.123).
        let frac_other = (n - same_channel - same_category) as f64 / n as f64;
        assert!(
            (0.10..0.15).contains(&frac_other),
            "other-category frac {frac_other}"
        );
    }

    #[test]
    fn videos_are_popularity_weighted() {
        let t = trace();
        let mut session = viewer(3);
        // Find a channel with at least 3 videos.
        let channel = t
            .catalog
            .channels()
            .find(|c| c.video_count() >= 3)
            .expect("multi-video channel")
            .id();
        let top = t.catalog.top_videos(channel, 1)[0];
        let mut top_picks = 0;
        let n = 2000;
        for _ in 0..n {
            if session.video_in_channel(&t, channel).unwrap() == top {
                top_picks += 1;
            }
        }
        let count = t.catalog.channel(channel).unwrap().video_count();
        let uniform = n as f64 / count as f64;
        assert!(
            f64::from(top_picks) > 1.3 * uniform,
            "top video picked {top_picks} times vs uniform {uniform}"
        );
    }

    #[test]
    fn planner_is_deterministic() {
        let t = trace();
        let mut a = director(t.graph.user_count(), WorkloadConfig::default());
        let mut b = director(t.graph.user_count(), WorkloadConfig::default());
        for _ in 0..50 {
            assert_eq!(
                a.next_video(&t, NodeId::new(3)),
                b.next_video(&t, NodeId::new(3))
            );
        }
    }

    #[test]
    fn default_workload_matches_paper() {
        let w = WorkloadConfig::default();
        assert_eq!(w.sessions_per_node, 25);
        assert_eq!(w.videos_per_session, 10);
        assert_eq!(w.mean_off, SimDuration::from_secs(500));
    }

    #[test]
    fn generates_exactly_n_sessions() {
        // The first session starts at the stagger offset: five sessions
        // leave four off periods between them.
        let mut d = director(1, with_sessions(5, SimDuration::from_secs(100)));
        let node = NodeId::new(0);
        for _ in 0..4 {
            assert!(d.on_logout(node).is_some());
        }
        assert!(d.on_logout(node).is_none());
        assert!(d.on_logout(node).is_none(), "a spent budget stays spent");
    }

    #[test]
    fn off_periods_cluster_around_mean() {
        let offs = off_periods(with_sessions(1001, SimDuration::from_secs(500)), 3);
        let mean = offs.iter().map(|o| o.as_secs_f64()).sum::<f64>() / offs.len() as f64;
        // Poisson(500) has std ~22, so the sample mean is tight.
        assert!((mean - 500.0).abs() < 10.0, "mean={mean}");
    }

    #[test]
    fn off_periods_are_never_zero() {
        let offs = off_periods(with_sessions(101, SimDuration::from_secs(1)), 3);
        assert_eq!(offs.len(), 100);
        assert!(offs.iter().all(|&o| o >= SimDuration::from_secs(1)));
    }

    #[test]
    fn identical_seeds_give_identical_schedules() {
        let workload = with_sessions(11, SimDuration::from_secs(500));
        let a = off_periods(workload.clone(), 9);
        assert_eq!(a.len(), 10);
        assert_eq!(a, off_periods(workload, 9));
    }

    #[test]
    fn sub_second_means_run_as_one_second() {
        let offs = off_periods(with_sessions(200, SimDuration::from_millis(250)), 5);
        assert!(offs
            .iter()
            .all(|o| *o >= SimDuration::from_secs(1) && o.as_micros() % 1_000_000 == 0));
        assert_eq!(
            offs,
            off_periods(with_sessions(200, SimDuration::from_secs(1)), 5)
        );
    }

    #[test]
    fn stagger_offsets_stay_within_the_window() {
        let workload = WorkloadConfig::default();
        let d = director(50, workload.clone());
        for u in 0..50 {
            assert!(d.login_offset(NodeId::new(u)) <= workload.login_stagger);
        }
    }

    #[test]
    fn session_advances_through_its_video_budget() {
        let trace = generate(&TraceConfig::tiny(), 7);
        let workload = WorkloadConfig {
            videos_per_session: 2,
            sessions_per_node: 2,
            ..WorkloadConfig::default()
        };
        let mut d = director(trace.graph.user_count(), workload);
        let node = NodeId::new(0);
        d.on_login(node);
        for step in 0..2 {
            let video = d.next_video(&trace, node).expect("video picked");
            assert_eq!(
                d.on_playback_started(node, video),
                Some(step + 1),
                "watched total advances"
            );
            if step == 0 {
                assert!(matches!(d.on_watch_end(node), SessionStep::Continue(_)));
            } else {
                assert_eq!(d.on_watch_end(node), SessionStep::EndSession);
            }
        }
        // One off period between the two sessions, then the budget is spent.
        assert!(d.on_logout(node).is_some());
        d.on_login(node);
        assert!(d.on_logout(node).is_none());
    }

    #[test]
    fn stale_playbacks_are_ignored() {
        let trace = generate(&TraceConfig::tiny(), 7);
        let mut d = director(trace.graph.user_count(), WorkloadConfig::default());
        let node = NodeId::new(1);
        d.on_login(node);
        let video = d.next_video(&trace, node).expect("video picked");
        assert!(d.on_playback_started(node, video).is_some());
        // Same video again without a new request: stale.
        assert!(d.on_playback_started(node, video).is_none());
    }

    #[test]
    fn abandon_watch_consumes_the_video_budget() {
        let trace = generate(&TraceConfig::tiny(), 7);
        let workload = WorkloadConfig {
            videos_per_session: 1,
            ..WorkloadConfig::default()
        };
        let mut d = director(trace.graph.user_count(), workload);
        let node = NodeId::new(2);
        d.on_login(node);
        let _ = d.next_video(&trace, node).expect("video picked");
        assert_eq!(d.abandon_watch(node), Some(SessionStep::EndSession));
        assert_eq!(d.abandon_watch(node), None, "second abandon is a no-op");
        d.on_login(node);
        let video = d.next_video(&trace, node).expect("video picked");
        let watched = d.on_playback_started(node, video);
        assert_eq!(watched, Some(1), "abandoned watches don't count");
    }

    #[test]
    fn partitioned_directors_replay_identical_sequences() {
        let trace = generate(&TraceConfig::tiny(), 7);
        let users = trace.graph.user_count();
        let workload = WorkloadConfig::default();
        let mut whole = director(users, workload.clone());
        let shard_of: Vec<usize> = (0..users).map(|u| u % 3).collect();
        let mut parts = director(users, workload).partition(&shard_of, 3);
        // Drive nodes in an interleaving the whole director never saw;
        // per-node streams make the draws identical anyway.
        for u in (0..users).rev() {
            let node = NodeId::new(u as u32);
            let part = &mut parts[shard_of[u]];
            assert_eq!(whole.login_offset(node), part.login_offset(node));
            whole.on_login(node);
            part.on_login(node);
            assert_eq!(whole.is_abrupt_exit(node), part.is_abrupt_exit(node));
            assert_eq!(
                whole.next_video(&trace, node),
                part.next_video(&trace, node)
            );
            assert_eq!(whole.on_logout(node), part.on_logout(node));
        }
    }

    #[test]
    fn abrupt_draws_follow_the_failure_probability() {
        let workload = WorkloadConfig {
            abrupt_departure_prob: 1.0,
            ..WorkloadConfig::default()
        };
        let mut d = director(4, workload);
        d.on_login(NodeId::new(0));
        assert!(d.is_abrupt_exit(NodeId::new(0)));

        let workload = WorkloadConfig {
            abrupt_departure_prob: 0.0,
            ..WorkloadConfig::default()
        };
        let mut d = director(4, workload);
        d.on_login(NodeId::new(0));
        assert!(!d.is_abrupt_exit(NodeId::new(0)));
    }
}
