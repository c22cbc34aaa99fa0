//! The two simulator workloads: set-up, warm-up, timed reps, and — in the
//! traced run — the spans, probes, recorded and sharded runs and model
//! readings behind the per-layer metrics.

use std::time::Instant;

use socialtube_experiments::{
    configs, Execution, ExperimentOptions, Protocol, RecorderConfig, RunSpec, SimOutcome,
};
use socialtube_trace::{generate_shared, SharedTrace};

use crate::common::{peak_rss_bytes, timed_reps, Config, RunResult, SetupSampler};
use crate::probes::{self, Population};
use crate::spans::Spans;
use crate::stats::summarize;

/// What distinguishes one simulator workload from another.
struct SimWorkload {
    options: ExperimentOptions,
    protocols: &'static [Protocol],
    /// Whether the traced run also takes the spec through the sharded
    /// executor: only where the population is large enough for sharding to
    /// be a question.
    shard_probe: bool,
    /// Whether the traced run also takes a frame stream through the wire
    /// codec and transport: on the workload whose message mix the stream
    /// was measured on.
    wire_probe: bool,
}

const SOCIALTUBE_ONLY: [Protocol; 1] = [Protocol::SocialTube];

/// The seed every workload's population (catalog, channels, subscriptions)
/// is generated from. The population is part of the workload, as its size
/// is: over trace seeds 1-10 the same 30,000 playbacks cost 3.3 M to 4.5 M
/// events at 10,000 peers, which no bound could tell from a regression.
/// `--seed` drives everything a run draws on top of it — login stagger,
/// video choices, churn, latencies — and moves the event count by about 1 %.
pub const POPULATION_SEED: u64 = 42;

/// The campaign bin's `demo` options (`sim-dense`, and the run `perf mix`
/// tallies); smoke shrinks the session plan too, so a debug-build test
/// finishes in a second.
pub fn dense_options(smoke: bool) -> ExperimentOptions {
    let mut o = if smoke {
        configs::smoke_test()
    } else {
        configs::smoke_test_long()
    };
    o.trace.users = if smoke { 60 } else { 300 };
    o.network.server_bandwidth_bps = 100_000 * o.trace.users as u64;
    o
}

fn workload(config: &Config) -> SimWorkload {
    let mut w = match config.workload {
        "sim-dense" => SimWorkload {
            options: dense_options(config.smoke()),
            protocols: &Protocol::ALL,
            shard_probe: false,
            wire_probe: true,
        },
        "sim-scale" => SimWorkload {
            options: configs::scale_test(if config.smoke() { 60 } else { 10_000 }),
            protocols: &SOCIALTUBE_ONLY,
            shard_probe: true,
            wire_probe: false,
        },
        other => unreachable!("{other} is not a simulator workload"),
    };
    w.options.seed = config.seed;
    w
}

/// Everything the set-up phase produces.
struct Prepared {
    shared: SharedTrace,
    specs: Vec<RunSpec>,
}

fn prepare(w: &SimWorkload, spans: &mut Spans) -> Prepared {
    let span = spans.enter("trace.generate");
    let shared = generate_shared(&w.options.trace, POPULATION_SEED);
    spans.exit(span);
    let specs = w
        .protocols
        .iter()
        .map(|&p| {
            RunSpec::new(p)
                .options(w.options.clone())
                .trace(shared.clone())
                .execution(Execution::Serial)
        })
        .collect();
    Prepared { shared, specs }
}

/// One rep: every spec of the workload, back to back.
fn run_rep(specs: &[RunSpec], spans: &mut Spans) -> Vec<SimOutcome> {
    specs
        .iter()
        .map(|spec| {
            let span = spans.enter("driver.run");
            let outcome = spec.run();
            spans.exit(span);
            outcome
        })
        .collect()
}

/// The deterministic outputs two runs of one spec must share.
fn same_outputs(a: &SimOutcome, b: &SimOutcome) -> bool {
    a.metrics == b.metrics && a.events == b.events && a.sim_end == b.sim_end
}

/// Counts one run's playbacks as attempted and, where the run was
/// truncated, differs from `reference`, or started fewer than planned, as
/// failed.
fn account(
    result: &mut RunResult,
    planned: u64,
    label: &str,
    run: &SimOutcome,
    reference: &SimOutcome,
) {
    result.attempted += planned;
    if run.truncated {
        result.fail(planned, format!("{label}: run hit the event budget"));
    } else if !same_outputs(run, reference) {
        result.fail(
            planned,
            format!("{label}: outputs differ from the reference run"),
        );
    } else if run.metrics.playbacks < planned {
        result.fail(
            planned - run.metrics.playbacks,
            format!(
                "{label}: {} of {planned} playbacks started",
                run.metrics.playbacks
            ),
        );
    }
}

/// How many of the eight Section V ordering claims that
/// `tests/paper_reproduction.rs` asserts hold for these outcomes
/// (`Protocol::ALL` order).
fn paper_claims_held(
    options: &ExperimentOptions,
    protocols: &[Protocol],
    outcomes: &[SimOutcome],
) -> u32 {
    let of = |p: Protocol| {
        let at = protocols
            .iter()
            .position(|q| *q == p)
            .expect("all five protocols ran");
        &outcomes[at]
    };
    let (st, st_nopf, nt, pavod) = (
        of(Protocol::SocialTube),
        of(Protocol::SocialTubeNoPrefetch),
        of(Protocol::NetTube),
        of(Protocol::PaVod),
    );
    let bw = |o: &SimOutcome| o.metrics.peer_bandwidth_percentiles.p50;
    let delay = |o: &SimOutcome| o.metrics.mean_startup_delay_ms;
    let links = |o: &SimOutcome| o.metrics.maintenance_curve.last().map_or(0.0, |p| p.1);
    let link_bound = (options.socialtube.inner_links + options.socialtube.inter_links) as f64;
    let claims = [
        bw(st) >= bw(nt),                                // Fig 16
        bw(nt) >= bw(pavod),                             // Fig 16
        delay(st) < delay(nt),                           // Fig 17
        delay(nt) < delay(pavod),                        // Fig 17
        delay(st) <= delay(st_nopf),                     // Fig 17: prefetch helps
        links(nt) > links(st),                           // Fig 18
        links(st) <= link_bound + 1e-9,                  // Fig 18: N_l + N_h
        st.server_tracked_peak < nt.server_tracked_peak, // tracker state
    ];
    claims.iter().filter(|held| **held).count() as u32
}

/// What the phases of one run leave behind for the per-layer metrics.
struct Measured<'a> {
    w: &'a SimWorkload,
    shared: &'a SharedTrace,
    specs: &'a [RunSpec],
    /// Playbacks one run of one spec plans: users x sessions x videos.
    planned: u64,
    /// The warm-up rep's outcomes, one per spec.
    reference: &'a [SimOutcome],
    /// Host seconds of each timed rep.
    rep_times: &'a [f64],
}

impl Measured<'_> {
    fn events(&self) -> u64 {
        self.reference.iter().map(|o| o.events).sum()
    }

    /// Host seconds of one timed rep: the mean, as `ops_per_s` reads it.
    fn rep_s(&self) -> f64 {
        self.rep_times.iter().sum::<f64>() / self.rep_times.len() as f64
    }

    /// Index of the SocialTube spec, whose run the model readings describe.
    fn socialtube(&self) -> usize {
        let at = self
            .w
            .protocols
            .iter()
            .position(|p| *p == Protocol::SocialTube);
        at.expect("every simulator workload runs SocialTube")
    }
}

pub fn run(config: &Config, spans: &mut Spans) -> RunResult {
    let w = workload(config);
    let mut result = RunResult::default();
    let min_reps = if config.smoke() { 1 } else { 3 };

    // Set-up: the first one is kept; timed samples of it follow here and
    // after every timed rep.
    let (mut setups, Prepared { shared, specs }) =
        SetupSampler::new(config.smoke(), spans, |spans: &mut Spans| {
            let span = spans.enter("setup");
            let prepared = prepare(&w, spans);
            spans.exit(span);
            prepared
        });
    setups.sample(spans);
    let planned = shared.graph.user_count() as u64
        * u64::from(w.options.workload.sessions_per_node)
        * u64::from(w.options.workload.videos_per_session);

    // The traced run probes the populations first, while the heap is still
    // small enough for RSS growth to mean something.
    let probed = config
        .trace
        .then(|| probe_populations(config, &w, &shared, spans));

    // Warm-up: one untimed rep. Every later run — timed, traced, sharded —
    // must reproduce its outputs.
    let mut untraced = Spans::new(false);
    let span = spans.enter("rep.warmup");
    let reference = run_rep(&specs, &mut untraced);
    spans.exit(span);
    for (run, p) in reference.iter().zip(w.protocols) {
        account(&mut result, planned, &format!("{p} warm-up rep"), run, run);
    }

    // Timed reps, tracing off. The traced run spends half its time here: it
    // needs the untraced figure only to set the traced rep against.
    let seconds = if config.trace {
        config.seconds / 2.0
    } else {
        config.seconds
    };
    let span = spans.enter("reps.untraced");
    let rep_times = timed_reps(seconds, min_reps, || {
        let start = Instant::now();
        let outcomes = run_rep(&specs, &mut untraced);
        let secs = start.elapsed().as_secs_f64();
        for ((run, first), p) in outcomes.iter().zip(&reference).zip(w.protocols) {
            account(&mut result, planned, &format!("{p} rep"), run, first);
        }
        drop(outcomes);
        setups.sample(&mut untraced);
        secs
    });
    spans.exit(span);
    let peak_rss = peak_rss_bytes();
    result.rep_seconds.clone_from(&rep_times);

    let measured = Measured {
        w: &w,
        shared: &shared,
        specs: &specs,
        planned,
        reference: &reference,
        rep_times: &rep_times,
    };
    match probed {
        None => {
            result.set_median("setup_s", &setups.samples);
            // Work the input defines: the playbacks one rep plans, over
            // all its runs. Every one of them started, or the run failed.
            let playbacks = (planned * specs.len() as u64) as f64;
            result.set_throughput("ops_per_s", playbacks, &rep_times);
            result.set("peak_rss_bytes", peak_rss as f64);
        }
        Some((costs, handlers)) => {
            result.set(
                "trace.generate_s",
                spans.total_secs("trace.generate") / spans.count("trace.generate").max(1) as f64,
            );
            result.set("stack.build_s", costs.build_s);
            result.set("stack.bytes_per_peer", costs.bytes_per_peer);
            handlers.publish(&mut result);
            let traced = layer_metrics(config, &measured, &handlers, spans, &mut result);
            model_metrics(&measured, &traced, spans, &mut result);
            if w.shard_probe {
                shard_metrics(&measured, spans, &mut result);
            }
            if w.wire_probe {
                let frames = if config.smoke() { 2_000 } else { 200_000 };
                let span = spans.enter("probe.net");
                crate::net::probe(frames, config.seed, spans, &mut result);
                spans.exit(span);
            }
        }
    }
    result
}

/// The traced rep, the probes that need a run's own figures, and the
/// `driver.*` accounting. Returns the traced rep's outcomes.
fn layer_metrics(
    config: &Config,
    m: &Measured,
    handlers: &HandlerNs,
    spans: &mut Spans,
    result: &mut RunResult,
) -> Vec<SimOutcome> {
    // Spans around every run, and the metrics-only recorder attached to
    // read the event mix at the same boundary. The recorder may not show in
    // the outputs: the rep is held to the unrecorded reference.
    let traced_specs: Vec<RunSpec> = m
        .specs
        .iter()
        .map(|s| s.clone().with_recorder(RecorderConfig::metrics_only()))
        .collect();
    let span = spans.enter("rep.traced");
    let start = Instant::now();
    let traced = run_rep(&traced_specs, spans);
    let traced_s = start.elapsed().as_secs_f64();
    spans.exit(span);
    for ((run, first), p) in traced.iter().zip(m.reference).zip(m.w.protocols) {
        account(result, m.planned, &format!("{p} traced rep"), run, first);
    }

    let users = m.shared.graph.user_count();
    let events = m.events() as f64;
    let playbacks: u64 = m.reference.iter().map(|o| o.metrics.playbacks).sum();
    let rep_s = m.rep_s();
    result.set("trace.users", users as f64);
    result.set("trace.videos", m.shared.catalog().video_count() as f64);
    result.set("driver.run_s", rep_s);
    result.set("driver.events", events);
    result.set("driver.events_per_s", events / rep_s);
    result.set("driver.ns_per_event", rep_s * 1e9 / events);
    result.set("driver.playbacks_per_s", playbacks as f64 / rep_s);
    result.set(
        "driver.rep_spread_pct",
        summarize(m.rep_times).spread() * 100.0,
    );
    result.set("trace_overhead_pct", (traced_s / rep_s - 1.0) * 100.0);

    // The event mix of the traced rep, per run: peer deliveries, server
    // deliveries, peer timers, video selections, and all session events.
    let mixes: Vec<[u64; 5]> = traced
        .iter()
        .map(|run| {
            let snapshot = &run
                .recording
                .as_ref()
                .expect("traced specs record")
                .snapshot;
            let count = |key: &str| snapshot.counter(key);
            let next_video = count("ev_next_video");
            let session =
                count("ev_login") + count("ev_logout") + next_video + count("ev_watch_end");
            [
                count("ev_peer_msg"),
                count("ev_server_msg"),
                count("ev_peer_timer"),
                next_video,
                session,
            ]
        })
        .collect();
    let total = |i: usize| mixes.iter().map(|mix| mix[i]).sum::<u64>();
    result.set("obs.count.ev_peer_msg", total(0) as f64);
    result.set("obs.count.ev_server_msg", total(1) as f64);
    result.set("obs.count.ev_peer_timer", total(2) as f64);
    result.set("obs.count.ev_session", total(4) as f64);

    let iters = config.probe_iters();
    let seed = config.seed;
    let options = &m.w.options;
    let queue_peak = m
        .reference
        .iter()
        .map(SimOutcome::queue_peak)
        .max()
        .unwrap_or(0);
    // Timers and session events wait seconds to minutes, deliveries one
    // latency: the queue probe pushes the two in the rep's own proportion.
    let long_share = share(total(2) + total(4), m.events());
    let span = spans.enter("probe.sim.queue");
    let queue = probes::queue(queue_peak, iters * 5, seed, long_share);
    spans.exit(span);
    result.set("sim.queue.peak", queue_peak as f64);
    result.set("sim.queue.push_pop_ns", queue.push_pop_ns);
    result.set("sim.queue.overflow_share", queue.overflow_share);
    let span = spans.enter("probe.sim.latency");
    let delay_ns = probes::latency_delay_ns(options, users, iters * 5, seed);
    spans.exit(span);
    result.set("sim.latency.delay_ns", delay_ns);
    let span = spans.enter("probe.sim.bandwidth");
    let (upload_ns, serve_ns) = probes::bandwidth_ns(options, users, iters * 5, seed);
    spans.exit(span);
    result.set("sim.bandwidth.upload_ns", upload_ns);
    result.set("sim.bandwidth.serve_ns", serve_ns);
    let span = spans.enter("probe.metrics");
    let (on_report_ns, summary_s) = probes::metrics(users, iters * 5, seed);
    spans.exit(span);
    result.set("metrics.on_report_ns", on_report_ns);
    result.set("metrics.summary_s", summary_s);
    let span = spans.enter("probe.obs.recorder");
    result.set(
        "obs.recorder.hook_ns",
        probes::recorder_hook_ns(iters, seed),
    );
    spans.exit(span);

    // The recorder's cost on this workload: the traced rep, which carries
    // it, against a rep without, over the events both dispatched.
    result.set(
        "obs.recorder.overhead_ns_per_event",
        (traced_s - rep_s) * 1e9 / events,
    );

    // The part of a rep's time the probes account for: one queue pop + push
    // per event, a handler call per delivery, timer or video selection, and
    // a delay lookup per delivery. What is left is dispatch, command
    // interpretation and stalls; reported, never hidden.
    let mut explained_ns = 0.0;
    for ((run, p), mix) in traced.iter().zip(m.w.protocols).zip(&mixes) {
        let [peer_msg, server_msg, peer_timer, next_video, _] = mix.map(|n| n as f64);
        explained_ns += run.events as f64 * queue.push_pop_ns
            + peer_msg * (handlers.on_message_for(*p) + delay_ns)
            + server_msg * (handlers.server_on_message + delay_ns)
            + peer_timer * handlers.on_timer
            + next_video * handlers.watch;
    }
    result.set(
        "driver.residual_ns_per_event",
        (rep_s * 1e9 - explained_ns) / events,
    );
    traced
}

/// Model readings — simulated time and counts of the SocialTube run, which
/// a change meant only to speed the simulator must leave identical.
fn model_metrics(m: &Measured, traced: &[SimOutcome], spans: &mut Spans, result: &mut RunResult) {
    let st = m.socialtube();
    let snapshot = &traced[st]
        .recording
        .as_ref()
        .expect("traced specs record")
        .snapshot;
    let span = spans.enter("obs.snapshot.to_json");
    let start = Instant::now();
    std::hint::black_box(snapshot.to_json(0));
    result.set("obs.snapshot.to_json_s", start.elapsed().as_secs_f64());
    spans.exit(span);

    let metrics = &m.reference[st].metrics;
    result.set("model.playbacks", metrics.playbacks as f64);
    result.set("model.sim_end_s", m.reference[st].sim_end.as_secs_f64());
    result.set("model.startup_mean_ms", metrics.mean_startup_delay_ms);
    result.set(
        "model.startup_p99_ms",
        metrics.startup_delay_percentiles.p99,
    );
    result.set("model.peer_bw_p50", metrics.peer_bandwidth_percentiles.p50);
    let received = metrics.total_server_bits + metrics.total_peer_bits;
    result.set(
        "model.server_share",
        share(metrics.total_server_bits, received),
    );
    result.set("model.links_steady", metrics.steady_state_links());
    let resolved: u64 = ["resolved_channel", "resolved_category", "resolved_server"]
        .iter()
        .map(|key| snapshot.counter(key))
        .sum();
    result.set(
        "model.resolved_channel_share",
        share(snapshot.counter("resolved_channel"), resolved),
    );
    result.set(
        "model.cache_hit_share",
        share(metrics.cache_hits, metrics.playbacks),
    );
    result.set(
        "model.prefetch_hit_share",
        share(metrics.prefetch_hits, metrics.playbacks),
    );
    if m.w.protocols.len() == Protocol::ALL.len() {
        let held = paper_claims_held(&m.w.options, m.w.protocols, m.reference);
        result.set("model.paper_claims_held", f64::from(held));
    }
}

/// The sharded executor: one run with one worker (the epoch machinery
/// alone) and one with two, the second read through its self-profile. Both
/// must reproduce the serial reference. The two-worker wall time swings by
/// tens of percent on two shared cores, so none of this is bounded.
fn shard_metrics(m: &Measured, spans: &mut Spans, result: &mut RunResult) {
    let st = m.socialtube();
    let mut sharded = |workers: usize, name: &'static str| {
        let spec = m.specs[st]
            .clone()
            .execution(Execution::Sharded { workers });
        let span = spans.enter(name);
        let start = Instant::now();
        let run = spec.run();
        let secs = start.elapsed().as_secs_f64();
        spans.exit(span);
        let label = format!("sharded run, {workers} worker(s)");
        account(result, m.planned, &label, &run, &m.reference[st]);
        (run, secs)
    };
    let (_, workers1_s) = sharded(1, "driver.run.workers1");
    let (run, workers2_s) = sharded(2, "driver.run.workers2");
    let p = run.profile.as_ref().expect("sharded runs self-profile");
    result.set("sim.shard.epochs", p.epochs as f64);
    result.set(
        "sim.shard.events_per_epoch",
        run.events as f64 / p.epochs.max(1) as f64,
    );
    result.set("sim.shard.epoch_compute_s", p.epoch_compute_s);
    result.set("sim.shard.barrier_stall_s", p.barrier_stall_s);
    result.set("sim.shard.merge_s", p.merge_s);
    result.set(
        "sim.shard.cross_shard_share",
        share(p.cross_shard_total(), run.events),
    );
    result.set("sim.shard.imbalance_mean", p.imbalance_mean);
    result.set("sim.shard.workers1_run_s", workers1_s);
    result.set("sim.shard.workers2_run_s", workers2_s);
    result.set("sim.shard.serial_run_s", m.rep_s());
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Handler costs from the population probes, in ns per call.
struct HandlerNs {
    on_message: f64,
    on_message_hot: f64,
    on_timer: f64,
    watch: f64,
    server_on_message: f64,
    nettube_on_message: f64,
    pavod_on_message: f64,
}

impl HandlerNs {
    /// The cold `on_message` cost of the family `protocol` belongs to.
    fn on_message_for(&self, protocol: Protocol) -> f64 {
        match protocol {
            Protocol::SocialTube | Protocol::SocialTubeNoPrefetch => self.on_message,
            Protocol::NetTube | Protocol::NetTubeNoPrefetch => self.nettube_on_message,
            Protocol::PaVod => self.pavod_on_message,
        }
    }

    fn publish(&self, result: &mut RunResult) {
        result.set("core.peer.on_message_ns", self.on_message);
        result.set("core.peer.on_message_hot_ns", self.on_message_hot);
        result.set("core.peer.on_timer_ns", self.on_timer);
        result.set("core.peer.watch_ns", self.watch);
        result.set("core.server.on_message_ns", self.server_on_message);
        result.set("baselines.nettube.on_message_ns", self.nettube_on_message);
        result.set("baselines.pavod.on_message_ns", self.pavod_on_message);
    }
}

/// Builds each protocol family's population over the workload's trace and
/// times its handlers. One population is alive at a time.
fn probe_populations(
    config: &Config,
    w: &SimWorkload,
    shared: &SharedTrace,
    spans: &mut Spans,
) -> (probes::BuildCost, HandlerNs) {
    let iters = config.probe_iters();
    let seed = config.seed;
    let span = spans.enter("probe.core");
    let (mut pop, cost) = Population::build(Protocol::SocialTube, shared, &w.options, seed, spans);
    let on_message = pop.on_message_ns(iters, seed, false, false);
    let on_message_hot = pop.on_message_ns(iters, seed, true, false);
    let on_timer = pop.on_timer_ns(iters, seed);
    let watch = pop.watch_ns(seed);
    let server_on_message = pop.server_on_message_ns(iters, seed);
    drop(pop);
    spans.exit(span);
    let span = spans.enter("probe.baselines");
    let (mut pop, _) = Population::build(Protocol::NetTube, shared, &w.options, seed, spans);
    let nettube_on_message = pop.on_message_ns(iters, seed, false, true);
    drop(pop);
    let (mut pop, _) = Population::build(Protocol::PaVod, shared, &w.options, seed, spans);
    let pavod_on_message = pop.on_message_ns(iters, seed, false, true);
    drop(pop);
    spans.exit(span);
    (
        cost,
        HandlerNs {
            on_message,
            on_message_hot,
            on_timer,
            watch,
            server_on_message,
            nettube_on_message,
            pavod_on_message,
        },
    )
}
