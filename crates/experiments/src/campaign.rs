//! Parallel experiment campaigns: a shared-trace fan-out runner.
//!
//! The paper's evaluation is a grid: five protocol variants, one shared
//! trace and workload per replicate, several replicates for error bars. A
//! [`Campaign`] expands that grid into independent [`RunSpec`]s and executes
//! them on a pool of scoped worker threads:
//!
//! * the trace for each sweep point (seed) is generated **once** and shared
//!   read-only via [`SharedTrace`] — workers clone `Arc` handles, never the
//!   catalog;
//! * every run's randomness derives from `(base_seed, run_index)` through
//!   [`SimRng::run_seed`], so any single cell can be reproduced alone with
//!   a plain serial [`RunSpec`];
//! * results are keyed by grid position, so the report is byte-identical
//!   whatever order the workers finish in — a 4-worker campaign and a
//!   serial loop produce the same [`MetricsSummary`] per cell.
//!
//! ```no_run
//! use socialtube_experiments::{configs, Campaign, Protocol};
//!
//! let report = Campaign::new(configs::smoke_test())
//!     .protocols(&Protocol::ALL)
//!     .replicates(4)
//!     .workers(4)
//!     .run();
//! for summary in report.summaries() {
//!     println!("{}: {:.0} ms ± {:.0}", summary.protocol,
//!         summary.startup_delay_ms.mean, summary.startup_delay_ms.ci95);
//! }
//! ```

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use socialtube_obs::{MetricsSnapshot, ProgressConfig, ProgressSink, RecorderConfig};
use socialtube_sim::SimRng;
use socialtube_trace::{generate_shared, SharedTrace};

use crate::configs::ExperimentOptions;
use crate::driver::{RunSpec, SimOutcome};
use crate::metrics::MetricsSummary;
use crate::Protocol;

/// A planned sweep over protocols × seeds, sharing one trace per seed.
///
/// Built with setters, executed with [`run`](Campaign::run) (parallel) or
/// [`run_serial`](Campaign::run_serial); both produce identical
/// [`CampaignReport`]s modulo wall-clock.
#[derive(Clone, Debug)]
pub struct Campaign {
    base: ExperimentOptions,
    protocols: Vec<Protocol>,
    seeds: Vec<u64>,
    workers: usize,
    recorder: RecorderConfig,
    progress: Option<ProgressConfig>,
}

/// One cell of the sweep grid before execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedRun {
    /// Position in the flattened grid (seeds outer, protocols inner).
    pub(crate) run_index: usize,
    /// Index of this run's seed in the campaign's seed list — runs with
    /// equal `sweep_index` share one generated trace.
    pub sweep_index: usize,
    /// The protocol variant this cell runs.
    pub protocol: Protocol,
    /// The root seed for trace, workload and protocol randomness.
    pub seed: u64,
}

/// A completed cell: the plan plus its outcome.
#[derive(Debug)]
pub struct CampaignCell {
    /// The planned coordinates of this cell.
    pub plan: PlannedRun,
    /// The simulation result.
    pub outcome: SimOutcome,
}

/// Results of a campaign, ordered by grid position.
#[derive(Debug)]
pub struct CampaignReport {
    /// One entry per grid cell, in plan order.
    pub cells: Vec<CampaignCell>,
    /// Wall-clock time of the whole campaign (traces + runs).
    pub wall_clock: Duration,
    /// Wall-clock time spent generating traces (once per seed).
    pub trace_wall_clock: Duration,
    /// How many traces were generated — always the number of seeds.
    pub traces_generated: usize,
    /// Worker threads used.
    pub workers: usize,
}

/// Mean/min/max and a 95% confidence half-width over per-seed samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Half-width of the normal-approximation 95% confidence interval
    /// (`1.96 · s/√n`; 0 for fewer than two samples).
    pub ci95: f64,
    /// Number of samples.
    pub(crate) n: usize,
}

impl Aggregate {
    /// Computes the aggregate of `samples` (must be non-empty).
    pub(crate) fn from_samples(samples: &[f64]) -> Aggregate {
        assert!(!samples.is_empty(), "aggregate of zero samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ci95 = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            1.96 * (var / n as f64).sqrt()
        };
        Aggregate {
            mean,
            min,
            max,
            ci95,
            n,
        }
    }
}

/// Per-protocol aggregates across a campaign's seeds.
#[derive(Clone, Debug)]
pub struct ProtocolSummary {
    /// The protocol the row aggregates.
    pub protocol: Protocol,
    /// Mean startup delay (ms) across seeds.
    pub startup_delay_ms: Aggregate,
    /// Mean normalized peer bandwidth across seeds.
    pub peer_bandwidth: Aggregate,
}

impl Campaign {
    /// Starts a campaign over `base` options: all five protocols, the
    /// single seed `base.seed`, and one worker per available core (capped
    /// at the grid size at execution time).
    pub fn new(base: ExperimentOptions) -> Self {
        let seeds = vec![base.seed];
        Self {
            base,
            protocols: Protocol::ALL.to_vec(),
            seeds,
            workers: default_workers(),
            recorder: RecorderConfig::default(),
            progress: None,
        }
    }

    /// Attaches a recorder to every cell ([`RunSpec::with_recorder`]):
    /// each outcome then carries a metrics snapshot, and
    /// [`CampaignReport::merged_snapshot`] aggregates them per protocol.
    /// Recording never changes the results — runs stay bitwise identical.
    pub fn recorder(mut self, config: RecorderConfig) -> Self {
        self.recorder = config;
        self
    }

    /// Streams one NDJSON progress line per completed cell (`cells_done`
    /// of `cells_total`, cumulative events, wall-clock ETA from the mean
    /// cell time) to the configured target. Write-only: campaign results
    /// are bitwise identical with it on or off.
    pub fn progress(mut self, config: ProgressConfig) -> Self {
        self.progress = Some(config);
        self
    }

    /// Restricts the sweep to `protocols`; a repeat is one cell, kept at
    /// its first position.
    pub fn protocols(mut self, protocols: &[Protocol]) -> Self {
        self.protocols = first_occurrences(protocols.iter().copied());
        self
    }

    /// Sweeps exactly these seeds, one trace per seed; a repeat is one
    /// sweep point, kept at its first position.
    pub(crate) fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = first_occurrences(seeds);
        self
    }

    /// Sweeps `n` seeds derived from the base seed via
    /// [`SimRng::run_seed`]; replicate 0 is the base seed itself, so a
    /// one-replicate campaign reproduces the plain serial run.
    pub fn replicates(self, n: usize) -> Self {
        let base = self.base.seed;
        self.seeds((0..n as u64).map(|i| SimRng::run_seed(base, i)))
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Expands the sweep grid into planned runs: seeds outer, protocols
    /// inner, so all variants of one replicate are adjacent and share a
    /// trace.
    pub fn plan(&self) -> Vec<PlannedRun> {
        let mut plan = Vec::with_capacity(self.seeds.len() * self.protocols.len());
        for (sweep_index, &seed) in self.seeds.iter().enumerate() {
            for &protocol in &self.protocols {
                plan.push(PlannedRun {
                    run_index: plan.len(),
                    sweep_index,
                    protocol,
                    seed,
                });
            }
        }
        plan
    }

    /// Executes the campaign on the configured worker pool.
    pub fn run(&self) -> CampaignReport {
        self.execute(self.workers)
    }

    /// Executes the campaign on the calling thread only — the baseline the
    /// parallel path must match bitwise.
    pub fn run_serial(&self) -> CampaignReport {
        self.execute(1)
    }

    fn execute(&self, workers: usize) -> CampaignReport {
        let start = Instant::now();
        let plan = self.plan();

        // Phase 1: one trace per sweep point, shared read-only afterwards.
        let trace_start = Instant::now();
        let trace_config = self.base.trace.clone();
        let traces: Vec<SharedTrace> = parallel_map(
            &self.seeds,
            workers.min(self.seeds.len().max(1)),
            |_, &seed| generate_shared(&trace_config, seed),
        );
        let trace_wall_clock = trace_start.elapsed();

        // Phase 2: fan the grid out; each job clones Arc handles only.
        let specs: Vec<RunSpec> = plan
            .iter()
            .map(|p| {
                RunSpec::new(p.protocol)
                    .options(self.base.clone())
                    .seed(p.seed)
                    .trace(traces[p.sweep_index].clone())
                    .with_recorder(self.recorder)
            })
            .collect();
        // One shared sink for the whole grid: workers report completed
        // cells in finish order (the result ordering is position-keyed and
        // unaffected).
        let progress: Option<Mutex<ProgressSink>> =
            self.progress
                .clone()
                .and_then(|config| match ProgressSink::new(config) {
                    Ok(sink) => Some(Mutex::new(sink)),
                    Err(err) => {
                        eprintln!("warning: campaign progress disabled: {err}");
                        None
                    }
                });
        let cells_done = AtomicU64::new(0);
        let events_done = AtomicU64::new(0);
        let cells_total = specs.len() as u64;
        let outcomes = run_specs(&specs, workers, |outcome| {
            if let Some(sink) = &progress {
                let done = cells_done.fetch_add(1, Ordering::Relaxed) + 1;
                let events =
                    events_done.fetch_add(outcome.events, Ordering::Relaxed) + outcome.events;
                if let Ok(mut sink) = sink.lock() {
                    sink.emit_cell(done, cells_total, events);
                }
            }
        });

        let cells = plan
            .into_iter()
            .zip(outcomes)
            .map(|(plan, outcome)| CampaignCell { plan, outcome })
            .collect();
        CampaignReport {
            cells,
            wall_clock: start.elapsed(),
            trace_wall_clock,
            traces_generated: self.seeds.len(),
            workers,
        }
    }
}

/// Executes `specs` on `workers` threads, returning outcomes in input
/// order; `on_done` sees each outcome on the worker that produced it.
fn run_specs(
    specs: &[RunSpec],
    workers: usize,
    on_done: impl Fn(&SimOutcome) + Sync,
) -> Vec<SimOutcome> {
    parallel_map(specs, workers.min(specs.len()).max(1), |_, spec| {
        let outcome = spec.run();
        on_done(&outcome);
        outcome
    })
}

/// Default worker count: the machine's parallelism, capped to keep a
/// laptop responsive while a campaign runs.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// Maps `f` over `items` on a pool of scoped threads, preserving input
/// order. Work is handed out through a shared index, results flow back
/// through a channel keyed by position; with `workers == 1` it runs inline.
fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(items.len()) {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in rx {
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|s| s.expect("worker completed every job"))
            .collect()
    })
}

impl CampaignReport {
    /// Total engine events across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.outcome.events).sum()
    }

    /// Aggregate simulation throughput: events processed per wall-clock
    /// second over the whole campaign.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall_clock.as_secs_f64();
        if secs > 0.0 {
            self.total_events() as f64 / secs
        } else {
            0.0
        }
    }

    /// The metrics of the cell at (`protocol`, `seed`), if it ran.
    pub(crate) fn outcome(&self, protocol: Protocol, seed: u64) -> Option<&SimOutcome> {
        self.cells
            .iter()
            .find(|c| c.plan.protocol == protocol && c.plan.seed == seed)
            .map(|c| &c.outcome)
    }

    /// The replicate that ran at `seed`: each variant's metrics, in plan
    /// order — what [`figures`](crate::figures) reads.
    pub fn replicate(&self, seed: u64) -> Vec<(Protocol, &MetricsSummary)> {
        self.cells
            .iter()
            .filter(|c| c.plan.seed == seed)
            .map(|c| (c.plan.protocol, &c.outcome.metrics))
            .collect()
    }

    /// Aggregates `protocol` across seeds, or `None` if it never ran.
    pub(crate) fn summary(&self, protocol: Protocol) -> Option<ProtocolSummary> {
        let cells: Vec<&CampaignCell> = self
            .cells
            .iter()
            .filter(|c| c.plan.protocol == protocol)
            .collect();
        if cells.is_empty() {
            return None;
        }
        let collect = |f: &dyn Fn(&CampaignCell) -> f64| {
            Aggregate::from_samples(&cells.iter().map(|c| f(c)).collect::<Vec<f64>>())
        };
        Some(ProtocolSummary {
            protocol,
            startup_delay_ms: collect(&|c| c.outcome.metrics.mean_startup_delay_ms),
            peer_bandwidth: collect(&|c| c.outcome.metrics.mean_peer_bandwidth),
        })
    }

    /// Merges the metrics snapshots of every recorded cell of `protocol`
    /// across seeds: counters add, histograms add bucketwise. `None` when
    /// the campaign ran without a recorder or the protocol never ran.
    pub fn merged_snapshot(&self, protocol: Protocol) -> Option<MetricsSnapshot> {
        let mut snapshots = self
            .cells
            .iter()
            .filter(|c| c.plan.protocol == protocol)
            .map(|c| c.outcome.recording.as_ref().map(|r| &r.snapshot));
        let mut merged = snapshots.next()??.clone();
        for snapshot in snapshots {
            merged.merge(snapshot?);
        }
        Some(merged)
    }

    /// One aggregate row per protocol that ran, in first-seen order.
    pub fn summaries(&self) -> Vec<ProtocolSummary> {
        first_occurrences(self.cells.iter().map(|c| c.plan.protocol))
            .into_iter()
            .filter_map(|p| self.summary(p))
            .collect()
    }
}

/// `items` without repeats, each kept where it first appears: a campaign
/// cell is one sample, so a repeated protocol or seed must not count twice.
fn first_occurrences<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut kept = Vec::new();
    for item in items {
        if !kept.contains(&item) {
            kept.push(item);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    /// A sub-smoke-test configuration keeping multi-run tests fast.
    fn tiny() -> ExperimentOptions {
        let mut o = configs::smoke_test();
        o.trace.users = 100;
        o.trace.videos = 150;
        o.trace.channels = 5;
        o.workload.sessions_per_node = 1;
        o
    }

    #[test]
    fn plan_expands_seeds_outer_protocols_inner() {
        let campaign = Campaign::new(tiny())
            .protocols(&[Protocol::PaVod, Protocol::SocialTube])
            .seeds([7, 8]);
        let plan = campaign.plan();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.iter()
                .map(|p| (p.run_index, p.sweep_index, p.protocol, p.seed))
                .collect::<Vec<_>>(),
            vec![
                (0, 0, Protocol::PaVod, 7),
                (1, 0, Protocol::SocialTube, 7),
                (2, 1, Protocol::PaVod, 8),
                (3, 1, Protocol::SocialTube, 8),
            ]
        );
    }

    #[test]
    fn repeated_protocols_and_seeds_are_one_cell() {
        let campaign = Campaign::new(tiny())
            .protocols(&[Protocol::SocialTube, Protocol::PaVod, Protocol::SocialTube])
            .seeds([7, 7, 9]);
        assert_eq!(
            campaign
                .plan()
                .iter()
                .map(|p| (p.protocol, p.seed))
                .collect::<Vec<_>>(),
            vec![
                (Protocol::SocialTube, 7),
                (Protocol::PaVod, 7),
                (Protocol::SocialTube, 9),
                (Protocol::PaVod, 9),
            ]
        );
    }

    #[test]
    fn replicates_derive_distinct_seeds_from_base() {
        let campaign = Campaign::new(tiny()).replicates(4);
        let plan = campaign.plan();
        let mut seeds: Vec<u64> = plan.iter().map(|p| p.seed).collect();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "each replicate gets its own seed");
        assert_eq!(seeds[0], tiny().seed, "replicate 0 is the base seed");
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn parallel_campaign_matches_serial_bitwise() {
        let campaign = Campaign::new(tiny())
            .protocols(&[Protocol::SocialTube, Protocol::PaVod])
            .replicates(2)
            .workers(4);
        let parallel = campaign.run();
        let serial = campaign.run_serial();
        assert_eq!(parallel.cells.len(), serial.cells.len());
        for (p, s) in parallel.cells.iter().zip(&serial.cells) {
            assert_eq!(p.plan, s.plan);
            assert_eq!(p.outcome.metrics, s.outcome.metrics, "{}", p.plan.protocol);
            assert_eq!(p.outcome.events, s.outcome.events);
            assert_eq!(p.outcome.sim_end, s.outcome.sim_end);
        }
        assert_eq!(parallel.traces_generated, 2);
        assert_eq!(serial.traces_generated, 2);
    }

    #[test]
    fn campaign_cell_matches_standalone_run_spec() {
        // A cell must be reproducible alone: seed a serial RunSpec with the
        // cell's derived seed and get the same summary bitwise.
        let base = tiny();
        let campaign = Campaign::new(base.clone())
            .protocols(&[Protocol::SocialTube])
            .replicates(2)
            .workers(4);
        let report = campaign.run();
        for cell in &report.cells {
            let alone = RunSpec::new(cell.plan.protocol)
                .options(base.clone())
                .seed(cell.plan.seed)
                .run();
            assert_eq!(alone.metrics, cell.outcome.metrics);
            assert_eq!(alone.events, cell.outcome.events);
        }
    }

    #[test]
    fn cross_protocol_smoke_all_protocols_two_seeds() {
        let report = Campaign::new(tiny())
            .protocols(&Protocol::ALL)
            .replicates(2)
            .workers(4)
            .run();
        assert_eq!(report.cells.len(), 10, "5 protocols × 2 seeds");
        assert_eq!(report.traces_generated, 2);
        assert!(report.cells.iter().all(|c| c.outcome.metrics.playbacks > 0));
        let summaries = report.summaries();
        assert_eq!(summaries.len(), 5);
        for s in &summaries {
            assert_eq!(s.startup_delay_ms.n, 2);
            assert!(s.startup_delay_ms.min <= s.startup_delay_ms.mean);
            assert!(s.startup_delay_ms.mean <= s.startup_delay_ms.max);
        }
        assert!(report.total_events() > 0);
        assert!(report.events_per_sec() > 0.0);
        let seed0 = report.cells[0].plan.seed;
        assert!(report.outcome(Protocol::PaVod, seed0).is_some());
        assert_eq!(report.replicate(seed0).len(), 5);
    }

    #[test]
    fn recorded_campaign_merges_snapshots_and_stays_bitwise_identical() {
        let campaign = Campaign::new(tiny())
            .protocols(&[Protocol::SocialTube, Protocol::PaVod])
            .replicates(2)
            .workers(2);
        let plain = campaign.run_serial();
        let recorded = campaign
            .clone()
            .recorder(RecorderConfig::metrics_only())
            .run();
        for (p, r) in plain.cells.iter().zip(&recorded.cells) {
            assert_eq!(p.outcome.metrics, r.outcome.metrics, "{}", p.plan.protocol);
            assert_eq!(p.outcome.events, r.outcome.events);
        }
        assert!(plain.merged_snapshot(Protocol::SocialTube).is_none());
        let snap = recorded
            .merged_snapshot(Protocol::SocialTube)
            .expect("recorded campaign has snapshots");
        // Two seeds merged: event counters cover both runs' engine events.
        let per_cell: u64 = recorded
            .cells
            .iter()
            .filter(|c| c.plan.protocol == Protocol::SocialTube)
            .map(|c| {
                let s = &c.outcome.recording.as_ref().unwrap().snapshot;
                s.counter("ev_login")
            })
            .sum();
        assert_eq!(snap.counter("ev_login"), per_cell);
        assert!(snap.counter("ev_login") > 0);
    }

    #[test]
    fn campaign_progress_emits_one_line_per_cell() {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "socialtube-campaign-progress-{}.ndjson",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let campaign = Campaign::new(tiny())
            .protocols(&[Protocol::SocialTube, Protocol::PaVod])
            .replicates(2)
            .workers(2);
        let plain = campaign.run();
        let streamed = campaign
            .clone()
            .progress(ProgressConfig::to_file(&path))
            .run();
        let text = std::fs::read_to_string(&path).expect("progress file written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(text.lines().count(), 4, "one line per cell:\n{text}");
        assert!(
            text.lines().any(|l| l.contains("\"cells_done\": 4")),
            "final line reports all cells done:\n{text}"
        );
        for (p, s) in plain.cells.iter().zip(&streamed.cells) {
            assert_eq!(p.outcome.metrics, s.outcome.metrics, "progress perturbed");
            assert_eq!(p.outcome.events, s.outcome.events);
        }
    }

    #[test]
    fn aggregate_statistics_are_correct() {
        let a = Aggregate::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.mean, 2.5);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(a.n, 4);
        // s = sqrt(5/3), ci = 1.96 * s / 2.
        let expected = 1.96 * (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((a.ci95 - expected).abs() < 1e-12);
        let single = Aggregate::from_samples(&[7.0]);
        assert_eq!(single.ci95, 0.0);
        assert_eq!(single.mean, 7.0);
    }

    #[test]
    fn run_specs_preserves_input_order() {
        let base = tiny();
        let shared = socialtube_trace::generate_shared(&base.trace, base.seed);
        let specs: Vec<RunSpec> = [Protocol::PaVod, Protocol::SocialTube]
            .iter()
            .map(|&p| RunSpec::new(p).options(base.clone()).trace(shared.clone()))
            .collect();
        let outcomes = run_specs(&specs, 2, |_| {});
        assert_eq!(outcomes.len(), 2);
        // Each slot must hold exactly the outcome of the spec that was
        // submitted there, regardless of which worker finished first.
        for (spec, outcome) in specs.into_iter().zip(&outcomes) {
            let alone = spec.run();
            assert_eq!(alone.metrics, outcome.metrics, "outcomes out of order");
            assert_eq!(alone.events, outcome.events);
        }
    }
}
