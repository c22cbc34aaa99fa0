//! What every workload shares: the run configuration, the result record,
//! the rep loop, a seeded generator for benchmark inputs, and the peak-RSS
//! reading.

use std::time::Instant;

use crate::spans::Spans;
use crate::stats::{summarize, Summary};
use crate::table;

/// Input size. `Smoke` (60 peers, 1 rep, 2,000 frames) exists for the unit
/// tests only; the driver always runs `Full`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed reps of a run measure.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Config {
    pub fn smoke(&self) -> bool {
        self.scale == Scale::Smoke
    }

    /// Probe iterations: enough at full scale that a probe runs for tens of
    /// milliseconds, a token amount at smoke scale.
    pub fn probe_iters(&self) -> usize {
        if self.smoke() {
            2_000
        } else {
            200_000
        }
    }
}

/// Host seconds one set-up sample should last at least. A single set-up of
/// the small workload takes half a millisecond, which on a shared host is
/// a reading of the scheduler; a sample is therefore a batch of set-ups,
/// back to back, divided by its count.
const SETUP_SAMPLE_SECS: f64 = 0.05;

/// Times set-ups in samples the caller spreads over the whole run — one
/// before the warm-up, one after every timed rep — so that `setup_s`, their
/// median, spans the host's phases as `ops_per_s` does. Taken back to back
/// before the reps, all the samples of a run sat inside one phase.
pub struct SetupSampler<F> {
    setup: F,
    batch: usize,
    /// Host seconds of one set-up, per sample taken so far.
    pub samples: Vec<f64>,
}

impl<T, F: FnMut(&mut Spans) -> T> SetupSampler<F> {
    /// Sizes the batch by one untimed `setup` so that a sample lasts
    /// `SETUP_SAMPLE_SECS` (a single call at smoke scale), and returns that
    /// set-up's products: they are the ones the run uses.
    pub fn new(smoke: bool, spans: &mut Spans, mut setup: F) -> (Self, T) {
        let start = Instant::now();
        let kept = setup(spans);
        let one = start.elapsed().as_secs_f64();
        let batch = if smoke {
            1
        } else {
            ((SETUP_SAMPLE_SECS / one.max(1e-9)).ceil() as usize).clamp(1, 1024)
        };
        let sampler = SetupSampler {
            setup,
            batch,
            samples: Vec::new(),
        };
        (sampler, kept)
    }

    /// Takes one sample: a batch of set-ups, each one's products dropped
    /// before the next is made, and all of them before a rep runs, so the
    /// peak RSS of a rep never holds a second set-up.
    pub fn sample(&mut self, spans: &mut Spans) {
        let start = Instant::now();
        for _ in 0..self.batch {
            drop((self.setup)(spans));
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / self.batch as f64);
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations the run tried: playbacks, and frames of the wire probes.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed verify check.
    pub failures: Vec<String>,
    /// Host seconds of each timed rep, in order: the result file keeps
    /// them, so that another statistic can be tried on runs already made.
    pub rep_seconds: Vec<f64>,
    values: Vec<(&'static str, f64)>,
    /// Rep-level samples behind a host-time metric, in the metric's unit.
    samples: Vec<(&'static str, Summary)>,
}

impl RunResult {
    /// Records a declared metric; a name outside the table is a bug here.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            table::end_to_end(name).is_some() || table::per_layer(name).is_some(),
            "metric {name} is not in the table"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.values.push((name, value));
    }

    fn set_summarized(&mut self, name: &'static str, summary: Summary, value: f64) {
        self.set(name, value);
        self.samples.push((name, summary));
    }

    /// Records a metric as the median of `samples`, keeping their summary.
    pub fn set_median(&mut self, name: &'static str, samples: &[f64]) {
        let summary = summarize(samples);
        self.set_summarized(name, summary, summary.median);
    }

    /// Records a throughput: `work` per rep over the host seconds of all
    /// the reps together. The whole measured window is the sample, so a
    /// host phase shorter than the run is averaged over where the median
    /// rep would land on one side of it (README, *Measured spread*). The
    /// summary kept beside it is of the reps' own throughputs.
    pub fn set_throughput(&mut self, name: &'static str, work: f64, rep_times: &[f64]) {
        let per_rep: Vec<f64> = rep_times.iter().map(|s| work / s).collect();
        let total: f64 = rep_times.iter().sum();
        self.set_summarized(
            name,
            summarize(&per_rep),
            work * rep_times.len() as f64 / total,
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn summary(&self, name: &str) -> Option<Summary> {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Runs `rep` until `seconds` of measuring have passed, at least `min_reps`
/// times, and returns the host seconds each rep reports for its timed
/// part (checks a rep makes after its clock stops are not measured). The
/// loop stops where one more rep would overshoot `seconds` by more than it
/// undershoots now.
pub fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let secs = rep();
        times.push(secs);
        total += secs;
        let mean = total / times.len() as f64;
        if times.len() >= min_reps && total + mean / 2.0 >= seconds {
            return times;
        }
    }
}

/// SplitMix64: the benchmark's own generator, so its inputs depend on the
/// seed alone and not on any generator the program may change.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is far
    /// below anything a timing could show.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`, in
/// kB there), 0 off Linux. The current resident set is
/// `socialtube_obs::current_rss_bytes`.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rep_loop_honours_the_minimum_and_the_clock() {
        let times = timed_reps(0.0, 3, || 1.0);
        assert_eq!(times, [1.0; 3]);
        // 2.0 s asked, 0.5 s reps: four reps land on it exactly.
        assert_eq!(timed_reps(2.0, 1, || 0.5).len(), 4);
        // A fifth 0.7 s rep would overshoot 3.0 s by more than four undershoot.
        assert_eq!(timed_reps(3.0, 1, || 0.7).len(), 4);
    }

    #[test]
    fn set_up_samples_are_batches_of_whole_set_ups() {
        let mut spans = Spans::new(false);
        // Smoke scale: the sizing call, then one set-up per sample.
        let mut calls = 0;
        let (mut sampler, first) = SetupSampler::new(true, &mut spans, |_| {
            calls += 1;
            calls
        });
        sampler.sample(&mut spans);
        sampler.sample(&mut spans);
        assert_eq!((first, sampler.samples.len()), (1, 2));
        drop(sampler);
        assert_eq!(calls, 3);
        // A 2 ms set-up is batched some 25 to a 50 ms sample, and a sample
        // is the time of one set-up.
        let mut calls = 0;
        let (mut sampler, ()) = SetupSampler::new(false, &mut spans, |_| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        sampler.sample(&mut spans);
        assert!(
            (0.002..0.02).contains(&sampler.samples[0]),
            "{:?}",
            sampler.samples
        );
        drop(sampler);
        assert!((1 + 2..=1 + 25).contains(&calls), "{calls}");
    }

    #[test]
    fn generator_repeats_for_a_seed_and_permutes() {
        let a: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(9);
            (0..4).map(|_| r.next()).collect()
        };
        assert_eq!(a, b);
        let mut order = Rng::new(3).permutation(50);
        assert_ne!(order, (0..50).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn result_rejects_undeclared_and_duplicate_metrics() {
        let mut r = RunResult::default();
        r.set_median("setup_s", &[1.0, 3.0, 2.0]);
        assert_eq!(r.get("setup_s"), Some(2.0));
        assert_eq!(r.summary("setup_s").map(|s| s.n), Some(3));
        assert!(std::panic::catch_unwind(move || r.set("setup_s", 1.0)).is_err());
        // A throughput is all the work over all the time, not the median
        // rep's: 3 x 100 ops in 1 + 1 + 2 s.
        let mut r = RunResult::default();
        r.set_throughput("ops_per_s", 100.0, &[1.0, 1.0, 2.0]);
        assert_eq!(r.get("ops_per_s"), Some(75.0));
        assert_eq!(r.summary("ops_per_s").map(|s| s.median), Some(100.0));
        let mut r = RunResult::default();
        assert!(std::panic::catch_unwind(move || r.set("no.such.metric", 1.0)).is_err());
    }
}
