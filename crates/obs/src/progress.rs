//! Streaming campaign progress: an NDJSON flight recorder.
//!
//! A campaign of many runs is a black box until it exits. A
//! [`ProgressSink`] fixes that: the campaign runner calls
//! [`ProgressSink::emit_cell`] as each run completes, and the sink appends
//! one JSON object per line to a file — cells done, cumulative
//! events, resident set size, ETA — so progress can be tailed live and a
//! killed campaign still leaves its last line behind.
//!
//! The sink only *reads* run state and writes to its own output; it never
//! feeds anything back into the simulation, so enabling it cannot perturb
//! a run (wall-clock values stay out of every deterministic field).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use crate::json::Value;

/// Configuration for a [`ProgressSink`]: the file its lines go to.
#[derive(Clone, Debug)]
pub struct ProgressConfig {
    /// Appended to, and created if missing. Appending — rather than
    /// truncating — lets several campaigns share one flight-recorder log.
    pub(crate) path: PathBuf,
}

impl ProgressConfig {
    /// Lines appended to `path`.
    pub fn to_file(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }
}

/// Appends NDJSON progress lines to a [`ProgressConfig`]'s file.
///
/// # Examples
///
/// ```no_run
/// use socialtube_obs::{ProgressConfig, ProgressSink};
///
/// let mut sink = ProgressSink::new(ProgressConfig::to_file("progress.ndjson")).unwrap();
/// // As each of 10 runs completes:
/// sink.emit_cell(1, 10, 12_345);
/// ```
#[derive(Debug)]
pub struct ProgressSink {
    out: BufWriter<File>,
    started: Instant,
}

impl ProgressSink {
    /// Opens the sink's file. Fails only when it cannot be written.
    pub fn new(config: ProgressConfig) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(config.path)?;
        Ok(Self {
            out: BufWriter::new(file),
            started: Instant::now(),
        })
    }

    /// Appends one progress line with campaign-level fields (`cells_done`
    /// of `cells_total`, cumulative events, wall-clock ETA from the mean
    /// cell time): the unit of progress is a completed run.
    pub fn emit_cell(&mut self, done: u64, total: u64, events: u64) {
        let wall_s = self.started.elapsed().as_secs_f64();
        let eta = if done > 0 && total > done {
            wall_s / done as f64 * (total - done) as f64
        } else {
            0.0
        };
        let line = Value::obj([
            ("wall_s", wall_s.into()),
            ("cells_done", done.into()),
            ("cells_total", total.into()),
            ("events", events.into()),
            ("rss_bytes", current_rss_bytes().into()),
            ("eta_s", eta.into()),
        ]);
        // Flush per line so a killed campaign keeps its tail.
        let _ = writeln!(self.out, "{line}");
        let _ = self.out.flush();
    }
}

/// Current resident set size in bytes (`VmRSS` from `/proc/self/status`),
/// or 0 where unavailable.
pub fn current_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "socialtube-obs-progress-{}-{name}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn file_target_appends_valid_lines_across_sinks() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        for done in 1..=2 {
            let mut sink = ProgressSink::new(ProgressConfig::to_file(&path)).expect("open sink");
            sink.emit_cell(done, 2, 100 * done);
        }
        let text = std::fs::read_to_string(&path).expect("progress file");
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("valid NDJSON line");
            assert_eq!(v.get("cells_total").and_then(|t| t.as_u64()), Some(2));
            assert!(v.get("events").is_some());
            assert!(v.get("rss_bytes").is_some());
            assert!(v.get("eta_s").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rss_reads_something_on_linux() {
        // On Linux /proc exists; elsewhere this degrades to 0.
        let rss = current_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0);
        }
    }
}
