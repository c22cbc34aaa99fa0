//! `perf agree A B`: do two result sets of one commit (or of a parent and a
//! change) agree within the benchmark's own bounds?
//!
//! `A` is the base of every ratio. Each argument is a result file or a
//! directory of them; files pair up by name, a file without a counterpart
//! on the other side fails the comparison, and a pair that differs in
//! workload, seed, scale or trace is an error. End-to-end metrics get
//! `within`, `outside` or `unresolved` (the reps of either run spread —
//! quartile distance over median — wider than the bound, so the comparison
//! decides nothing); exact per-layer
//! metrics get `same` or `differs`; other per-layer metrics are listed with
//! their ratio only.

use std::path::{Path, PathBuf};

use socialtube_obs::json::{parse, Value};

use crate::table::{self, Better};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Within,
    Outside,
    Unresolved,
    Same,
    Differs,
    Info,
}

impl Verdict {
    fn key(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Outside => "outside",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
            Verdict::Info => "info",
        }
    }

    fn fails(self) -> bool {
        matches!(self, Verdict::Outside | Verdict::Differs)
    }
}

/// Judges one end-to-end metric: `base` and `other` are the two values,
/// `spread` the wider of the two runs' rep spreads.
pub fn judge(better: Better, bound: f64, base: f64, other: f64, spread: f64) -> (Verdict, f64) {
    let worse_by = match better {
        Better::Lower => other / base - 1.0,
        Better::Higher => 1.0 - other / base,
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Outside
    } else {
        Verdict::Within
    };
    (verdict, worse_by)
}

/// One metric of a result file: its value and its reps' spread.
struct Reading {
    value: f64,
    spread: f64,
}

/// What a result file says it ran (`workload seed scale trace`), and its
/// metrics. Two files compare only when they ran the same thing.
fn readings(file: &Path) -> Result<(String, Vec<(String, Reading)>), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let json = parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let mut ran = Vec::new();
    for key in ["workload", "seed", "scale", "trace"] {
        let value = json
            .get(key)
            .ok_or_else(|| format!("{}: no {key}", file.display()))?;
        ran.push(match value {
            Value::Str(s) => s.clone(),
            other => other
                .as_u64()
                .map(|n| format!("{key} {n}"))
                .ok_or_else(|| format!("{}: {key} is neither text nor a count", file.display()))?,
        });
    }
    let ran = ran.join(" ");
    let Some(Value::Obj(metrics)) = json.get("metrics") else {
        return Err(format!("{}: no metrics object", file.display()));
    };
    let mut out = Vec::new();
    for (name, m) in metrics {
        let field = |key: &str| m.get(key).and_then(Value::as_f64);
        let value =
            field("value").ok_or_else(|| format!("{}: {name} has no value", file.display()))?;
        let spread = match (field("q1"), field("q3"), field("median")) {
            (Some(q1), Some(q3), Some(median)) if median != 0.0 => (q3 - q1) / median,
            _ => 0.0,
        };
        out.push((name.clone(), Reading { value, spread }));
    }
    Ok((ran, out))
}

/// The result files an argument names: itself, or every `*.json` in it
/// except the Chrome traces.
fn result_files(arg: &Path) -> Result<Vec<PathBuf>, String> {
    if !arg.is_dir() {
        return Ok(vec![arg.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(arg)
        .map_err(|e| format!("{}: {e}", arg.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".json") && !name.ends_with(".trace.json")
        })
        .collect();
    files.sort();
    Ok(files)
}

/// Compares the two sets, prints one row per shared metric, and returns
/// whether any row failed.
pub fn run(a: &Path, b: &Path) -> Result<bool, String> {
    let mut failed = false;
    let mut rows = 0;
    let name_of = |file: &Path| file.file_name().map(|n| n.to_os_string());
    let files_b = result_files(b)?;
    let mut unpaired: Vec<&PathBuf> = files_b.iter().collect();
    for file_a in result_files(a)? {
        // Two plain files pair whatever they are called.
        let file_b = if a.is_dir() || b.is_dir() {
            files_b.iter().find(|f| name_of(f) == name_of(&file_a))
        } else {
            files_b.first()
        };
        let Some(file_b) = file_b else {
            println!("{} missing in {}", file_a.display(), b.display());
            failed = true;
            continue;
        };
        unpaired.retain(|f| *f != file_b);
        let (ran, base) = readings(&file_a)?;
        let (ran_b, other) = readings(file_b)?;
        if ran != ran_b {
            return Err(format!(
                "{} ran {ran} but {} ran {ran_b}",
                file_a.display(),
                file_b.display()
            ));
        }
        let workload = ran.split(' ').next().unwrap_or_default();
        for (name, x) in &base {
            let Some((_, y)) = other.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let ratio = y.value / x.value;
            let row = |verdict: Verdict, detail: String| {
                println!(
                    "{workload} {name} {} B/A={ratio:.4} (A={}, B={}){detail}",
                    verdict.key(),
                    x.value,
                    y.value
                );
                verdict.fails()
            };
            rows += 1;
            if let Some(m) = table::end_to_end(name) {
                let spread = x.spread.max(y.spread);
                let (verdict, worse_by) = judge(m.better, m.bound, x.value, y.value, spread);
                failed |= row(
                    verdict,
                    format!(
                        " worse_by={:.2}% bound={:.0}% rep_spread={:.2}%",
                        worse_by * 100.0,
                        m.bound * 100.0,
                        spread * 100.0
                    ),
                );
            } else if table::per_layer(name).is_some_and(|m| m.exact) {
                let verdict = if x.value == y.value {
                    Verdict::Same
                } else {
                    Verdict::Differs
                };
                failed |= row(verdict, String::new());
            } else {
                row(Verdict::Info, String::new());
            }
        }
    }
    for file_b in unpaired {
        println!("{} missing in {}", file_b.display(), a.display());
        failed = true;
    }
    if rows == 0 {
        return Err("the two sets share no metric".to_string());
    }
    Ok(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_direction_bound_and_spread() {
        // Lower is better: 8 % slower is within 10 %, 12 % is outside.
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.08, 0.02).0,
            Verdict::Within
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.12, 0.02).0,
            Verdict::Outside
        );
        // Improvements are always within.
        assert_eq!(judge(Better::Lower, 0.1, 1.0, 0.5, 0.02).0, Verdict::Within);
        // Higher is better: the loss is measured against the base.
        let (verdict, worse_by) = judge(Better::Higher, 0.1, 200.0, 170.0, 0.0);
        assert_eq!(verdict, Verdict::Outside);
        assert!((worse_by - 0.15).abs() < 1e-12);
        assert_eq!(
            judge(Better::Higher, 0.1, 200.0, 190.0, 0.0).0,
            Verdict::Within
        );
        // Reps spread wider than the bound: nothing is decided either way.
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.5, 0.3).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Better::Lower, 0.1, 1.0, 1.0, 0.3).0,
            Verdict::Unresolved
        );
    }

    fn result(seed: u64, ops: f64) -> String {
        format!(
            "{{\"workload\": \"sim-scale\", \"seed\": {seed}, \"scale\": \"Full\", \"trace\": 0, \
             \"metrics\": {{\"ops_per_s\": {{\"value\": {ops}, \"unit\": \"1/s\"}}}}}}"
        )
    }

    #[test]
    fn half_a_set_fails_and_a_different_seed_is_an_error() {
        let root = std::env::temp_dir().join(format!("perf-agree-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        for dir in [&a, &b] {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(a.join("sim-scale.json"), result(42, 100.0)).unwrap();
        // Nothing in B, then something only in B: both fail.
        assert_eq!(run(&a, &b), Err("the two sets share no metric".to_string()));
        std::fs::write(b.join("sim-scale.json"), result(42, 90.0)).unwrap();
        assert_eq!(run(&a, &b), Ok(false));
        std::fs::write(b.join("sim-dense.json"), result(42, 1.0)).unwrap();
        assert_eq!(run(&a, &b), Ok(true));
        assert_eq!(run(&b, &a), Ok(true));
        std::fs::remove_file(b.join("sim-dense.json")).unwrap();
        // 40 % slower is outside the bound; another seed is not comparable.
        std::fs::write(b.join("sim-scale.json"), result(42, 60.0)).unwrap();
        assert_eq!(run(&a, &b), Ok(true));
        std::fs::write(b.join("sim-scale.json"), result(7, 100.0)).unwrap();
        assert!(run(&a, &b).unwrap_err().contains("seed 7"));
        // Two plain files pair whatever they are called.
        std::fs::write(root.join("other.json"), result(42, 101.0)).unwrap();
        assert_eq!(
            run(&a.join("sim-scale.json"), &root.join("other.json")),
            Ok(false)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
