//! The `figures` bin from the outside: exit codes and the files it leaves.

use std::process::Command;

fn figures(cwd: &std::path::Path, args: &[&str]) -> std::process::Output {
    std::fs::create_dir_all(cwd).expect("scratch dir");
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("figures runs")
}

#[test]
fn an_unknown_target_exits_2_before_any_work() {
    let cwd = std::env::temp_dir().join(format!("socialtube-figures-cli-{}", std::process::id()));
    let out = figures(&cwd, &["table1", "nosuch"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no target ran");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown target nosuch"));
    assert!(!cwd.join("target").exists(), "nothing was written");

    let out = figures(&cwd, &["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let csv = std::fs::read_to_string(cwd.join("target/figures/table1.csv")).expect("csv");
    assert!(csv.starts_with("parameter,value\nNumber of nodes,10000\n"));
    std::fs::remove_dir_all(cwd).ok();
}

/// A result table prints its header and each row once; the rows are what
/// the CSV holds.
#[test]
fn table1_prints_its_header_and_each_parameter_once() {
    let cwd =
        std::env::temp_dir().join(format!("socialtube-figures-table1-{}", std::process::id()));
    let out = figures(&cwd, &["table1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let header = stdout
        .lines()
        .filter(|l| l.split_whitespace().eq(["parameter", "value"]))
        .count();
    assert_eq!(header, 1, "{stdout}");
    let csv = std::fs::read_to_string(cwd.join("target/figures/table1.csv")).expect("csv");
    let names: Vec<&str> = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').next().unwrap())
        .collect();
    assert_eq!(names.len(), 13);
    for name in names {
        assert_eq!(stdout.matches(name).count(), 1, "{name}: {stdout}");
    }
    std::fs::remove_dir_all(cwd).ok();
}
