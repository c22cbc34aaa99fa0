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
