//! The `campaign` bin from the outside: exit codes and the files it leaves.

use std::process::Command;

#[test]
fn zero_seeds_exits_2_before_any_work() {
    let cwd = std::env::temp_dir().join(format!("socialtube-campaign-cli-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--seeds", "0"])
        .current_dir(&cwd)
        .output()
        .expect("campaign runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no cell ran");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds"));
    assert!(
        !cwd.join("target/campaign.json").exists(),
        "no report was written"
    );
    std::fs::remove_dir_all(cwd).ok();
}
