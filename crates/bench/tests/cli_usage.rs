//! The experiment binaries refuse flags they do not know, with exit code 2,
//! instead of running their default mode: a script that still passes a
//! flag that went away (`--mux`, the real-socket tables) must fail loudly.

use std::process::Command;

#[test]
fn appscen_rejects_an_unknown_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_appscen"))
        .arg("--mux")
        .output()
        .expect("appscen runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no table was printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --mux"));
}

#[test]
fn expt_rejects_an_unknown_flag_before_writing_the_ledger() {
    let dir = std::env::temp_dir().join(format!("expt-unknown-flag-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_expt"))
        .args(["--report", "--mux", "--out"])
        .arg(&dir)
        .output()
        .expect("expt runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --mux"));
    assert!(!dir.join("EXPERIMENTS.md").exists(), "nothing was written");
}
