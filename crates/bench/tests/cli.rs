//! The `experiments` binary's command line: a name it does not know is
//! an error, never a silent run of nothing.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    for args in [&["load"][..], &["service"], &["table1", "gc"], &["--quik"]] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}

#[test]
fn known_experiment_runs() {
    let out = experiments(&["table1", "--quick"]);
    assert!(out.status.success(), "table1 --quick failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("== Table 1"), "{stdout}");
}
