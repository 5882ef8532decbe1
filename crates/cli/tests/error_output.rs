//! What the binary prints on failure: usage follows a parse error
//! only, so a run-time error stays one line and never scrolls away.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ehsim-cli"))
        .args(args)
        .output()
        .expect("ehsim-cli runs")
}

#[test]
fn run_time_error_is_one_line_without_usage() {
    let out = cli(&["diff-traces", "no-such-a.jsonl", "no-such-b.jsonl"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr.lines().count(), 1, "stderr:\n{stderr}");
    assert!(stderr.starts_with("error: "), "stderr:\n{stderr}");
    assert!(stderr.contains("no-such-a.jsonl"), "stderr:\n{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn parse_error_is_followed_by_usage() {
    let out = cli(&["run", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.starts_with("error: "), "stderr:\n{stderr}");
    assert!(stderr.contains(ehsim_cli::USAGE), "stderr:\n{stderr}");
}
