//! The `ehsim-verify` binary end to end: the `--smoke` run summary CI
//! relies on, and the usage errors (exit 2) for the spellings the CLI
//! rejects.

use std::process::{Command, Output};

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn verify(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ehsim-verify"))
        .args(args)
        .output()
        .expect("ehsim-verify runs")
}

/// The smoke budget (depth 8, 150k states) explores exactly these
/// states; any change to the explorer or the protocol model moves them.
/// The summary carries exactly the serial explorer's fields.
#[test]
fn smoke_json_summary_is_pinned() {
    let out = verify(&["model-check", "--smoke", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let json = String::from_utf8(out.stdout).expect("utf-8 summary");
    let keys: Vec<&str> = json
        .lines()
        .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
        .collect();
    assert_eq!(
        keys,
        [
            "dedup_hits",
            "depth_reached",
            "holds",
            "model",
            "states",
            "transitions",
            "truncated"
        ],
        "{json}"
    );
    for field in [
        "\"states\": 143866",
        "\"transitions\": 400082",
        "\"dedup_hits\": 256217",
        "\"depth_reached\": 8",
        "\"holds\": true",
        "\"truncated\": true",
    ] {
        assert!(json.contains(field), "missing {field} in:\n{json}");
    }
}

/// The write-back protocol is the only model: a model name after
/// `model-check` (including the retired multi-core one) is rejected, as
/// is `--smoke` with an explicit budget in either order.
#[test]
fn removed_and_conflicting_spellings_are_usage_errors() {
    for args in [
        &["model-check", "coherence"][..],
        &["model-check", "writeback"],
        &["model-check", "--depth", "20", "--smoke"],
        &["model-check", "--smoke", "--depth", "20"],
        &["model-check", "--max-states", "10", "--smoke"],
    ] {
        let out = verify(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
