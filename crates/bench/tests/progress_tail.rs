//! A single-figure binary never reaches the end-of-sweep profile, so
//! its progress stream is complete only if the executor flushes it.
//! `fig07` at Default scale must leave one `"kind":"sim"` heartbeat
//! per executed simulation in `EHSIM_PROGRESS`.

use ehsim_obs::{parse_progress_line, ProgressLine};
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn a_figure_binary_leaves_one_heartbeat_per_executed_sim() {
    // The binary writes results/fig07.tsv under its working directory.
    let dir = std::env::temp_dir().join(format!("ehsim_progress_tail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let progress = dir.join("p.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig07"));
    cmd.current_dir(&dir).env("EHSIM_PROGRESS", &progress);
    // No result store (its hits would not be executed sims) and no
    // timelines.
    for knob in ehsim_bench::KNOBS {
        if knob != "EHSIM_PROGRESS" && knob != "EHSIM_JOBS" {
            cmd.env_remove(knob);
        }
    }
    let out = cmd.output().expect("spawn fig07");
    assert!(
        out.status.success(),
        "fig07 failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&progress).expect("read the progress stream");
    let mut sims = BTreeSet::new();
    for line in text.lines() {
        match parse_progress_line(line).expect("every line parses") {
            ProgressLine::Sim(h) => {
                assert!(
                    sims.insert((h.design, h.trace, h.workload)),
                    "one heartbeat per simulation"
                );
            }
            other => panic!("a figure binary writes only heartbeats, got {other:?}"),
        }
    }
    // Fig 7 simulates NVSRAM(ideal) and WL-Cache on tr.1 over the 23
    // kernels, with no job twice.
    assert_eq!(sims.len(), 2 * 23, "{} heartbeats on disk", sims.len());
    let _ = std::fs::remove_dir_all(&dir);
}
