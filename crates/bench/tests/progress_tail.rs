//! A binary that saves one table outside `figures::sweep` writes no
//! meta line and has no end-of-sweep step, so its progress stream is
//! complete only if the executor flushes it. `ablation_wbuf` at Default
//! scale must leave one `"kind":"sim"` heartbeat per executed
//! simulation in `EHSIM_PROGRESS`.

use ehsim_obs::{parse_progress_line, ProgressLine};
use std::collections::BTreeSet;
use std::process::Command;

#[test]
fn a_figure_binary_leaves_one_heartbeat_per_executed_sim() {
    // The binary writes results/ablation_wbuf.tsv under its working
    // directory.
    let dir = std::env::temp_dir().join(format!("ehsim_progress_tail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let progress = dir.join("p.jsonl");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ablation_wbuf"));
    cmd.current_dir(&dir).env("EHSIM_PROGRESS", &progress);
    // No result store (its hits would not be executed sims) and no
    // timelines.
    for knob in ehsim_bench::KNOBS {
        if knob != "EHSIM_PROGRESS" && knob != "EHSIM_JOBS" {
            cmd.env_remove(knob);
        }
    }
    let out = cmd.output().expect("spawn ablation_wbuf");
    assert!(
        out.status.success(),
        "ablation_wbuf failed: {}",
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
    // The ablation simulates NVSRAM(ideal), WL-Cache and WBuf-Cache
    // with no outages and on tr.1 over the 23 kernels, with no job
    // twice.
    assert_eq!(sims.len(), 6 * 23, "{} heartbeats on disk", sims.len());
    let _ = std::fs::remove_dir_all(&dir);
}
