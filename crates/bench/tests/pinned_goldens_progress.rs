//! The pinned Small-scale figure goldens (`goldens/mod.rs`) with the
//! progress stream on. Telemetry only observes, so the figures must
//! hash to the same goldens as with it off. A test binary
//! of its own: the stream is process-wide and cannot be closed again.

use ehsim_obs::{parse_progress_line, ProgressLine};

mod goldens;

#[test]
fn small_scale_figures_are_pinned_with_the_progress_stream_on() {
    let path = std::env::temp_dir().join(format!(
        "ehsim_goldens_progress_{}.jsonl",
        std::process::id()
    ));
    assert!(
        ehsim_bench::telemetry::init_progress_path(&path).expect("open the progress stream"),
        "a progress stream was already open"
    );
    goldens::assert_small_scale_figures_are_pinned();
    let log = std::fs::read_to_string(&path).expect("read the progress stream");
    let sims = log
        .lines()
        .filter(|l| matches!(parse_progress_line(l), Ok(ProgressLine::Sim(_))))
        .count();
    assert!(sims > 0, "the goldens ran with no heartbeat on the stream");
    let _ = std::fs::remove_file(&path);
}
