//! Custom-observer cookbook: streaming a trace with constant memory.
//!
//! The in-memory [`Recorder`] behind `Simulator::run_traced` keeps the
//! whole timeline in RAM — fine for a paper kernel, wasteful for a
//! long-horizon sensor run. This recipe streams the same timeline to
//! disk as JSON-lines through the bounded-buffer `StreamingObserver`,
//! proves the buffer never grew past its capacity, then reloads the
//! file as a `RunTrace` and diffs it against itself (the
//! command-line twin is `ehsim-cli run --stream-out` followed by
//! `ehsim-cli diff-traces`).
//!
//! ```sh
//! cargo run --release --example streaming_trace
//! ```

use wl_cache_repro::ehsim_obs::{
    diff_runs, render_diff, StreamingObserver, DEFAULT_STREAM_CAPACITY,
};
use wl_cache_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = all23(Scale::Small)
        .into_iter()
        .find(|w| w.name() == "FFT_i")
        .ok_or("FFT_i kernel missing")?;

    let path = std::env::temp_dir().join("streaming_trace_example.jsonl");
    let observer = StreamingObserver::to_path(&path)?;
    // The observer is consumed by the machine; a shared stats handle
    // survives it (same pattern as examples/invariant_observer.rs).
    let stats = observer.stats_handle();

    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, _machine) =
        Simulator::new(cfg).run_with(workload.as_ref(), ObserverBox::custom(observer))?;

    let snap = stats.lock().map_err(|_| "stream stats poisoned")?.clone();
    if let Some(err) = snap.io_error {
        return Err(format!("stream error: {err}").into());
    }
    println!(
        "{} on {}: {} outages, {} events streamed to {}",
        report.workload,
        report.design,
        report.outages,
        snap.events,
        path.display()
    );
    println!(
        "peak buffer {} of capacity {} ({} flushes) — constant memory",
        snap.peak_buffered, DEFAULT_STREAM_CAPACITY, snap.flushes
    );

    // The streamed file is a complete, lossless record: reload it and
    // diff it against itself. Any real A/B experiment replaces one side
    // with a second capture.
    let run = RunTrace::load(&path.display().to_string())?;
    assert_eq!(run.counters, snap.counters, "stream reconciles losslessly");
    let diff = diff_runs(&run, "capture", &run, "capture");
    print!("{}", render_diff(&diff, &run, &run));

    std::fs::remove_file(&path)?;
    Ok(())
}
