//! Regenerates every table and figure **in-process** (see DESIGN.md §3
//! for the index), so all figures share one worker pool and one memo
//! cache — the NVSRAM baselines and other repeated configurations are
//! simulated exactly once for the whole run.
//!
//! With `--bench`, writes `BENCH_sweep.json` (wall-clock seconds,
//! simulations run vs memoized, simulated instructions/second, worker
//! count, run metadata stamp, and the metrics registry with the per-sim
//! heartbeat histograms) next to the `results/` directory.
//!
//! Set `EHSIM_PROGRESS=<path>` to additionally stream one JSONL
//! heartbeat per completed simulation (observation only — it changes
//! no simulated value, and `results/*.tsv` stay byte-identical).

use ehsim_bench::{exec, figures, telemetry};
use ehsim_workloads::Scale;

fn main() {
    let bench = std::env::args().any(|a| a == "--bench");
    let run = figures::sweep(figures::ALL, Scale::Default);
    let stats = &run.stats;
    let wall = run.wall_ns as f64 / 1e9;
    let ips = stats.simulated_instructions as f64 / wall;
    eprintln!(
        "[all_figures: {wall:.1}s wall, {} sims run, {} memoized, {} workers, \
         {ips:.2e} simulated instr/s]",
        stats.sims_run,
        stats.memo_hits,
        exec::jobs(),
    );
    if bench {
        // A committed jobs:1 capture is only honest if the reader can
        // tell whether 1 was a choice or the hardware ceiling.
        let jobs_note = if exec::jobs() <= 1 && telemetry::host_cores() <= 1 {
            "jobs pinned to 1: the measurement host has a single core"
        } else {
            "jobs follow EHSIM_JOBS (default: host cores)"
        };
        let json = format!(
            "{{\n  \"wall_clock_seconds\": {wall:.3},\n  \"jobs\": {},\n  \"jobs_note\": \"{jobs_note}\",\n  \"engine\": \"{}\",\n  \"sims_run\": {},\n  \"memo_hits\": {},\n  \"simulated_instructions\": {},\n  \"simulated_instructions_per_second\": {ips:.1},\n  \"meta\": {},\n  \"metrics\": {}\n}}\n",
            exec::jobs(),
            exec::ENGINE,
            stats.sims_run,
            stats.memo_hits,
            stats.simulated_instructions,
            telemetry::meta_json("  ", "default"),
            telemetry::registry().to_json("  "),
        );
        match std::fs::write("BENCH_sweep.json", &json) {
            Ok(()) => eprintln!("[saved BENCH_sweep.json]"),
            Err(e) => eprintln!("[could not write BENCH_sweep.json: {e}]"),
        }
    }
}
