//! Regenerates every table and figure **in-process** (see DESIGN.md §3
//! for the index), so all figures share one worker pool and one memo
//! cache — the NVSRAM baselines and other repeated configurations are
//! simulated exactly once for the whole run.
//!
//! With `--bench`, writes `BENCH_sweep.json` (wall-clock seconds,
//! simulations run vs memoized, simulated instructions/second, worker
//! count, run metadata stamp, and the phase-attribution profile) next
//! to the `results/` directory.
//!
//! The phase profiler is always on here (observation only — it changes
//! no simulated value, and `results/*.tsv` stay byte-identical); set
//! `EHSIM_PROGRESS=<path>` to additionally stream one JSONL heartbeat
//! per completed simulation plus the end-of-run profile line.

use ehsim_bench::{exec, figures, telemetry};
use ehsim_workloads::Scale;

fn main() {
    let bench = std::env::args().any(|a| a == "--bench");
    let run = figures::sweep(figures::ALL, Scale::Default);
    let (stats, profile) = (&run.stats, &run.profile);
    let wall = run.wall_ns as f64 / 1e9;
    let ips = stats.simulated_instructions as f64 / wall;
    eprintln!(
        "[all_figures: {wall:.1}s wall, {} sims run, {} memoized, {} workers, \
         {ips:.2e} simulated instr/s]",
        stats.sims_run,
        stats.memo_hits,
        exec::jobs(),
    );
    eprintln!(
        "[profile: {:.1}% of wall attributed to named phases; top self-time: {}]",
        profile.attributed_pct,
        run.top_phases(),
    );
    if bench {
        let phases_json: Vec<String> = profile
            .phases
            .iter()
            .map(|p| {
                format!(
                    "    {{\"phase\": \"{}\", \"total_ns\": {}, \"self_ns\": {}, \"count\": {}, \"ops\": {}}}",
                    p.phase, p.total_ns, p.self_ns, p.count, p.ops
                )
            })
            .collect();
        // A committed jobs:1 capture is only honest if the reader can
        // tell whether 1 was a choice or the hardware ceiling.
        let jobs_note = if exec::jobs() <= 1 && telemetry::host_cores() <= 1 {
            "jobs pinned to 1: the measurement host has a single core"
        } else {
            "jobs follow EHSIM_JOBS (default: host cores)"
        };
        let json = format!(
            "{{\n  \"wall_clock_seconds\": {wall:.3},\n  \"jobs\": {},\n  \"jobs_note\": \"{jobs_note}\",\n  \"engine\": \"{}\",\n  \"sims_run\": {},\n  \"memo_hits\": {},\n  \"simulated_instructions\": {},\n  \"simulated_instructions_per_second\": {ips:.1},\n  \"meta\": {},\n  \"profile\": {{\n    \"attributed_pct\": {:.2},\n  \"phases\": [\n{}\n  ]\n  }},\n  \"metrics\": {}\n}}\n",
            exec::jobs(),
            exec::ENGINE,
            stats.sims_run,
            stats.memo_hits,
            stats.simulated_instructions,
            telemetry::meta_json("  ", "default"),
            profile.attributed_pct,
            phases_json.join(",\n"),
            telemetry::registry().to_json("  "),
        );
        match std::fs::write("BENCH_sweep.json", &json) {
            Ok(()) => eprintln!("[saved BENCH_sweep.json]"),
            Err(e) => eprintln!("[could not write BENCH_sweep.json: {e}]"),
        }
    }
}
