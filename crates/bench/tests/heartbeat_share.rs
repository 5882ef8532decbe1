//! Heartbeat attribution under lockstep groups: the executor charges
//! each grouped simulation its share of the group's wall time, so the
//! heartbeats' `elapsed_ns` add up to no more than the workers' time.
//! Were every member charged the whole group, a group of eight would
//! count its time eight times over (and `ehsim-analyze profile-sweep`
//! would overstate each design's `sim_wall_s`).
//!
//! Telemetry globals are process-wide, so this file keeps a single
//! test function.

use ehsim::SimConfig;
use ehsim_bench::{exec, telemetry};
use ehsim_energy::TraceKind;
use ehsim_obs::{parse_progress_line, ProgressLine};
use ehsim_workloads::Scale;

#[test]
fn heartbeat_times_sum_to_at_most_workers_times_wall() {
    let path = std::env::temp_dir().join(format!(
        "ehsim_bench_heartbeat_share_{}.jsonl",
        std::process::id()
    ));
    assert!(telemetry::init_progress_path(&path).expect("create progress stream"));

    // Two small kernels, eight configurations each: two full groups.
    let mut cfgs: Vec<SimConfig> = SimConfig::all_designs()
        .into_iter()
        .map(|c| c.with_trace(TraceKind::Rf1))
        .collect();
    cfgs.push(SimConfig::wl_cache_dyn().with_trace(TraceKind::Rf1));
    cfgs.push(SimConfig::nvsram());
    cfgs.push(SimConfig::wl_cache());
    let batch: Vec<exec::Job> = [0, 12]
        .iter()
        .flat_map(|&w| {
            cfgs.iter()
                .map(move |c| exec::Job::new(c.clone(), w, Scale::Small))
        })
        .collect();

    let before = exec::stats();
    let start_ns = telemetry::now_ns();
    exec::run_batch(&batch);
    let wall_ns = telemetry::now_ns() - start_ns;
    let executed = exec::stats().sims_run - before.sims_run;
    assert_eq!(executed, batch.len() as u64);

    // `run_batch` flushed the stream: every heartbeat is on disk
    // without an end-of-sweep profile.
    let text = std::fs::read_to_string(&path).expect("read stream back");
    let elapsed: Vec<u64> = text
        .lines()
        .filter_map(
            |l| match parse_progress_line(l).expect("every line parses") {
                ProgressLine::Sim(h) => Some(h.elapsed_ns),
                _ => None,
            },
        )
        .collect();
    assert_eq!(elapsed.len() as u64, executed);
    let sum: u64 = elapsed.iter().sum();
    let workers = exec::jobs() as u64;
    assert!(
        sum <= workers * wall_ns,
        "heartbeats sum to {sum} ns, more than {workers} workers x {wall_ns} ns of wall"
    );
    let _ = std::fs::remove_file(&path);
}
