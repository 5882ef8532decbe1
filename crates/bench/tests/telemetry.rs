//! End-to-end pin for the sweep telemetry subsystem: a small batch
//! through the shared executor with a progress stream attached must
//! emit exactly one JSONL heartbeat per *executed* simulation (none
//! for memoized entries), bracketed by one metadata line and one
//! end-of-sweep profile line, every line parseable by the shared
//! schema, with the stream's in-memory buffer staying bounded.
//!
//! Telemetry globals are process-wide, so this file keeps a single
//! test function; counters are compared as deltas.

use ehsim::SimConfig;
use ehsim_bench::{exec, telemetry};
use ehsim_energy::TraceKind;
use ehsim_obs::{parse_progress_line, ProgressLine};
use ehsim_workloads::Scale;

#[test]
fn progress_stream_emits_one_heartbeat_per_executed_sim() {
    let path = std::env::temp_dir().join("ehsim_bench_test_progress.jsonl");
    let _ = std::fs::remove_file(&path);
    let fresh = telemetry::init_progress_path(&path).expect("create progress stream");
    assert!(fresh, "first writer claims the stream");
    telemetry::emit_meta("small");

    let before = exec::stats();
    let start_ns = telemetry::now_ns();
    let jobs = vec![
        exec::Job::new(
            SimConfig::wl_cache().with_trace(TraceKind::Rf1),
            0,
            Scale::Small,
        ),
        exec::Job::new(
            SimConfig::wl_cache().with_trace(TraceKind::Rf1),
            1,
            Scale::Small,
        ),
        exec::Job::new(
            SimConfig::nvsram().with_trace(TraceKind::Rf1),
            0,
            Scale::Small,
        ),
        // Exact duplicate of the first job: memoized, no heartbeat.
        exec::Job::new(
            SimConfig::wl_cache().with_trace(TraceKind::Rf1),
            0,
            Scale::Small,
        ),
    ];
    let reports = exec::run_batch(&jobs);
    assert_eq!(reports.len(), jobs.len());
    assert_eq!(
        reports[0], reports[3],
        "duplicate jobs share one simulation"
    );
    let after = exec::stats();
    let executed = after.sims_run - before.sims_run;
    let memoized = after.memo_hits - before.memo_hits;
    assert!(executed >= 1, "at least one simulation actually ran");
    assert!(memoized >= 1, "the duplicate job was memoized");

    let wall_ns = telemetry::now_ns().saturating_sub(start_ns);
    let profile = telemetry::finish_sweep(wall_ns);
    assert!(profile.wall_ns > 0);

    // Bounded memory: the buffer never held more lines than its
    // configured capacity (peak is recorded post-flush, so it stays
    // strictly below the bound), and nothing was dropped.
    {
        let stream = telemetry::progress().expect("stream is attached");
        let guard = stream.lock().expect("stream lock");
        let stats = guard.stats();
        assert!(
            stats.peak_buffered < guard.capacity(),
            "peak {} must stay under capacity {}",
            stats.peak_buffered,
            guard.capacity()
        );
        assert_eq!(stats.dropped_lines, 0);
        assert_eq!(stats.io_error, None);
        assert_eq!(stats.heartbeats, executed, "stream-side heartbeat tally");
    }

    // Schema round-trip: every line in the file parses, and the stream
    // contains exactly one meta line, one profile line, and one
    // heartbeat per executed sim.
    let text = std::fs::read_to_string(&path).expect("read stream back");
    let mut metas = 0usize;
    let mut profiles = 0usize;
    let mut sims = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match parse_progress_line(line).expect("every line parses") {
            ProgressLine::Meta(m) => {
                metas += 1;
                assert_eq!(m.scale, "small");
                assert!(m.jobs >= 1);
                assert!(m.host_cores >= 1);
            }
            ProgressLine::Sim(h) => sims.push(h),
            ProgressLine::Profile(p) => {
                profiles += 1;
                assert_eq!(p.wall_ns, profile.wall_ns);
            }
        }
    }
    assert_eq!(metas, 1, "one metadata line");
    assert_eq!(profiles, 1, "one end-of-sweep profile line");
    assert_eq!(
        sims.len() as u64,
        executed,
        "one heartbeat per executed sim, none for memoized entries"
    );
    let mut ordinals: Vec<u64> = sims.iter().map(|h| h.ordinal).collect();
    ordinals.sort_unstable();
    assert_eq!(
        ordinals,
        (1..=executed).collect::<Vec<u64>>(),
        "ordinals are unique and contiguous"
    );
    for h in &sims {
        assert!(h.elapsed_ns > 0, "sim clock ticked");
        assert!(h.instructions > 0);
        assert!(!h.design.is_empty() && !h.workload.is_empty() && !h.trace.is_empty());
    }

    // The profiler attributed the executed sims to a named phase and
    // harvested settlement-window op counts from the machines.
    let sim_self: u64 = profile
        .phases
        .iter()
        .filter(|p| p.phase == "direct-sim")
        .map(|p| p.self_ns)
        .sum();
    assert!(sim_self > 0, "sim execution phase has self time");
    let settle_ops: u64 = profile
        .phases
        .iter()
        .filter(|p| p.phase == "settle")
        .map(|p| p.ops)
        .sum();
    assert!(settle_ops > 0, "settlement windows were counted");

    let _ = std::fs::remove_file(&path);
}
