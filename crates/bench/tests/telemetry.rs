//! End-to-end pin for the sweep telemetry: a small batch through the
//! shared executor with a progress stream attached must emit exactly
//! one JSONL heartbeat per *executed* simulation (none for memoized
//! entries) after one metadata line, every line parseable by the
//! shared schema, with the stream's in-memory buffer staying bounded.
//!
//! The heartbeats are the sweep's one timing source, so the metrics
//! registry's `sim_elapsed_us` histogram must hold exactly the
//! heartbeats' times, and the registry's `settle_windows` counter
//! exactly the windows that solo runs of the same jobs settle.
//!
//! Telemetry globals are process-wide, so this file keeps a single
//! test function; counters are compared as deltas.

use ehsim::{ObserverBox, SimConfig, Simulator};
use ehsim_bench::{exec, telemetry};
use ehsim_energy::TraceKind;
use ehsim_obs::{parse_progress_line, MetricValue, MetricsRegistry, ProgressLine};
use ehsim_workloads::Scale;

/// `(count, sum)` of the registry's `sim_elapsed_us` histogram.
fn elapsed_us(m: &MetricsRegistry) -> (u64, u128) {
    match m.get("sim_elapsed_us") {
        Some(MetricValue::Histogram(h)) => (h.count(), h.sum()),
        None => (0, 0),
        Some(other) => panic!("sim_elapsed_us is {other:?}"),
    }
}

fn counter(m: &MetricsRegistry, name: &str) -> u64 {
    match m.get(name) {
        Some(MetricValue::Counter(c)) => *c,
        other => panic!("{name} is {other:?}"),
    }
}

#[test]
fn progress_stream_emits_one_heartbeat_per_executed_sim() {
    let path = std::env::temp_dir().join("ehsim_bench_test_progress.jsonl");
    let _ = std::fs::remove_file(&path);
    let fresh = telemetry::init_progress_path(&path).expect("create progress stream");
    assert!(fresh, "first writer claims the stream");
    telemetry::emit_meta("small");

    let before = exec::stats();
    let registry_before = telemetry::registry();
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
    // contains exactly one meta line and one heartbeat per executed
    // sim (`run_batch` flushed it).
    let text = std::fs::read_to_string(&path).expect("read stream back");
    let mut metas = 0usize;
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
        }
    }
    assert_eq!(metas, 1, "one metadata line");
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

    // One timing source: the registry's histogram took exactly the
    // heartbeats' times, each floored to whole microseconds.
    let registry = telemetry::registry();
    let (count0, sum0) = elapsed_us(&registry_before);
    let (count, sum) = elapsed_us(&registry);
    assert_eq!(count - count0, executed, "one histogram sample per sim");
    let heartbeat_us: u128 = sims.iter().map(|h| u128::from(h.elapsed_ns / 1_000)).sum();
    assert_eq!(sum - sum0, heartbeat_us, "registry and stream agree");

    // The settle-window counter holds exactly what solo runs of the
    // executed jobs settle: the first three jobs, the fourth being the
    // memoized duplicate.
    assert_eq!(executed, 3, "the three distinct jobs ran");
    let solo: u64 = jobs[..3]
        .iter()
        .map(|job| {
            let w = &ehsim_workloads::all23(job.scale)[job.workload];
            let (_, machine) = Simulator::new(job.cfg.clone())
                .run_with(w.as_ref(), ObserverBox::Noop)
                .expect("solo run");
            machine.settle_windows()
        })
        .sum();
    assert!(solo > 0);
    let settled =
        counter(&registry, "settle_windows") - counter(&registry_before, "settle_windows");
    assert_eq!(settled, solo, "settle windows of the executed sims");
    assert_eq!(exec::stats().settle_windows - before.settle_windows, solo);

    let _ = std::fs::remove_file(&path);
}
