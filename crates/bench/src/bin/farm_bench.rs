//! Cold-vs-warm benchmark of the persistent result store
//! (`EHSIM_RESULT_STORE`), written to `BENCH_farm.json`.
//!
//! The store's value proposition is cross-*process* reuse (a later
//! sweep process, even one started after a `kill -9`, resumes warm), so
//! the in-memory memo cache must not be allowed to pollute the
//! measurement: the parent re-execs itself as a `--child` once against
//! an empty store (cold: every sim executes and persists) and once
//! against the now-warm store (warm: every sim is served from disk).
//! Each child regenerates the full Small-scale figure sweep and reports
//! its executor counter deltas as one JSON line on stdout; the parent
//! times the children wall-clock, checks the warm run executed *zero*
//! simulations, and records the speedup.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a harness binary, exempt like ehsim-bench's library (L004)"
)]

use ehsim_bench::{figures, telemetry};
use ehsim_workloads::Scale;
use std::time::Instant;

fn child() {
    let st = figures::sweep(figures::ALL, Scale::Small).stats;
    // Single machine-readable line, last on stdout; the figure tables
    // themselves went to stdout above, so tag it for the parent.
    println!(
        "FARM_BENCH {{\"sims_run\": {}, \"memo_hits\": {}, \"store_hits\": {}, \
         \"store_misses\": {}, \"store_rejects\": {}}}",
        st.sims_run, st.memo_hits, st.store_hits, st.store_misses, st.store_rejects
    );
}

/// Picks `"key": <u64>` out of the child's FARM_BENCH line.
fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in {line}: {e}"))
}

/// Runs one child sweep against `store`, returning (seconds, counters
/// line). The child runs in `workdir` so its `results/small/*.tsv` land
/// in the scratch directory, not under the caller's working directory.
fn run_child(
    exe: &std::path::Path,
    store: &std::path::Path,
    workdir: &std::path::Path,
) -> (f64, String) {
    let started = Instant::now();
    let out = std::process::Command::new(exe)
        .arg("--child")
        .env("EHSIM_RESULT_STORE", store)
        .current_dir(workdir)
        .output()
        .expect("spawn farm_bench --child");
    let secs = started.elapsed().as_secs_f64();
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("FARM_BENCH "))
        .expect("child printed no FARM_BENCH line")
        .to_string();
    (secs, line)
}

fn main() {
    if std::env::args().any(|a| a == "--child") {
        child();
        return;
    }
    let exe = std::env::current_exe().expect("own executable path");
    let scratch = std::env::temp_dir().join(format!("ehsim-farm-bench-{}", std::process::id()));
    let store = scratch.join("store");
    let workdir = scratch.join("work");
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&workdir).expect("create scratch workdir");

    eprintln!("[farm_bench: cold child (empty store {})]", store.display());
    let (cold_secs, cold) = run_child(&exe, &store, &workdir);
    eprintln!("[farm_bench: warm child (reusing the store)]");
    let (warm_secs, warm) = run_child(&exe, &store, &workdir);
    let _ = std::fs::remove_dir_all(&scratch);

    let cold_sims = field(&cold, "sims_run");
    let cold_misses = field(&cold, "store_misses");
    let warm_sims = field(&warm, "sims_run");
    let warm_hits = field(&warm, "store_hits");
    assert!(cold_sims > 0, "cold child executed nothing: {cold}");
    assert_eq!(
        warm_sims, 0,
        "warm child re-executed sims despite a warm store: {warm}"
    );
    assert_eq!(
        warm_hits, cold_misses,
        "every cold store miss must be a warm store hit"
    );
    let speedup = cold_secs / warm_secs.max(1e-9);
    eprintln!(
        "[farm_bench: cold {cold_secs:.3}s ({cold_sims} sims), warm {warm_secs:.3}s \
         ({warm_hits} store hits), {speedup:.1}x]"
    );
    if speedup < 10.0 {
        eprintln!("[farm_bench: WARNING — warm run is less than 10x faster]");
    }

    let json = format!(
        "{{\n  \"scale\": \"small\",\n  \"figures\": {},\n  \
         \"cold_seconds\": {cold_secs:.3},\n  \"warm_seconds\": {warm_secs:.3},\n  \
         \"warm_speedup\": {speedup:.1},\n  \"cold_sims_run\": {cold_sims},\n  \
         \"cold_store_misses\": {cold_misses},\n  \"warm_sims_run\": {warm_sims},\n  \
         \"warm_store_hits\": {warm_hits},\n  \"meta\": {}\n}}\n",
        figures::ALL.len(),
        telemetry::meta_json("  ", "small"),
    );
    match std::fs::write("BENCH_farm.json", &json) {
        Ok(()) => eprintln!("[saved BENCH_farm.json]"),
        Err(e) => eprintln!("[could not write BENCH_farm.json: {e}]"),
    }
}
