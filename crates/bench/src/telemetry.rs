//! Wall-clock wiring for the sweep telemetry.
//!
//! The metrics registry and progress-stream *types* live in `ehsim-obs`
//! (deterministic side, no `std::time` — lint L002); this module reads
//! the wall clock and gives them process-wide homes. A sweep has one
//! timing source, the per-sim heartbeat ([`sim_completed`]): one clock
//! read per lockstep unit, whose time each member is charged its share
//! of. Both outputs carry the same number.
//!
//! * [`progress`] — the process-wide [`ProgressStream`], opened from
//!   `EHSIM_PROGRESS=<path>` on first use or programmatically via
//!   [`init_progress_path`] (`sweep --progress-out`).
//! * [`sim_completed`] — the executor's per-sim hook: assigns the
//!   completion ordinal, records the per-sim instr/s and elapsed
//!   histograms, and emits one [`SimHeartbeat`] line.
//! * [`registry`] — the sweep metrics registry assembled from
//!   [`crate::exec::stats`] and the per-sim histograms.
//! * [`sweep_meta`] / [`meta_json`] — host/run metadata (core count,
//!   `EHSIM_JOBS`, engine, git revision) for the progress stream and
//!   the `BENCH_*.json` stamps.

use crate::{knob, Knob};
use ehsim::Report;
use ehsim_obs::{MetricsRegistry, ProgressStream, SimHeartbeat, SweepMeta};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Nanoseconds since the process-wide telemetry epoch (the first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // ~584 years of nanoseconds fit in u64; saturate rather than wrap
    // if a host clock ever reports something absurd.
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn progress_cell() -> &'static OnceLock<Option<Mutex<ProgressStream>>> {
    static S: OnceLock<Option<Mutex<ProgressStream>>> = OnceLock::new();
    &S
}

/// The process-wide progress stream, opened from `EHSIM_PROGRESS` on
/// first use (`None` when unset or unopenable — a sweep never dies
/// over telemetry).
pub fn progress() -> Option<&'static Mutex<ProgressStream>> {
    progress_cell()
        .get_or_init(|| {
            let path = knob(Knob::Progress)?;
            match ProgressStream::to_path(Path::new(&path)) {
                Ok(s) => Some(Mutex::new(s)),
                Err(e) => {
                    let path = Path::new(&path).display();
                    eprintln!("warning: cannot open EHSIM_PROGRESS={path}: {e}");
                    None
                }
            }
        })
        .as_ref()
}

/// Opens the progress stream at `path` programmatically (the
/// `sweep --progress-out` path). Returns `false` if a stream was
/// already initialized (first writer wins; the existing stream keeps
/// running).
///
/// # Errors
///
/// Returns the file-creation error.
pub fn init_progress_path(path: &Path) -> io::Result<bool> {
    let stream = ProgressStream::to_path(path)?;
    let mut fresh = false;
    let _ = progress_cell().get_or_init(|| {
        fresh = true;
        Some(Mutex::new(stream))
    });
    Ok(fresh)
}

/// Host CPU count (`available_parallelism`, 1 if unknown).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Short git revision of the enclosing working tree, read directly
/// from `.git` (best-effort; no subprocess).
pub fn git_rev() -> Option<String> {
    fn short(h: &str) -> String {
        h.chars().take(12).collect()
    }
    fn resolve(git: &Path) -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(refname) = head.strip_prefix("ref: ") else {
            return Some(short(head));
        };
        if let Ok(h) = std::fs::read_to_string(git.join(refname)) {
            return Some(short(h.trim()));
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
            .find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == refname).then(|| short(hash))
            })
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            return resolve(&git);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Sweep metadata for the progress stream's opening line and the
/// `BENCH_*.json` stamps.
pub fn sweep_meta(scale: &str) -> SweepMeta {
    SweepMeta {
        host_cores: host_cores(),
        jobs: crate::exec::jobs(),
        engine: crate::exec::ENGINE.to_string(),
        git_rev: git_rev().unwrap_or_else(|| "unknown".to_string()),
        scale: scale.to_string(),
    }
}

/// Writes the metadata line to the progress stream, if one is open.
pub fn emit_meta(scale: &str) {
    if let Some(p) = progress() {
        let meta = sweep_meta(scale);
        if let Ok(mut s) = p.lock() {
            s.meta(&meta);
        }
    }
}

/// Renders [`sweep_meta`] as a JSON object for `BENCH_*.json`
/// stamping, with every line after the first prefixed by `indent`.
pub fn meta_json(indent: &str, scale: &str) -> String {
    let m = sweep_meta(scale);
    format!(
        "{{\n{indent}  \"host_cores\": {},\n{indent}  \"jobs\": {},\n{indent}  \"engine\": \"{}\",\n{indent}  \"git_rev\": \"{}\",\n{indent}  \"scale\": \"{}\"\n{indent}}}",
        m.host_cores, m.jobs, m.engine, m.git_rev, m.scale
    )
}

static ORDINAL: AtomicU64 = AtomicU64::new(0);

fn rate_histograms() -> &'static Mutex<MetricsRegistry> {
    static H: OnceLock<Mutex<MetricsRegistry>> = OnceLock::new();
    H.get_or_init(|| Mutex::new(MetricsRegistry::new()))
}

/// Executor hook for one *executed* simulation: assigns the completion
/// ordinal, feeds the per-sim histograms and emits a heartbeat line.
/// `start_ns` is the [`now_ns`] reading taken when its unit started;
/// the simulation ran in a lockstep group of `group` jobs, and is
/// charged that share of the elapsed time. The histogram takes the
/// heartbeat's `elapsed_ns / 1000`, so the two outputs agree.
pub fn sim_completed(
    design: &str,
    trace: &str,
    workload: &str,
    start_ns: u64,
    group: usize,
    report: &Report,
) {
    let ordinal = ORDINAL.fetch_add(1, Ordering::Relaxed) + 1;
    let elapsed_ns = now_ns().saturating_sub(start_ns) / group.max(1) as u64;
    let instr_per_s = if elapsed_ns == 0 {
        0.0
    } else {
        report.instructions as f64 * 1e9 / elapsed_ns as f64
    };
    if let Ok(mut h) = rate_histograms().lock() {
        h.histogram_mut("sim_instr_per_s")
            .record(instr_per_s as u64);
        h.histogram_mut("sim_elapsed_us").record(elapsed_ns / 1_000);
    }
    if let Some(p) = progress() {
        let hb = SimHeartbeat {
            ordinal,
            design: design.to_string(),
            trace: trace.to_string(),
            workload: workload.to_string(),
            engine: crate::exec::ENGINE.to_string(),
            elapsed_ns,
            outages: report.outages,
            instructions: report.instructions,
            instr_per_s,
        };
        if let Ok(mut s) = p.lock() {
            s.heartbeat(&hb);
        }
    }
}

/// The sweep metrics registry: the executor's counters, the engine and
/// worker-count labels, and the per-sim rate histograms, in one typed
/// exportable structure.
pub fn registry() -> MetricsRegistry {
    let st = crate::exec::stats();
    let mut m = rate_histograms()
        .lock()
        .map(|h| h.clone())
        .unwrap_or_default();
    m.set_counter("sims_run", st.sims_run);
    m.set_counter("memo_hits", st.memo_hits);
    m.set_counter("simulated_instructions", st.simulated_instructions);
    m.set_counter("store_hits", st.store_hits);
    m.set_counter("store_misses", st.store_misses);
    m.set_counter("store_rejects", st.store_rejects);
    m.set_counter("lockstep_fallbacks", st.lockstep_fallbacks);
    m.set_counter("lockstep_followers", st.lockstep_followers);
    m.set_counter("residency_followers", st.residency_followers);
    m.set_counter("settle_windows", st.settle_windows);
    m.set_counter("jobs", crate::exec::jobs() as u64);
    m.set_counter("host_cores", host_cores() as u64);
    m.set_text("engine", crate::exec::ENGINE);
    m
}

/// Flushes the progress stream, if one is open, through to its file.
pub fn flush_progress() {
    if let Some(p) = progress() {
        if let Ok(mut s) = p.lock() {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        let b = now_ns();
        assert!(x > 0);
        assert!(b >= a);
    }

    #[test]
    fn meta_json_contains_all_stamp_fields() {
        let j = meta_json("  ", "small");
        for key in ["host_cores", "jobs", "engine", "git_rev", "scale"] {
            assert!(j.contains(key), "{j}");
        }
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The workspace is a git checkout; the reader must find a
        // plausible hex revision (best-effort elsewhere).
        if let Some(rev) = git_rev() {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }
}
