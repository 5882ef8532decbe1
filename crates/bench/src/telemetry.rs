//! Wall-clock wiring for the sweep telemetry subsystem.
//!
//! The profiler, metrics registry and progress-stream *types* live in
//! `ehsim-obs` (deterministic side, no `std::time` — lint L002); this
//! module is the bench-side injection point that gives them a real
//! clock and process-wide homes:
//!
//! * [`profiler`] — the process-wide [`Profiler`] driven by a
//!   monotonic [`WallClock`]. Enabled only by [`enable`], which
//!   [`crate::figures::sweep`] (`all_figures`, `ehsim-cli sweep`) and
//!   `sweep --progress-out` call. Disabled scopes cost one relaxed
//!   atomic load and never read the clock, so figure regeneration in
//!   tests pays nothing.
//! * [`progress`] — the process-wide [`ProgressStream`], opened from
//!   `EHSIM_PROGRESS=<path>` on first use or programmatically via
//!   [`init_progress_path`] (`sweep --progress-out`).
//! * [`sim_completed`] — the executor's per-sim hook: assigns the
//!   completion ordinal, records the per-sim instr/s and elapsed
//!   histograms, and emits one [`SimHeartbeat`] line.
//! * [`registry`] / [`finish_sweep`] — the sweep metrics registry
//!   assembled from [`crate::exec::stats`] and the end-of-sweep
//!   [`ProfileReport`] written as the stream's final line.
//! * [`sweep_meta`] / [`meta_json`] — host/run metadata (core count,
//!   `EHSIM_JOBS`, engine, git revision) for the progress stream and
//!   the `BENCH_*.json` stamps.

use crate::{knob, Knob};
use ehsim::Report;
use ehsim_obs::{
    Clock, MetricsRegistry, Phase, ProfileReport, Profiler, ProgressStream, SimHeartbeat, SweepMeta,
};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Monotonic wall clock over [`std::time::Instant`] — the
/// [`Clock`] implementation the deterministic crates must not define
/// themselves (lint L002 keeps `Instant` out of them).
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose epoch is the moment of construction.
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        // ~584 years of nanoseconds fit in u64; saturate rather than
        // wrap if a host clock ever reports something absurd.
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

fn clock() -> &'static Arc<WallClock> {
    static C: OnceLock<Arc<WallClock>> = OnceLock::new();
    C.get_or_init(|| Arc::new(WallClock::new()))
}

/// Nanoseconds since the process-wide telemetry epoch.
pub fn now_ns() -> u64 {
    clock().now_ns()
}

/// The process-wide phase profiler (disabled until [`enable`]).
pub fn profiler() -> &'static Profiler {
    static P: OnceLock<Profiler> = OnceLock::new();
    P.get_or_init(|| Profiler::new(Arc::clone(clock()) as Arc<dyn Clock>))
}

/// Turns the process-wide profiler on ([`crate::figures::sweep`] calls
/// this unconditionally).
pub fn enable() {
    profiler().set_enabled(true);
}

/// Whether any telemetry consumer is active (profiler enabled or a
/// progress stream open). The executor's per-sim clock reads are gated
/// on this.
pub fn active() -> bool {
    profiler().enabled() || progress().is_some()
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
/// `sweep --progress-out` path) and enables the profiler. Returns
/// `false` if a stream was already initialized (first writer wins; the
/// existing stream keeps running).
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
    if fresh {
        enable();
    }
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

/// Starts the per-sim stopwatch: the current clock reading when
/// telemetry is [`active`], 0 otherwise (so an inactive sweep never
/// reads the clock).
pub fn sim_clock_start() -> u64 {
    if active() {
        now_ns()
    } else {
        0
    }
}

/// Executor hook for one *executed* simulation: assigns the completion
/// ordinal, feeds the per-sim histograms and emits a heartbeat line.
/// `start_ns` comes from [`sim_clock_start`]; the simulation ran in a
/// lockstep group of `group` jobs, and is charged that share of the
/// elapsed time.
pub fn sim_completed(
    design: &str,
    trace: &str,
    workload: &str,
    start_ns: u64,
    group: usize,
    report: &Report,
) {
    if !active() {
        return;
    }
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

/// Builds the end-of-sweep profile against `wall_ns` and, if a
/// progress stream is open, writes it as the stream's final line.
pub fn finish_sweep(wall_ns: u64) -> ProfileReport {
    let report = profiler().report(wall_ns, registry().to_flat_pairs());
    if let Some(p) = progress() {
        if let Ok(mut s) = p.lock() {
            s.profile(&report);
        }
    }
    report
}

/// Convenience: a scope on the process-wide profiler.
pub fn scope(phase: Phase) -> ehsim_obs::ScopeGuard<'static> {
    profiler().scope(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic_and_nonzero_after_work() {
        let c = WallClock::new();
        let a = c.now_ns();
        let mut x = 0u64;
        for i in 0..10_000u64 {
            x = x.wrapping_add(i * i);
        }
        let b = c.now_ns();
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
