//! Parallel sweep executor with process-wide memoization.
//!
//! Every figure/table regeneration is a *sweep*: a batch of independent
//! `(SimConfig, workload, scale)` simulations whose reports are then
//! reduced into TSV rows. This module runs such batches across a pool
//! of worker threads (one per CPU by default, overridable with the
//! `EHSIM_JOBS` environment variable) and memoizes completed reports in
//! a process-wide cache, so repeated configurations — most prominently
//! the `NVSRAM(ideal)` baselines that almost every figure normalizes
//! against — are simulated exactly once per process no matter how many
//! figures request them.
//!
//! **Direct execution in lockstep groups.** Every simulation runs its
//! kernel on the simulated machine. A batch's misses of one kernel and
//! scale run as one lockstep group ([`ehsim::Simulator::run_lockstep`]):
//! the kernel executes once and drives every member's machine, whose
//! reports are bit-identical to solo runs. A group is bounded by 64 KiB
//! of simulated memory (the sum of its kernels' `mem_bytes`) and 8
//! jobs, so a sweep's footprint is at most one group of machines per worker
//! plus the memo. Jobs whose kernel is `EHSIM_TRACE_WORKLOAD` run solo.
//!
//! **Persistent result store.** `EHSIM_RESULT_STORE=<dir>` persists
//! completed *reports* across processes in
//! [`ehsim_farm::ResultStore`], keyed by the same injective `SimKey`
//! as the memo cache. A memo miss consults the store before executing
//! anything; a validated hit returns the stored report (byte-identical
//! to execution — simulation is deterministic and the codec is
//! bit-exact), any validation failure falls back to execution, and
//! fresh results refresh the store. Hits/misses/rejects are counted in
//! [`ExecStats`].
//!
//! Guarantees:
//!
//! * **Deterministic results.** [`run_batch`] returns reports in
//!   submission order, and simulations are pure functions of their
//!   `(SimConfig, workload, scale)` key, so neither the worker count
//!   nor the scheduling order can change any output byte. A regression
//!   test compares every report against a direct
//!   [`ehsim::Simulator::run`] of the same job, field for field.
//! * **Complete keys.** The memo key is an explicit, injective
//!   encoding of every [`SimConfig`] field (design, geometry, policies,
//!   trace, capacitor, CPU/NVM/charging parameters, verify,
//!   max-outages) plus the scale and workload index, built by
//!   exhaustively destructuring the config — adding a field to
//!   `SimConfig` is a compile error here until the key learns about
//!   it, and floats are keyed by their exact bit patterns. Jobs
//!   carrying a custom power trace are never memoized.
//!
//! Setting `EHSIM_TRACE_WORKLOAD=<name>` additionally streams an event
//! timeline for every simulation of that workload: each one writes a
//! JSON-lines event stream (loadable by `ehsim-analyze` /
//! `ehsim-cli diff-traces`, convertible to Chrome/interval exports
//! with `ehsim-cli convert-trace`) into `EHSIM_TRACE_DIR` (default
//! `traces/`), named `<workload>__<design>__<trace>.events.jsonl`.
//! Events flow through a bounded-buffer [`StreamingObserver`] straight
//! to disk, so tracing adds no per-event memory footprint, and
//! observation does not change any simulated value, so figures
//! regenerated with tracing on are byte-identical.

use crate::{knob, telemetry, Knob};
use ehsim::{ObserverBox, Report, SimConfig, Simulator};
use ehsim_obs::{Phase, StreamStatsHandle, StreamingObserver};
use ehsim_workloads::Scale;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One simulation of the sweep: a configuration applied to workload
/// number `workload` of the fixed 23-kernel suite at `scale`.
#[derive(Debug, Clone)]
pub struct Job {
    /// The configuration to simulate.
    pub cfg: SimConfig,
    /// Index into [`ehsim_workloads::all23`] (figure order).
    pub workload: usize,
    /// Workload scale.
    pub scale: Scale,
}

impl Job {
    /// Convenience constructor.
    pub fn new(cfg: SimConfig, workload: usize, scale: Scale) -> Self {
        Self {
            cfg,
            workload,
            scale,
        }
    }
}

/// Snapshot of the executor's process-wide counters (for the
/// `BENCH_sweep.json` emitter and progress lines).
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    /// Simulations actually executed.
    pub sims_run: u64,
    /// Batch entries satisfied from the memo cache (or deduplicated
    /// within a batch).
    pub memo_hits: u64,
    /// Total instructions retired across all executed simulations.
    pub simulated_instructions: u64,
    /// Bus traces recorded by the executor. Always 0: sweeps execute
    /// kernels directly and record nothing. Kept only for existing
    /// readers of this struct.
    pub traces_recorded: u64,
    /// Memo misses served from the persistent `EHSIM_RESULT_STORE`
    /// (no execution at all).
    pub store_hits: u64,
    /// Memo misses that also missed the persistent store (and, having
    /// executed, refreshed it).
    pub store_misses: u64,
    /// Result-store entries rejected by load-time validation
    /// (truncated, corrupt, stale version); each fell back to
    /// execution.
    pub store_rejects: u64,
}

#[derive(Default)]
struct Counters {
    sims: AtomicU64,
    memo_hits: AtomicU64,
    instructions: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_rejects: AtomicU64,
}

fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(Counters::default)
}

fn cache() -> &'static Mutex<HashMap<MemoKey, Arc<Report>>> {
    static C: OnceLock<Mutex<HashMap<MemoKey, Arc<Report>>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Current executor counters.
pub fn stats() -> ExecStats {
    let c = counters();
    ExecStats {
        sims_run: c.sims.load(Ordering::Relaxed),
        memo_hits: c.memo_hits.load(Ordering::Relaxed),
        simulated_instructions: c.instructions.load(Ordering::Relaxed),
        traces_recorded: 0,
        store_hits: c.store_hits.load(Ordering::Relaxed),
        store_misses: c.store_misses.load(Ordering::Relaxed),
        store_rejects: c.store_rejects.load(Ordering::Relaxed),
    }
}

/// Worker count: `EHSIM_JOBS` if set (minimum 1), otherwise the
/// machine's available parallelism.
pub fn jobs() -> usize {
    knob(Knob::Jobs)
        .and_then(|v| v.to_str()?.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Execution-engine label for benchmark artifacts and heartbeats.
pub const ENGINE: &str = "direct";

/// Name of workload `ix` in the fixed 23-kernel suite, without
/// constructing the kernels (names are scale-independent and built
/// once per process).
fn workload_name(ix: usize) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    NAMES
        .get_or_init(|| {
            ehsim_workloads::all23(Scale::Small)
                .iter()
                .map(|w| w.name().to_string())
                .collect()
        })
        .get(ix)
        .unwrap_or_else(|| panic!("workload index {ix} out of range"))
}

/// Canonical memo key: the injective word encoding of a [`Job`],
/// shared verbatim with the persistent result store — see
/// [`ehsim_farm::key`], where the encoding (and its per-field
/// distinctness tests) now lives. In-memory memo and on-disk store
/// keying on the same identity is what makes a store hit exactly the
/// report the memo would have cached.
type MemoKey = ehsim_farm::SimKey;

/// Memo/store key, or `None` when the job must not be memoized
/// (custom traces have no stable identity).
fn memo_key(job: &Job) -> Option<MemoKey> {
    ehsim_farm::sim_key(&job.cfg, job.workload, job.scale)
}

/// `EHSIM_RESULT_STORE=<dir>`: the persistent content-addressed result
/// store ([`ehsim_farm::ResultStore`]). Read/written only on the memo
/// miss path.
fn result_store() -> Option<&'static ehsim_farm::ResultStore> {
    static S: OnceLock<Option<ehsim_farm::ResultStore>> = OnceLock::new();
    S.get_or_init(|| knob(Knob::ResultStore).map(ehsim_farm::ResultStore::open))
        .as_ref()
}

/// Whether `EHSIM_RESULT_STORE` names a result store for this process.
pub fn result_store_enabled() -> bool {
    result_store().is_some()
}

/// The workload name whose simulations should also dump event
/// timelines (`EHSIM_TRACE_WORKLOAD`), if any.
fn trace_workload() -> Option<&'static str> {
    static W: OnceLock<Option<String>> = OnceLock::new();
    W.get_or_init(|| knob(Knob::TraceWorkload)?.into_string().ok())
        .as_deref()
}

/// Turns a design/trace label into a filename fragment.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Opens the JSONL event-stream sink for one traced simulation:
/// `EHSIM_TRACE_DIR` (default `traces/`) /
/// `<workload>__<design>__<trace>.events.jsonl`. Events stream through
/// a bounded buffer straight to disk (no in-RAM timeline); observation
/// never perturbs the simulation, and open failures only warn and fall
/// back to no observation — a sweep must not die over a timeline.
fn stream_sink(job: &Job, workload: &str) -> (ObserverBox, Option<StreamStatsHandle>) {
    let dir = std::path::PathBuf::from(knob(Knob::TraceDir).unwrap_or_else(|| "traces".into()));
    let stem = format!(
        "{}__{}__{}",
        sanitize(workload),
        sanitize(job.cfg.design.label()),
        sanitize(job.cfg.trace_label())
    );
    let open = || -> std::io::Result<StreamingObserver> {
        std::fs::create_dir_all(&dir)?;
        StreamingObserver::to_path(&dir.join(format!("{stem}.events.jsonl")))
    };
    match open() {
        Ok(obs) => {
            // Keep a stats handle only when profiling: the simulator
            // closes the stream before returning, so the handle carries
            // the final event count for the observer-emit op tally.
            let handle = telemetry::profiler().enabled().then(|| obs.stats_handle());
            (ObserverBox::custom(obs), handle)
        }
        Err(e) => {
            eprintln!("warning: failed to open event stream for {stem}: {e}");
            (ObserverBox::Noop, None)
        }
    }
}

/// Feeds per-sim op counts into the profiler once a simulation
/// returns: settle windows from the machine, streamed events from the
/// (already closed) observer's stats handle.
fn record_sim_ops(settles: u64, emit_stats: Option<StreamStatsHandle>) {
    let p = telemetry::profiler();
    if !p.enabled() {
        return;
    }
    p.add_ops(Phase::Settle, settles);
    if let Some(h) = emit_stats {
        if let Ok(s) = h.lock() {
            p.add_ops(Phase::ObserverEmit, s.events);
        }
    }
}

/// Runs one unit of jobs that share a kernel and a scale: streamed
/// solo when the kernel is `EHSIM_TRACE_WORKLOAD` (such a unit holds
/// one job), otherwise as one lockstep group
/// ([`Simulator::run_lockstep_with`]; a unit of one runs solo). Returns
/// the reports in unit order. Panics with context on simulation errors
/// — the harness treats them as fatal.
fn run_direct(unit: &[&Job]) -> Vec<Report> {
    let _t = telemetry::scope(Phase::DirectSim);
    let first = unit[0];
    let workloads = ehsim_workloads::all23(first.scale);
    let w = workloads
        .get(first.workload)
        .unwrap_or_else(|| panic!("workload index {} out of range", first.workload));
    let fail = |job: &Job, e: ehsim::SimError| -> ! {
        panic!(
            "{} / {} on {}: {e}",
            job.cfg.design.label(),
            w.name(),
            job.cfg.trace_label()
        )
    };
    if trace_workload() == Some(w.name()) {
        let (obs, emit_stats) = stream_sink(first, w.name());
        let (report, machine) = Simulator::new(first.cfg.clone())
            .run_with(w.as_ref(), obs)
            .unwrap_or_else(|e| fail(first, e));
        record_sim_ops(machine.settle_windows(), emit_stats);
        return vec![report];
    }
    let cfgs: Vec<SimConfig> = unit.iter().map(|job| job.cfg.clone()).collect();
    Simulator::run_lockstep_with(&cfgs, w.as_ref())
        .into_iter()
        .zip(unit)
        .map(|(outcome, job)| {
            let (report, machine) = outcome.unwrap_or_else(|e| fail(job, e));
            record_sim_ops(machine.settle_windows(), None);
            report
        })
        .collect()
}

/// Runs one unit to completion, updating the process-wide counters
/// and emitting one heartbeat per job. A job's heartbeat carries the
/// unit's wall time divided by the unit's size, so heartbeat times sum
/// to the time the workers spent simulating.
fn simulate(unit: &[&Job]) -> Vec<Report> {
    let start_ns = telemetry::sim_clock_start();
    let workload = workload_name(unit[0].workload);
    let reports = run_direct(unit);
    let c = counters();
    for (job, report) in unit.iter().zip(&reports) {
        c.sims.fetch_add(1, Ordering::Relaxed);
        c.instructions
            .fetch_add(report.instructions, Ordering::Relaxed);
        telemetry::sim_completed(
            job.cfg.design.label(),
            job.cfg.trace_label(),
            workload,
            start_ns,
            unit.len(),
            report,
        );
    }
    reports
}

/// Looks one memo miss up in the persistent result store, when one is
/// configured. A store hit is *not* an executed simulation: no
/// heartbeat, no `sims_run` bump — only `store_hits` — so the progress
/// stream carries one heartbeat per simulation actually executed.
fn load_stored(key: Option<&MemoKey>) -> Option<Report> {
    let (store, key) = (result_store()?, key?);
    let loaded = {
        let _t = telemetry::scope(Phase::StoreIo);
        store.load(key)
    };
    match loaded {
        ehsim_farm::LoadOutcome::Hit(report) => {
            counters().store_hits.fetch_add(1, Ordering::Relaxed);
            return Some(*report);
        }
        ehsim_farm::LoadOutcome::Miss => {
            counters().store_misses.fetch_add(1, Ordering::Relaxed);
        }
        ehsim_farm::LoadOutcome::Reject(reason) => {
            counters().store_rejects.fetch_add(1, Ordering::Relaxed);
            eprintln!("warning: result store entry rejected ({reason}); re-executing");
        }
    }
    None
}

/// Refreshes the result store with a freshly executed report
/// (best-effort).
fn save_stored(key: Option<&MemoKey>, report: &Report) {
    let (Some(store), Some(key)) = (result_store(), key) else {
        return;
    };
    let saved = {
        let _t = telemetry::scope(Phase::StoreIo);
        store.save(key, report)
    };
    if let Err(e) = saved {
        eprintln!(
            "warning: failed to persist result for {}: {e}",
            report.workload
        );
    }
}

/// Bound on a lockstep group: the sum of its jobs'
/// [`Workload::mem_bytes`](ehsim_mem::Workload::mem_bytes). A group
/// holds one machine, and so one simulated NVM, per job; this keeps
/// grouping to the small kernels, where the per-op overlap pays and
/// the extra machines cost little resident memory.
const GROUP_MEM_BYTES: u64 = 64 * 1024;

/// Most jobs in one lockstep group.
const GROUP_MAX_JOBS: usize = 8;

/// [`Workload::mem_bytes`](ehsim_mem::Workload::mem_bytes) of workload
/// `ix` at `scale` (kernels are cheap to construct; their inputs are
/// built when they run).
fn workload_mem_bytes(ix: usize, scale: Scale) -> u64 {
    static SIZES: [OnceLock<Vec<u32>>; 2] = [OnceLock::new(), OnceLock::new()];
    let cell = match scale {
        Scale::Small => &SIZES[0],
        Scale::Default => &SIZES[1],
    };
    let sizes = cell.get_or_init(|| {
        ehsim_workloads::all23(scale)
            .iter()
            .map(|w| w.mem_bytes())
            .collect()
    });
    u64::from(sizes[ix])
}

/// Splits `misses` into units of miss indices: jobs of one
/// (workload, scale), in submission order, filling a unit until the
/// next job would break [`GROUP_MEM_BYTES`] or [`GROUP_MAX_JOBS`]. A
/// kernel larger than the budget runs alone, and so does every job of
/// the `EHSIM_TRACE_WORKLOAD` kernel, which streams its own timeline.
fn lockstep_units(misses: &[&Job]) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    // (workload, scale) -> (open unit, its bytes)
    let mut open: HashMap<(usize, Scale), (usize, u64)> = HashMap::new();
    for (i, job) in misses.iter().enumerate() {
        if trace_workload() == Some(workload_name(job.workload)) {
            units.push(vec![i]);
            continue;
        }
        let bytes = workload_mem_bytes(job.workload, job.scale);
        match open.get_mut(&(job.workload, job.scale)) {
            Some((u, used))
                if units[*u].len() < GROUP_MAX_JOBS && *used + bytes <= GROUP_MEM_BYTES =>
            {
                units[*u].push(i);
                *used += bytes;
            }
            _ => {
                open.insert((job.workload, job.scale), (units.len(), bytes));
                units.push(vec![i]);
            }
        }
    }
    units
}

enum Slot {
    Done(Arc<Report>),
    Pending(usize),
}

/// Runs a batch of jobs and returns their reports in submission order.
///
/// Jobs already in the memo cache are returned without simulating;
/// duplicate keys within the batch simulate once. The remaining misses
/// are split into lockstep units (jobs of one kernel under a memory
/// budget) that execute on a [`std::thread::scope`] work queue of
/// [`jobs`] workers. The progress stream is flushed before returning,
/// so a caller that never reaches [`telemetry::finish_sweep`] still
/// leaves every heartbeat on disk.
pub fn run_batch(batch: &[Job]) -> Vec<Arc<Report>> {
    // Resolve against the cache and deduplicate within the batch.
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    let mut misses: Vec<&Job> = Vec::new();
    let mut miss_keys: Vec<Option<MemoKey>> = Vec::new();
    {
        let _t = telemetry::scope(Phase::MemoLookup);
        let cache = cache().lock().expect("sweep cache poisoned");
        let mut pending: HashMap<MemoKey, usize> = HashMap::new();
        for job in batch {
            match memo_key(job) {
                Some(key) => {
                    if let Some(hit) = cache.get(&key) {
                        counters().memo_hits.fetch_add(1, Ordering::Relaxed);
                        slots.push(Slot::Done(Arc::clone(hit)));
                    } else if let Some(&ix) = pending.get(&key) {
                        counters().memo_hits.fetch_add(1, Ordering::Relaxed);
                        slots.push(Slot::Pending(ix));
                    } else {
                        let ix = misses.len();
                        misses.push(job);
                        miss_keys.push(Some(key.clone()));
                        pending.insert(key, ix);
                        slots.push(Slot::Pending(ix));
                    }
                }
                None => {
                    let ix = misses.len();
                    misses.push(job);
                    miss_keys.push(None);
                    slots.push(Slot::Pending(ix));
                }
            }
        }
    }

    // Execute the misses on the worker pool, one lockstep unit per
    // claim. Store hits drop out of a unit before it runs.
    let results: Vec<OnceLock<Arc<Report>>> = (0..misses.len()).map(|_| OnceLock::new()).collect();
    let units = lockstep_units(&misses);
    if !units.is_empty() {
        let workers = jobs().min(units.len());
        let next = AtomicUsize::new(0);
        // The main thread only waits here; workers profile their own
        // phases on their own scope stacks. Worker-wait is excluded
        // from the attribution percentage.
        let _t = telemetry::scope(Phase::WorkerWait);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    let Some(unit) = units.get(u) else {
                        break;
                    };
                    let mut run: Vec<usize> = Vec::with_capacity(unit.len());
                    for &i in unit {
                        match load_stored(miss_keys[i].as_ref()) {
                            Some(report) => {
                                let _ = results[i].set(Arc::new(report));
                            }
                            None => run.push(i),
                        }
                    }
                    if run.is_empty() {
                        continue;
                    }
                    let jobs: Vec<&Job> = run.iter().map(|&i| misses[i]).collect();
                    for (&i, report) in run.iter().zip(simulate(&jobs)) {
                        save_stored(miss_keys[i].as_ref(), &report);
                        let _ = results[i].set(Arc::new(report));
                    }
                });
            }
        });
    }

    // Publish new results and assemble in submission order.
    let results: Vec<Arc<Report>> = results
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .expect("worker completed every claimed job")
        })
        .collect();
    {
        let _t = telemetry::scope(Phase::MemoLookup);
        let mut cache = cache().lock().expect("sweep cache poisoned");
        for (key, report) in miss_keys.iter().zip(&results) {
            if let Some(key) = key {
                cache.insert(key.clone(), Arc::clone(report));
            }
        }
    }
    telemetry::flush_progress();
    slots
        .into_iter()
        .map(|slot| match slot {
            Slot::Done(r) => r,
            Slot::Pending(ix) => Arc::clone(&results[ix]),
        })
        .collect()
}

/// Runs the full 23-workload suite for each configuration, sharing one
/// batch (and therefore the worker pool and the memo cache) across all
/// of them. Returns one report vector per configuration, in order.
pub fn run_suites(cfgs: &[SimConfig], scale: Scale) -> Vec<Vec<Arc<Report>>> {
    let count = ehsim_workloads::all23(scale).len();
    let batch: Vec<Job> = cfgs
        .iter()
        .flat_map(|cfg| (0..count).map(move |w| Job::new(cfg.clone(), w, scale)))
        .collect();
    let flat = run_batch(&batch);
    flat.chunks(count).map(|c| c.to_vec()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The memo key is the store's [`ehsim_farm::SimKey`], verbatim —
    /// the per-field injectivity tests live next to the encoding in
    /// `ehsim-farm::key`; this pin only guards the delegation.
    #[test]
    fn memo_key_delegates_to_farm() {
        let job = Job::new(SimConfig::wl_cache(), 3, Scale::Small);
        assert_eq!(
            memo_key(&job),
            ehsim_farm::sim_key(&job.cfg, job.workload, job.scale)
        );
        assert!(memo_key(&job).is_some());
    }

    #[test]
    fn scale_and_workload_feed_the_key() {
        let cfg = SimConfig::nvsram();
        let a = memo_key(&Job::new(cfg.clone(), 0, Scale::Small)).unwrap();
        let b = memo_key(&Job::new(cfg.clone(), 1, Scale::Small)).unwrap();
        let c = memo_key(&Job::new(cfg, 0, Scale::Default)).unwrap();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let a = memo_key(&Job::new(SimConfig::wl_cache(), 3, Scale::Small));
        let b = memo_key(&Job::new(SimConfig::wl_cache(), 3, Scale::Small));
        assert_eq!(a, b);
    }

    /// Units keep to one kernel and scale, fill in submission order,
    /// and stop at the job cap or the memory budget.
    #[test]
    fn lockstep_units_respect_the_budget() {
        let cfg = SimConfig::wl_cache();
        // Small sha (4 KiB): ten jobs fill a unit of 8, then one of 2;
        // a Small qsort job in between gets its own unit.
        let mut jobs: Vec<Job> = (0..10)
            .map(|_| Job::new(cfg.clone(), 12, Scale::Small))
            .collect();
        jobs.insert(3, Job::new(cfg.clone(), 16, Scale::Small));
        // Default gsmdecode (14 KiB): 4 fit in 64 KiB. Default sha
        // (384 KiB) runs alone.
        jobs.extend((0..5).map(|_| Job::new(cfg.clone(), 5, Scale::Default)));
        jobs.extend((0..2).map(|_| Job::new(cfg.clone(), 12, Scale::Default)));
        let refs: Vec<&Job> = jobs.iter().collect();
        let units = lockstep_units(&refs);
        assert_eq!(
            units,
            [
                vec![0, 1, 2, 4, 5, 6, 7, 8],
                vec![3],
                vec![9, 10],
                vec![11, 12, 13, 14],
                vec![15],
                vec![16],
                vec![17],
            ]
        );
    }

    #[test]
    fn custom_traces_are_never_memoized() {
        let trace = ehsim_energy::PowerTrace::constant(100.0);
        let cfg = SimConfig::wl_cache().with_custom_trace(trace);
        assert_eq!(memo_key(&Job::new(cfg, 0, Scale::Small)), None);
    }
}
