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
//! scale run as lockstep groups ([`ehsim::Simulator::run_lockstep`]):
//! the kernel executes once and drives every member's machine, whose
//! reports are bit-identical to solo runs. A group takes whole
//! [`ehsim::AccessClass`]es — jobs that differ only in their power
//! input, whose access half one member runs for all until their first
//! outage — up to 8 classes and 16 jobs; a kernel's classes split into
//! the fewest balanced units, keeping each [`ehsim::ResidencyClass`] —
//! write-back designs of one geometry and policy, which share one tag
//! array in a group — in one unit where the caps allow. A group's
//! members share one simulated NVM, so a sweep's footprint is at most
//! one group per worker plus the memo. Jobs whose kernel is
//! `EHSIM_TRACE_WORKLOAD` run solo.
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
//! JSON-lines event stream (loadable by `RunTrace::load` /
//! `ehsim-cli diff-traces`, convertible to Chrome/interval exports
//! with `ehsim-cli convert-trace`) into `EHSIM_TRACE_DIR` (default
//! `traces/`), named `<workload>__<design>__<trace>.events.jsonl`.
//! Events flow through a bounded-buffer [`StreamingObserver`] straight
//! to disk, so tracing adds no per-event memory footprint, and
//! observation does not change any simulated value, so figures
//! regenerated with tracing on are byte-identical.

use crate::{knob, telemetry, Knob};
use ehsim::{ObserverBox, Report, SimConfig, Simulator};
use ehsim_obs::StreamingObserver;
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
    /// Lockstep groups dropped and rerun solo. In a sweep, where every
    /// simulation error is fatal, a fallback means a divergence or a
    /// kernel panic: a simulator bug that the solo reruns hide.
    pub lockstep_fallbacks: u64,
    /// Executed simulations that followed another member's access half
    /// in a lockstep group, for the whole run or until their first
    /// outage.
    pub lockstep_followers: u64,
    /// Executed simulations that followed a residency-class lead's tag
    /// array in a lockstep group, for the whole run or until they left
    /// their class.
    pub residency_followers: u64,
    /// Capacitor settlement windows of all executed simulations
    /// ([`ehsim::Machine::settle_windows`]): deterministic, so a sweep
    /// reads the same count on every run.
    pub settle_windows: u64,
}

#[derive(Default)]
struct Counters {
    sims: AtomicU64,
    memo_hits: AtomicU64,
    instructions: AtomicU64,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    store_rejects: AtomicU64,
    lockstep_fallbacks: AtomicU64,
    lockstep_followers: AtomicU64,
    residency_followers: AtomicU64,
    settle_windows: AtomicU64,
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
        lockstep_fallbacks: c.lockstep_fallbacks.load(Ordering::Relaxed),
        lockstep_followers: c.lockstep_followers.load(Ordering::Relaxed),
        residency_followers: c.residency_followers.load(Ordering::Relaxed),
        settle_windows: c.settle_windows.load(Ordering::Relaxed),
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
fn stream_sink(job: &Job, workload: &str) -> ObserverBox {
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
        Ok(obs) => ObserverBox::custom(obs),
        Err(e) => {
            eprintln!("warning: failed to open event stream for {stem}: {e}");
            ObserverBox::Noop
        }
    }
}

/// Runs one unit of jobs that share a kernel and a scale: streamed
/// solo when the kernel is `EHSIM_TRACE_WORKLOAD` (such a unit holds
/// one job), otherwise as one lockstep group
/// ([`Simulator::run_lockstep_with`]; a unit of one runs solo). Returns
/// the reports in unit order and adds the machines' settle windows to
/// [`ExecStats::settle_windows`]. Panics with context on simulation
/// errors — the harness treats them as fatal.
fn run_direct(unit: &[&Job]) -> Vec<Report> {
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
    let c = counters();
    if trace_workload() == Some(w.name()) {
        let (report, machine) = Simulator::new(first.cfg.clone())
            .run_with(w.as_ref(), stream_sink(first, w.name()))
            .unwrap_or_else(|e| fail(first, e));
        c.settle_windows
            .fetch_add(machine.settle_windows(), Ordering::Relaxed);
        return vec![report];
    }
    let cfgs: Vec<SimConfig> = unit.iter().map(|job| job.cfg.clone()).collect();
    let run = Simulator::run_lockstep_with(&cfgs, w.as_ref());
    c.lockstep_fallbacks
        .fetch_add(u64::from(run.fell_back), Ordering::Relaxed);
    c.lockstep_followers
        .fetch_add(run.followers as u64, Ordering::Relaxed);
    c.residency_followers
        .fetch_add(run.residency_followers as u64, Ordering::Relaxed);
    run.outcomes
        .into_iter()
        .zip(unit)
        .map(|(outcome, job)| {
            let (report, machine) = outcome.unwrap_or_else(|e| fail(job, e));
            c.settle_windows
                .fetch_add(machine.settle_windows(), Ordering::Relaxed);
            report
        })
        .collect()
}

/// Runs one unit to completion, updating the process-wide counters
/// and emitting one heartbeat per job. A job's heartbeat carries the
/// unit's wall time divided by the unit's size, so heartbeat times sum
/// to the time the workers spent simulating.
fn simulate(unit: &[&Job]) -> Vec<Report> {
    let start_ns = telemetry::now_ns();
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
    match store.load(key) {
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
    if let Err(e) = store.save(key, report) {
        eprintln!(
            "warning: failed to persist result for {}: {e}",
            report.workload
        );
    }
}

/// Most access classes, so most machines running an access half, in
/// one lockstep group.
const GROUP_MAX_CLASSES: usize = 8;

/// Most jobs in one lockstep group.
const GROUP_MAX_JOBS: usize = 16;

/// Splits `misses` into units of miss indices. A unit holds jobs of one
/// (workload, scale) and takes whole access classes
/// ([`ehsim::SimConfig::access_class`]; a class of more than
/// [`GROUP_MAX_JOBS`] jobs is split into parts of at most that many).
/// A kernel's parts go into the fewest units that hold at most
/// [`GROUP_MAX_CLASSES`] parts and [`GROUP_MAX_JOBS`] jobs each, with
/// part counts that differ by at most one, and the parts of one
/// residency class ([`ehsim::SimConfig::residency_class`]) share a unit
/// where the caps allow ([`pack_parts`]). Each unit lists its jobs in
/// submission order, and the units are ordered by their first job.
/// Every job of the `traced` kernel (`EHSIM_TRACE_WORKLOAD`), which
/// streams its own timeline, runs alone.
fn lockstep_units(misses: &[&Job], traced: Option<&str>) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    // Each (workload, scale)'s access classes, in first-appearance
    // order.
    let mut kernels: Vec<Vec<Vec<usize>>> = Vec::new();
    let mut kernel_of: HashMap<(usize, Scale), usize> = HashMap::new();
    for (i, job) in misses.iter().enumerate() {
        if traced == Some(workload_name(job.workload)) {
            units.push(vec![i]);
            continue;
        }
        let k = *kernel_of
            .entry((job.workload, job.scale))
            .or_insert_with(|| {
                kernels.push(Vec::new());
                kernels.len() - 1
            });
        let classes = &mut kernels[k];
        let class = job.cfg.access_class();
        let same =
            |c: &&mut Vec<usize>| class.is_some() && misses[c[0]].cfg.access_class() == class;
        match classes.iter_mut().find(same) {
            Some(c) => c.push(i),
            None => classes.push(vec![i]),
        }
    }
    for classes in kernels {
        // The kernel's residency groups: parts of one residency class
        // together, in first-appearance order; a part outside every
        // class is a group of its own.
        let mut groups: Vec<Vec<&[usize]>> = Vec::new();
        for part in classes.iter().flat_map(|c| c.chunks(GROUP_MAX_JOBS)) {
            let class = misses[part[0]].cfg.residency_class();
            let same = |g: &&mut Vec<&[usize]>| {
                class.is_some() && misses[g[0][0]].cfg.residency_class() == class
            };
            match groups.iter_mut().find(same) {
                Some(g) => g.push(part),
                None => groups.push(vec![part]),
            }
        }
        units.extend(
            pack_parts(&groups)
                .into_iter()
                .filter(|unit| !unit.is_empty())
                .map(|unit| unit.concat()),
        );
    }
    for unit in &mut units {
        unit.sort_unstable();
    }
    units.sort_unstable_by_key(|unit| unit[0]);
    units
}

/// Packs one kernel's parts — given as residency groups of parts — into
/// the fewest units of at most [`GROUP_MAX_CLASSES`] parts and
/// [`GROUP_MAX_JOBS`] jobs whose part counts differ by at most one.
///
/// For a unit count `n`, every unit takes `⌊p/n⌋` or `⌈p/n⌉` of the `p`
/// parts. Groups go largest first; each part goes to the unit that took
/// its group's previous part if that unit has room, and otherwise to the
/// unit with room that holds the fewest parts, then the fewest jobs. If
/// a part finds no unit with room, `n` grows by one; at one part per
/// unit every part fits.
fn pack_parts<'a>(groups: &[Vec<&'a [usize]>]) -> Vec<Vec<&'a [usize]>> {
    let parts: usize = groups.iter().map(Vec::len).sum();
    let jobs: usize = groups.iter().flatten().map(|p| p.len()).sum();
    let mut order: Vec<&Vec<&[usize]>> = groups.iter().collect();
    order.sort_by_key(|g| std::cmp::Reverse(g.len()));
    let mut n = parts
        .div_ceil(GROUP_MAX_CLASSES)
        .max(jobs.div_ceil(GROUP_MAX_JOBS))
        .max(1);
    loop {
        let most = parts.div_ceil(n);
        // How many units may hold `most` parts: the rest hold one less.
        let mut full_left = match parts % n {
            0 => n,
            r => r,
        };
        let mut units: Vec<Vec<&[usize]>> = vec![Vec::new(); n];
        let mut held = vec![0; n];
        let placed = order.iter().all(|group| {
            let mut last: Option<usize> = None;
            group.iter().all(|part| {
                let room = |u: usize| {
                    let count = units[u].len();
                    held[u] + part.len() <= GROUP_MAX_JOBS
                        && (count + 1 < most || (count + 1 == most && full_left > 0))
                };
                let unit = last.filter(|&u| room(u)).or_else(|| {
                    (0..n)
                        .filter(|&u| room(u))
                        .min_by_key(|&u| (units[u].len(), held[u]))
                });
                let Some(u) = unit else {
                    return false;
                };
                units[u].push(part);
                held[u] += part.len();
                if units[u].len() == most {
                    full_left -= 1;
                }
                last = Some(u);
                true
            })
        });
        if placed {
            return units;
        }
        n += 1;
    }
}

enum Slot {
    Done(Arc<Report>),
    Pending(usize),
}

/// Runs a batch of jobs and returns their reports in submission order.
///
/// Jobs already in the memo cache are returned without simulating;
/// duplicate keys within the batch simulate once. The remaining misses
/// are split into lockstep units (whole access classes of one kernel,
/// see [`lockstep_units`]) that execute on a [`std::thread::scope`]
/// work queue of
/// [`jobs`] workers. The progress stream is flushed before returning,
/// so every heartbeat of the batch is on disk.
pub fn run_batch(batch: &[Job]) -> Vec<Arc<Report>> {
    // Resolve against the cache and deduplicate within the batch.
    let mut slots: Vec<Slot> = Vec::with_capacity(batch.len());
    let mut misses: Vec<&Job> = Vec::new();
    let mut miss_keys: Vec<Option<MemoKey>> = Vec::new();
    {
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
    let units = lockstep_units(&misses, trace_workload());
    if !units.is_empty() {
        let workers = jobs().min(units.len());
        let next = AtomicUsize::new(0);
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
    use ehsim_energy::TraceKind;

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

    /// Units keep to one kernel and scale and take whole access
    /// classes, up to the class and job caps, in the fewest units of
    /// balanced size that keep residency classes together; each lists
    /// its jobs in submission order. Every job of the traced kernel
    /// runs alone.
    #[test]
    fn lockstep_units_take_whole_access_classes() {
        let caps = [0.1, 1.0, 100.0];
        let on =
            |cfg: &SimConfig, uf: f64| cfg.clone().with_capacitor_uf(uf).with_trace(TraceKind::Rf1);
        let designs = SimConfig::all_designs();
        // Small sha, Fig 10(b)-shaped: five designs, three capacitors
        // each — five classes of three, one unit of 15. A Small qsort
        // job in between gets its own unit.
        let mut jobs: Vec<Job> = designs
            .iter()
            .flat_map(|cfg| caps.map(|uf| Job::new(on(cfg, uf), 12, Scale::Small)))
            .collect();
        jobs.insert(3, Job::new(SimConfig::wl_cache(), 16, Scale::Small));
        // Default sha, nine classes of one (each verifying job is a
        // class of its own): two units, of five and four classes. The
        // four static WL-Cache jobs, one residency class, share one.
        let mut more: Vec<SimConfig> = designs.iter().map(|c| c.clone().with_verify()).collect();
        more.extend((1..=4).map(SimConfig::wl_cache_static));
        jobs.extend(
            more.into_iter()
                .map(|cfg| Job::new(cfg, 12, Scale::Default)),
        );
        // One class of 18 Default qsort jobs splits at 16 jobs; a
        // verifying job, a class of its own, fills the second unit.
        jobs.extend((0..18).map(|i| {
            Job::new(
                on(&SimConfig::nvsram(), 1.0 + f64::from(i)),
                16,
                Scale::Default,
            )
        }));
        jobs.push(Job::new(
            SimConfig::nvsram().with_verify(),
            16,
            Scale::Default,
        ));
        let refs: Vec<&Job> = jobs.iter().collect();
        let units = lockstep_units(&refs, None);
        let sha_small: Vec<usize> = (0..16).filter(|&i| i != 3).collect();
        assert_eq!(units[0], sha_small);
        assert_eq!(units[1], [3]);
        assert_eq!(units[2], [16, 17, 18, 19]);
        assert_eq!(units[3], [20, 21, 22, 23, 24]);
        assert_eq!(units[4], (25..41).collect::<Vec<_>>());
        assert_eq!(units[5], [41, 42, 43]);
        assert_eq!(units.len(), 6);
        // Traced, every qsort job runs alone, in place.
        let traced = lockstep_units(&refs, Some(workload_name(16)));
        assert_eq!(traced[1], [3]);
        assert_eq!(traced.len(), 4 + 19);
        assert!(traced[4..].iter().all(|u| u.len() == 1));
    }

    /// Fig 12's misses on one kernel — static WL-Cache at four maxlines
    /// and adaptive WL-Cache under FIFO, and the four static ones under
    /// LRU — are nine classes of two residency classes: two units of
    /// five and four, one residency class each, not eight and one.
    #[test]
    fn nine_classes_split_five_and_four_by_residency_class() {
        use ehsim_cache::ReplacementPolicy::{Fifo, Lru};
        let mut cfgs: Vec<SimConfig> = [2, 4, 6, 8]
            .into_iter()
            .map(|m| SimConfig::wl_cache_static(m).with_cache_policy(Lru))
            .collect();
        cfgs.extend(
            [2, 4, 6, 8]
                .into_iter()
                .map(|m| SimConfig::wl_cache_static(m).with_cache_policy(Fifo)),
        );
        cfgs.push(SimConfig::wl_cache().with_cache_policy(Fifo));
        let jobs: Vec<Job> = cfgs
            .into_iter()
            .map(|cfg| Job::new(cfg.with_trace(TraceKind::Rf2), 3, Scale::Small))
            .collect();
        let refs: Vec<&Job> = jobs.iter().collect();
        assert_eq!(
            lockstep_units(&refs, None),
            [vec![0, 1, 2, 3], vec![4, 5, 6, 7, 8]]
        );
    }

    /// Seventeen classes of one: three units of six, six and five.
    #[test]
    fn seventeen_classes_split_into_three_balanced_units() {
        let jobs: Vec<Job> = (0..17)
            .map(|_| Job::new(SimConfig::vcache_wt().with_verify(), 5, Scale::Small))
            .collect();
        let refs: Vec<&Job> = jobs.iter().collect();
        let sizes: Vec<usize> = lockstep_units(&refs, None).iter().map(Vec::len).collect();
        assert_eq!(sizes, [6, 6, 5]);
    }

    /// The Fig 4 job set — five designs on the 23 kernels, submitted
    /// design by design — stays 23 units of 5, in kernel order.
    #[test]
    fn fig04_jobs_form_one_unit_per_kernel() {
        let jobs: Vec<Job> = SimConfig::all_designs()
            .into_iter()
            .flat_map(|cfg| (0..23).map(move |w| Job::new(cfg.clone(), w, Scale::Default)))
            .collect();
        let refs: Vec<&Job> = jobs.iter().collect();
        let units = lockstep_units(&refs, None);
        let expected: Vec<Vec<usize>> = (0..23)
            .map(|w| (0..5).map(|d| d * 23 + w).collect())
            .collect();
        assert_eq!(units, expected);
    }

    #[test]
    fn custom_traces_are_never_memoized() {
        let trace = ehsim_energy::PowerTrace::constant(100.0);
        let cfg = SimConfig::wl_cache().with_custom_trace(trace);
        assert_eq!(memo_key(&Job::new(cfg, 0, Scale::Small)), None);
    }
}
