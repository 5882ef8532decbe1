//! Sweep-wide phase-attribution profiler.
//!
//! Splits a sweep's wall time into named [`Phase`]s via hierarchical
//! scoped timers. Time comes from a [`Clock`] implementation *injected
//! by the caller*: this crate is on the deterministic side of the
//! workspace (lint L002 bans `std::time::Instant` here), so the only
//! clock defined here is [`NullClock`], which always reads 0. The
//! wall-clock implementation lives in `ehsim-bench`/`ehsim-cli`, the
//! two crates allowed to observe real time — deterministic crates
//! instead contribute *op counts* ([`Profiler::add_ops`]: settlement
//! windows, observer events) that the report prints next to the wall
//! numbers.
//!
//! Attribution model: each scope adds its duration to its phase's
//! `total_ns` and its duration *minus nested scopes* to `self_ns`
//! (per-thread scope stack, so worker threads profile independently).
//! A sweep's attributed share is the sum of `self_ns` over all phases
//! except [`Phase::WorkerWait`], whose self time is the main thread
//! blocking on the worker pool — wall time that the workers' own
//! phases already account for. On a single-core host the two views
//! coincide and `attributed_pct` reads directly as coverage; with more
//! cores the sum can legitimately exceed the wall clock.
//!
//! A disabled profiler is free along the hot path: [`Profiler::scope`]
//! returns an inert guard after one relaxed atomic load and never
//! reads the clock.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic time source, in nanoseconds from an arbitrary epoch.
///
/// Implementations live outside the deterministic crates (lint L002):
/// `ehsim-bench` injects an `Instant`-based wall clock; everything in
/// this crate defaults to [`NullClock`].
pub trait Clock: Send + Sync {
    /// Current reading in nanoseconds. Must be monotonic.
    fn now_ns(&self) -> u64;
}

/// The deterministic default clock: always reads 0, so every scoped
/// duration is 0 and profiles carry op counts only.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullClock;

impl Clock for NullClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// The named phases a sweep's wall time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// One simulation: the kernel running on the simulated machine.
    DirectSim,
    /// Capacitor settlement windows (op count from the machine; the
    /// wall share is inside `DirectSim`).
    Settle,
    /// Observer event emission (op count from the machine; the wall
    /// share is inside `DirectSim`).
    ObserverEmit,
    /// Memo-key construction, cache resolution and result publication.
    MemoLookup,
    /// One load from or save to the persistent result store
    /// (`EHSIM_RESULT_STORE`) around a memo miss.
    StoreIo,
    /// Rendering and saving `results/*.tsv`.
    TsvWrite,
    /// Figure-level reduction (everything in a figure not claimed by a
    /// nested phase).
    Reduce,
    /// Main thread blocked on the worker pool (excluded from
    /// attribution; the workers' phases cover this wall time).
    WorkerWait,
}

impl Phase {
    /// Every phase, in report order.
    pub const ALL: [Phase; 8] = [
        Phase::DirectSim,
        Phase::Settle,
        Phase::ObserverEmit,
        Phase::MemoLookup,
        Phase::StoreIo,
        Phase::TsvWrite,
        Phase::Reduce,
        Phase::WorkerWait,
    ];

    /// Stable wire name (used in the progress stream and reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::DirectSim => "direct-sim",
            Phase::Settle => "settle",
            Phase::ObserverEmit => "observer-emit",
            Phase::MemoLookup => "memo-lookup",
            Phase::StoreIo => "store-io",
            Phase::TsvWrite => "tsv-write",
            Phase::Reduce => "reduce",
            Phase::WorkerWait => "worker-wait",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether this phase's self time counts toward `attributed_pct`
    /// (everything except [`Phase::WorkerWait`]; see the module docs).
    pub fn attributable(self) -> bool {
        !matches!(self, Phase::WorkerWait)
    }

    fn index(self) -> usize {
        self as usize
    }
}

#[derive(Default)]
struct PhaseStat {
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    count: AtomicU64,
    ops: AtomicU64,
}

thread_local! {
    /// Per-thread scope stack: (profiler identity, child-time
    /// accumulator in ns). Only same-profiler nesting subtracts.
    static SCOPES: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// Hierarchical phase profiler. Cheap to share behind a `'static`
/// reference; all accumulation is relaxed-atomic, all nesting state is
/// thread-local.
pub struct Profiler {
    clock: Arc<dyn Clock>,
    enabled: AtomicBool,
    phases: [PhaseStat; Phase::ALL.len()],
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new(Arc::new(NullClock))
    }
}

impl Profiler {
    /// A profiler reading `clock`, initially disabled.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Profiler {
            clock,
            enabled: AtomicBool::new(false),
            phases: Default::default(),
        }
    }

    /// Turns profiling on or off. Scopes opened while disabled never
    /// read the clock and record nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether scopes currently record.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a scoped timer for `phase`; the time until the guard drops
    /// is attributed to it (minus any scopes nested inside).
    #[must_use = "the scope measures until the guard is dropped"]
    pub fn scope(&self, phase: Phase) -> ScopeGuard<'_> {
        if !self.enabled() {
            return ScopeGuard {
                profiler: None,
                phase,
                start_ns: 0,
            };
        }
        SCOPES.with(|s| s.borrow_mut().push((self as *const Profiler as usize, 0)));
        ScopeGuard {
            profiler: Some(self),
            phase,
            start_ns: self.clock.now_ns(),
        }
    }

    /// Adds `n` operations to `phase`'s op counter (the deterministic
    /// crates' contribution: settlement windows, observer events).
    pub fn add_ops(&self, phase: Phase, n: u64) {
        if self.enabled() && n > 0 {
            self.phases[phase.index()]
                .ops
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot of everything accumulated so far.
    pub fn snapshot(&self) -> Vec<PhaseRow> {
        Phase::ALL
            .into_iter()
            .map(|p| {
                let st = &self.phases[p.index()];
                PhaseRow {
                    phase: p.name().to_string(),
                    total_ns: st.total_ns.load(Ordering::Relaxed),
                    self_ns: st.self_ns.load(Ordering::Relaxed),
                    count: st.count.load(Ordering::Relaxed),
                    ops: st.ops.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Builds the end-of-sweep [`ProfileReport`] against a measured
    /// wall time, attaching flattened metrics pairs.
    pub fn report(&self, wall_ns: u64, metrics: Vec<(String, String)>) -> ProfileReport {
        let phases = self.snapshot();
        let attributed: u64 = phases
            .iter()
            .filter(|r| Phase::from_name(&r.phase).is_some_and(Phase::attributable))
            .map(|r| r.self_ns)
            .sum();
        let attributed_pct = if wall_ns == 0 {
            0.0
        } else {
            100.0 * attributed as f64 / wall_ns as f64
        };
        ProfileReport {
            wall_ns,
            attributed_pct,
            phases,
            metrics,
        }
    }
}

/// Guard returned by [`Profiler::scope`]; attributes the elapsed time
/// on drop.
#[must_use]
pub struct ScopeGuard<'a> {
    profiler: Option<&'a Profiler>,
    phase: Phase,
    start_ns: u64,
}

impl Drop for ScopeGuard<'_> {
    fn drop(&mut self) {
        let Some(p) = self.profiler else { return };
        let dt = p.clock.now_ns().saturating_sub(self.start_ns);
        let id = p as *const Profiler as usize;
        let child_ns = SCOPES.with(|s| {
            let mut stack = s.borrow_mut();
            let child = match stack.pop() {
                Some((owner, child)) if owner == id => child,
                // Stack desync (a guard leaked across threads): drop the
                // entry back and attribute nothing nested.
                Some(other) => {
                    stack.push(other);
                    0
                }
                None => 0,
            };
            if let Some((owner, parent_child)) = stack.last_mut() {
                if *owner == id {
                    *parent_child += dt;
                }
            }
            child
        });
        let st = &p.phases[self.phase.index()];
        st.total_ns.fetch_add(dt, Ordering::Relaxed);
        st.self_ns
            .fetch_add(dt.saturating_sub(child_ns), Ordering::Relaxed);
        st.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// One phase's accumulated numbers in a snapshot/report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// [`Phase::name`] (kept as a string so reports round-trip even if
    /// a reader is older than the writer).
    pub phase: String,
    /// Total nanoseconds inside scopes of this phase.
    pub total_ns: u64,
    /// Nanoseconds not claimed by nested scopes.
    pub self_ns: u64,
    /// Number of scopes.
    pub count: u64,
    /// Operation count contributed via [`Profiler::add_ops`].
    pub ops: u64,
}

/// The end-of-sweep profile: wall time, per-phase attribution, and the
/// sweep's flattened metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Measured wall-clock duration of the sweep in nanoseconds.
    pub wall_ns: u64,
    /// Percentage of `wall_ns` covered by attributable self time (can
    /// exceed 100 on multi-core hosts; see the module docs).
    pub attributed_pct: f64,
    /// Per-phase rows in [`Phase::ALL`] order.
    pub phases: Vec<PhaseRow>,
    /// Flattened metrics as `(name, rendered value)` pairs.
    pub metrics: Vec<(String, String)>,
}

impl ProfileReport {
    /// Serializes the report as one JSONL object (`"kind":"profile"`,
    /// no trailing newline) for the sweep progress stream.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"kind\":\"profile\",\"wall_ns\":{},\"attributed_pct\":{}",
            self.wall_ns, self.attributed_pct
        );
        s.push_str(",\"phases\":[");
        for (i, r) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"phase\":\"{}\",\"total_ns\":{},\"self_ns\":{},\"count\":{},\"ops\":{}}}",
                crate::progress::sanitize_field(&r.phase),
                r.total_ns,
                r.self_ns,
                r.count,
                r.ops
            );
        }
        s.push_str("],\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\"{}\":\"{}\"",
                crate::progress::sanitize_field(name),
                crate::progress::sanitize_field(value)
            );
        }
        s.push_str("}}");
        s
    }

    /// Parses a line written by [`ProfileReport::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed part.
    pub fn parse(line: &str) -> Result<ProfileReport, String> {
        use crate::stream::{field_num, unquote};
        if crate::stream::field_str(line, "kind")? != "profile" {
            return Err(format!("not a profile line: `{line}`"));
        }
        let head = line
            .split_once("\"phases\":[")
            .ok_or_else(|| format!("missing phases array in `{line}`"))?;
        let wall_ns = field_num(head.0, "wall_ns")?;
        let attributed_pct = field_num(head.0, "attributed_pct")?;
        let (phases_raw, rest) = head
            .1
            .split_once(']')
            .ok_or_else(|| format!("unterminated phases array in `{line}`"))?;
        let mut phases = Vec::new();
        if !phases_raw.is_empty() {
            for chunk in phases_raw.split("},{") {
                let obj = format!("{{{}}}", chunk.trim_matches(['{', '}']));
                phases.push(PhaseRow {
                    phase: crate::stream::field_str(&obj, "phase")?.to_string(),
                    total_ns: field_num(&obj, "total_ns")?,
                    self_ns: field_num(&obj, "self_ns")?,
                    count: field_num(&obj, "count")?,
                    ops: field_num(&obj, "ops")?,
                });
            }
        }
        let metrics_raw = rest
            .split_once("\"metrics\":{")
            .and_then(|(_, r)| r.split_once('}'))
            .map(|(m, _)| m)
            .ok_or_else(|| format!("missing metrics object in `{line}`"))?;
        let mut metrics = Vec::new();
        for pair in metrics_raw.split(',').filter(|p| !p.is_empty()) {
            let (name, value) = pair
                .split_once(':')
                .and_then(|(n, v)| Some((unquote(n)?, unquote(v)?)))
                .ok_or_else(|| format!("malformed metrics pair `{pair}`"))?;
            metrics.push((name.to_string(), value.to_string()));
        }
        Ok(ProfileReport {
            wall_ns,
            attributed_pct,
            phases,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic test clock: each reading advances by `step_ns`.
    struct TickClock {
        t: AtomicU64,
        step_ns: u64,
    }

    impl TickClock {
        fn new(step_ns: u64) -> Self {
            TickClock {
                t: AtomicU64::new(0),
                step_ns,
            }
        }
    }

    impl Clock for TickClock {
        fn now_ns(&self) -> u64 {
            self.t.fetch_add(self.step_ns, Ordering::Relaxed)
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::new(Arc::new(TickClock::new(10)));
        {
            let _g = p.scope(Phase::DirectSim);
        }
        p.add_ops(Phase::Settle, 100);
        let snap = p.snapshot();
        assert!(snap
            .iter()
            .all(|r| r.total_ns == 0 && r.count == 0 && r.ops == 0));
    }

    #[test]
    fn nested_scopes_split_self_time() {
        let p = Profiler::new(Arc::new(TickClock::new(10)));
        p.set_enabled(true);
        {
            let _outer = p.scope(Phase::Reduce); // t=0
            {
                let _inner = p.scope(Phase::MemoLookup); // t=10, drop reads t=20: dt=10
            }
            // outer drop reads t=30: dt=30, child=10
        }
        let snap = p.snapshot();
        let row = |name: &str| {
            snap.iter()
                .find(|r| r.phase == name)
                .cloned()
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(row("memo-lookup").total_ns, 10);
        assert_eq!(row("memo-lookup").self_ns, 10);
        assert_eq!(row("reduce").total_ns, 30);
        assert_eq!(row("reduce").self_ns, 20);
        assert_eq!(row("reduce").count, 1);
    }

    #[test]
    fn ops_accumulate_when_enabled() {
        let p = Profiler::default();
        p.set_enabled(true);
        p.add_ops(Phase::Settle, 7);
        p.add_ops(Phase::Settle, 5);
        let snap = p.snapshot();
        let settle = snap.iter().find(|r| r.phase == "settle").cloned();
        assert_eq!(settle.map(|r| r.ops), Some(12));
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn report_attributes_everything_but_worker_wait() {
        let p = Profiler::new(Arc::new(TickClock::new(25)));
        p.set_enabled(true);
        {
            let _g = p.scope(Phase::DirectSim); // dt = 25
        }
        {
            let _g = p.scope(Phase::WorkerWait); // dt = 25, excluded
        }
        let report = p.report(100, vec![("sims_run".into(), "4".into())]);
        assert!((report.attributed_pct - 25.0).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn profile_report_jsonl_round_trips() {
        let p = Profiler::new(Arc::new(TickClock::new(10)));
        p.set_enabled(true);
        {
            let _g = p.scope(Phase::DirectSim);
        }
        p.add_ops(Phase::Settle, 42);
        let report = p.report(
            12345,
            vec![
                ("engine".into(), "direct".into()),
                ("sims_run".into(), "552".into()),
            ],
        );
        let line = report.to_jsonl();
        let back = ProfileReport::parse(&line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back, report, "{line}");
    }
}
