//! The top-level simulation driver.

use crate::lockstep::Lockstep;
use crate::machine::{Abort, Machine};
use crate::report::Report;
use crate::{SimConfig, SimError};
use ehsim_mem::{BusTrace, Workload};
use ehsim_obs::{ObserverBox, RunTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs workloads on a configured energy-harvesting machine.
///
/// See the crate-level example. `Simulator` is cheap to construct; each
/// [`Simulator::run`] builds a fresh machine, so runs are independent
/// and deterministic.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator for `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The configuration this simulator runs.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `workload` to completion on a fresh machine.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the energy source cannot sustain the
    /// workload ([`SimError::SourceDead`], [`SimError::TooManyOutages`]),
    /// if an invariant is violated ([`SimError::ReserveViolated`],
    /// [`SimError::ConsistencyViolation`] under
    /// [`SimConfig::verify`]), or if the workload itself panics.
    pub fn run(&self, workload: &dyn Workload) -> Result<Report, SimError> {
        self.run_with(workload, ObserverBox::Noop)
            .map(|(report, _)| report)
    }

    /// Runs `workload` with the recording observer attached and returns
    /// the [`Report`] together with the full event [`RunTrace`].
    ///
    /// The trace records lifecycle events (outages, JIT checkpoints,
    /// restores), DirtyQueue traffic, threshold reconfigurations and
    /// capacitor rail crossings; export it with
    /// [`RunTrace::chrome_trace`] or [`RunTrace::interval_metrics_tsv`].
    /// Observation never perturbs the simulation: the `Report` is
    /// identical to what [`Simulator::run`] returns.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run`]; the partial trace is
    /// discarded on error.
    pub fn run_traced(&self, workload: &dyn Workload) -> Result<(Report, RunTrace), SimError> {
        self.run_with(workload, ObserverBox::recording())
            .map(|(report, mut machine)| {
                let end = machine.now();
                (report, machine.take_observer().into_trace(end))
            })
    }

    /// Runs `workload` with a caller-supplied observer (e.g.
    /// [`ObserverBox::Custom`]); the machine is returned for
    /// observer retrieval via [`Machine::take_observer`].
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run`].
    pub fn run_with(
        &self,
        workload: &dyn Workload,
        obs: ObserverBox,
    ) -> Result<(Report, Machine), SimError> {
        let mut machine = Machine::with_observer(&self.cfg, workload.mem_bytes(), obs);
        let outcome = catch_unwind(AssertUnwindSafe(|| workload.run(&mut machine)));
        match outcome {
            Ok(checksum) => {
                let report = Report::from_machine(&machine, &self.cfg, workload.name(), checksum);
                machine.end_observation();
                Ok((report, machine))
            }
            Err(payload) => Err(abort_error(&mut machine, payload)),
        }
    }

    /// Runs `workload` once for every configuration in `cfgs`, as one
    /// lockstep group: the kernel executes once over a fan-out bus that
    /// issues each op to every configuration's machine, running all
    /// access halves before all settle halves so the machines'
    /// capacitor chains overlap. Results come back in `cfgs` order,
    /// each bit-identical to [`Simulator::run`] of that configuration.
    /// The machines share one simulated NVM, except those of verifying
    /// configurations ([`SimConfig::verify`]), which keep their own.
    /// Configurations of one [`AccessClass`](crate::AccessClass) run
    /// one access half between them until each one's first outage, and
    /// those of one [`ResidencyClass`](crate::ResidencyClass) one tag
    /// array. The `lockstep` module docs give the exactness arguments.
    ///
    /// If any machine aborts, the kernel panics, or a machine loads a
    /// value that differs from the first machine's, the group is
    /// dropped and every configuration reruns solo, so errors and
    /// checksums are exactly those of solo runs. Nothing is observed:
    /// a run that wants an event timeline goes through
    /// [`Simulator::run_with`].
    pub fn run_lockstep(
        cfgs: &[SimConfig],
        workload: &dyn Workload,
    ) -> Vec<Result<Report, SimError>> {
        Self::run_lockstep_with(cfgs, workload)
            .outcomes
            .into_iter()
            .map(|r| r.map(|(report, _)| report))
            .collect()
    }

    /// [`Simulator::run_lockstep`], returning each configuration's
    /// machine beside its report, as [`Simulator::run_with`] does, and
    /// how the group ran.
    pub fn run_lockstep_with(cfgs: &[SimConfig], workload: &dyn Workload) -> LockstepRun {
        if cfgs.len() > 1 {
            let mut group = Lockstep::new(cfgs, workload.mem_bytes());
            let followers = group.followers();
            if let Ok(checksum) = catch_unwind(AssertUnwindSafe(|| workload.run(&mut group))) {
                let residency_followers = group.residency_followers();
                let outcomes = group
                    .into_machines()
                    .into_iter()
                    .zip(cfgs)
                    .map(|(mut machine, cfg)| {
                        let report = Report::from_machine(&machine, cfg, workload.name(), checksum);
                        machine.end_observation();
                        Ok((report, machine))
                    })
                    .collect();
                return LockstepRun {
                    outcomes,
                    followers,
                    residency_followers,
                    fell_back: false,
                };
            }
        }
        LockstepRun {
            outcomes: cfgs
                .iter()
                .map(|cfg| Simulator::new(cfg.clone()).run_with(workload, ObserverBox::Noop))
                .collect(),
            followers: 0,
            residency_followers: 0,
            fell_back: cfgs.len() > 1,
        }
    }

    /// Replays a recorded [`BusTrace`] on a fresh machine, with a
    /// caller-supplied observer; the machine is returned for observer
    /// retrieval. A [`BusTrace`] is a [`Workload`], so this is
    /// [`Simulator::run_with`] on the trace, and [`Simulator::run`]
    /// replays one too.
    ///
    /// This is the trace-driven twin of direct execution: the machine
    /// is driven from the captured op stream instead of re-executing the
    /// kernel, issuing each load/store/compute in recorded program order
    /// so the capacitor settles after every operation exactly as it does
    /// under direct execution. The resulting [`Report`] is
    /// **bit-identical** to running the original workload (stores carry
    /// zero values, which timing/energy/stats never observe; the
    /// recorded kernel checksum is reported — see the
    /// `ehsim_mem::record` module docs for the full exactness argument,
    /// and the replay-equivalence suite for the pin).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Simulator::run`].
    pub fn replay_with(
        &self,
        trace: &BusTrace,
        obs: ObserverBox,
    ) -> Result<(Report, Machine), SimError> {
        self.run_with(trace, obs)
    }
}

/// The outcome of [`Simulator::run_lockstep_with`].
#[derive(Debug)]
pub struct LockstepRun {
    /// Each configuration's report and machine, or its error, in
    /// configuration order.
    pub outcomes: Vec<Result<(Report, Machine), SimError>>,
    /// Members that followed another member's access half, from the
    /// start until their first outage or the end of the run. 0 when the
    /// group fell back.
    pub followers: usize,
    /// Members that followed a residency-class lead's tag array, for
    /// the whole run or until they left their class. 0 when the group
    /// fell back.
    pub residency_followers: usize,
    /// Whether the group was dropped and every member rerun solo.
    pub fell_back: bool,
}

/// Converts a caught panic into the [`SimError`] the machine recorded
/// before aborting, or a [`SimError::WorkloadPanic`] for genuine panics.
fn abort_error(machine: &mut Machine, payload: Box<dyn std::any::Any + Send>) -> SimError {
    if let Some(err) = machine.take_error() {
        return err;
    }
    let msg = if payload.is::<Abort>() {
        "machine aborted without a recorded error".to_string()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    SimError::WorkloadPanic(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_energy::TraceKind;
    use ehsim_mem::Bus;

    struct Stream {
        words: u32,
    }
    impl Workload for Stream {
        fn name(&self) -> &str {
            "stream"
        }
        fn mem_bytes(&self) -> u32 {
            self.words * 4
        }
        fn run(&self, bus: &mut dyn Bus) -> u64 {
            let mut acc = 0u64;
            for i in 0..self.words {
                bus.store_u32(i * 4, i.wrapping_mul(2654435761));
            }
            for i in 0..self.words {
                acc = acc.wrapping_add(u64::from(bus.load_u32(i * 4)));
                bus.compute(3);
            }
            acc
        }
    }

    #[test]
    fn checksums_match_across_all_designs_and_traces() {
        let w = Stream { words: 2048 };
        let mut functional = ehsim_mem::FunctionalMem::new(w.mem_bytes());
        let expected = w.run(&mut functional);
        for trace in [TraceKind::None, TraceKind::Rf1, TraceKind::Rf3] {
            for cfg in SimConfig::all_designs() {
                let label = cfg.design.label();
                let r = Simulator::new(cfg.with_trace(trace).with_verify())
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{label} on {trace:?}: {e}"));
                assert_eq!(r.checksum, expected, "{label} on {trace:?}");
            }
        }
    }

    #[test]
    fn workload_panics_are_reported() {
        struct Boom;
        impl Workload for Boom {
            fn name(&self) -> &str {
                "boom"
            }
            fn mem_bytes(&self) -> u32 {
                64
            }
            fn run(&self, _bus: &mut dyn Bus) -> u64 {
                panic!("kaboom");
            }
        }
        let err = Simulator::new(SimConfig::wl_cache())
            .run(&Boom)
            .unwrap_err();
        assert!(matches!(err, SimError::WorkloadPanic(ref m) if m.contains("kaboom")));
    }

    #[test]
    fn traced_run_is_bit_identical_and_reconciles() {
        let w = Stream { words: 65536 };
        let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf1);
        let plain = Simulator::new(cfg.clone()).run(&w).unwrap();
        let (traced, trace) = Simulator::new(cfg).run_traced(&w).unwrap();
        // The recording observer must not perturb the simulation at all.
        assert_eq!(plain, traced);
        // Event counts reconcile with the report's own counters.
        assert!(traced.outages > 0, "rf1 must cause outages");
        assert_eq!(trace.counters.outages, traced.outages);
        assert_eq!(trace.counters.checkpoints, traced.outages);
        let wl = traced.wl.as_ref().unwrap();
        assert_eq!(
            trace.counters.reconfigurations + trace.counters.dyn_raises,
            wl.reconfigurations
        );
        assert_eq!(trace.counters.dyn_raises, wl.dyn_raises);
        // One PowerOn per power-on interval: boot + one per outage.
        assert_eq!(trace.counters.power_ons, traced.outages + 1);
        assert_eq!(trace.histograms.dirty_at_checkpoint.count(), traced.outages);
    }

    #[test]
    fn replay_is_bit_identical_to_direct_execution() {
        let w = Stream { words: 4096 };
        let trace = BusTrace::record(&w);
        for kind in [TraceKind::None, TraceKind::Rf1] {
            for cfg in SimConfig::all_designs() {
                let cfg = cfg.with_trace(kind).with_verify();
                let label = cfg.design.label();
                let sim = Simulator::new(cfg);
                let direct = sim
                    .run(&w)
                    .unwrap_or_else(|e| panic!("{label} direct on {kind:?}: {e}"));
                let replayed = sim
                    .run(&trace)
                    .unwrap_or_else(|e| panic!("{label} replay on {kind:?}: {e}"));
                assert_eq!(direct, replayed, "{label} on {kind:?}");
            }
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let w = Stream { words: 1024 };
        let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf2);
        let a = Simulator::new(cfg.clone()).run(&w).unwrap();
        let b = Simulator::new(cfg).run(&w).unwrap();
        assert_eq!(a.total_time_ps, b.total_time_ps);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.checksum, b.checksum);
    }
}
