//! The simulated energy-harvesting machine.

use crate::config::SimConfig;
use crate::design_box::DesignBox;
use crate::error::SimError;
use crate::params::{COMPUTE_CHUNK_CYCLES, MAX_RECHARGE_PS};
use ehsim_cache::{CacheDesign, CacheStats, MemCtx};
use ehsim_energy::{
    Capacitor, ChargingModel, EnergyCategory, EnergyMeter, TraceCursor, TraceKind,
    VoltageThresholds,
};
use ehsim_mem::{ps_to_f64, AccessSize, Bus, FunctionalMem, NvmPort, Pj, Ps};
use ehsim_obs::{Event, ObserverBox};

/// Panic payload used to abort a run from inside the [`Bus`] methods
/// (which cannot return `Result`); `Simulator::run` catches it and
/// surfaces the recorded [`SimError`].
pub(crate) struct Abort;

/// The energy-harvesting machine: an in-order core, one cache design,
/// NVM main memory, and a capacitor fed by a harvesting trace.
///
/// `Machine` implements [`Bus`], so workloads execute directly against
/// it. After every operation the machine integrates harvested energy,
/// drains consumed energy, and — when the voltage sags below the
/// design's `Vbackup` — runs the full power-failure protocol:
/// JIT checkpoint (design state + registers), power-off, recharge to
/// `Von`, reboot/restore, and adaptive threshold reconfiguration.
#[derive(Debug)]
pub struct Machine {
    design: DesignBox,
    port: NvmPort,
    timing: ehsim_mem::NvmTiming,
    energy: ehsim_mem::NvmEnergy,
    nvm: FunctionalMem,
    meter: EnergyMeter,
    stats: CacheStats,
    cap: Capacitor,
    cursor: TraceCursor,
    charging: ChargingModel,
    cpu: crate::CpuParams,
    failures_enabled: bool,
    /// Whether the design overrides `on_instructions` (ReplayCache
    /// only); when false, `retire_instruction` skips building a
    /// [`MemCtx`] — the default hook returns `ctx.now` unchanged.
    instr_hook: bool,
    verify_oracle: Option<FunctionalMem>,
    /// Line size used by the incremental consistency checker's write
    /// tracking (one cache line).
    verify_line_bytes: u32,
    max_outages: u64,
    /// Event sink. [`ObserverBox::Noop`] by default; every emission site
    /// is guarded by [`ObserverBox::enabled`] and observers can never
    /// mutate simulation state, so results are bit-identical with or
    /// without one attached.
    obs: ObserverBox,
    /// Whether the sink asked for per-settlement
    /// [`Event::VoltageSample`]s (cached at construction; the answer is
    /// part of the observer's type, not its state).
    obs_voltage: bool,
    /// Cumulative trace-side harvested energy (pJ), maintained only
    /// while an observer is attached — it feeds
    /// [`Event::EnergySample`]s and nothing in the simulation reads it.
    harvested_pj: Pj,

    booted: bool,
    now: Ps,
    boot_time: Ps,
    last_sync: Ps,
    /// `meter.total()` as of the last drain of the capacitor.
    drained_pj: Pj,
    instructions: u64,
    outages: u64,
    /// Settlement windows resolved: one per [`Machine::settle_window`]
    /// call, i.e. one per bus op and one per compute chunk. Telemetry
    /// only — nothing simulated reads it.
    settles: u64,
    off_time_ps: Ps,
    checkpoint_time_ps: Ps,
    restore_time_ps: Ps,
    error: Option<SimError>,
}

impl Machine {
    /// Builds a machine for `cfg` with an NVM of at least `mem_bytes`
    /// bytes (rounded up to a whole number of cache lines).
    pub fn new(cfg: &SimConfig, mem_bytes: u32) -> Self {
        Self::with_observer(cfg, mem_bytes, ObserverBox::Noop)
    }

    /// [`Machine::new`] with an event sink attached. The observer only
    /// watches — simulated results are identical to an unobserved run.
    pub fn with_observer(cfg: &SimConfig, mem_bytes: u32, obs: ObserverBox) -> Self {
        let design = DesignBox::from_config(cfg);
        let line = cfg.geometry.line_bytes();
        let size = mem_bytes.max(line).div_ceil(line) * line;
        let failures = cfg.custom_trace.is_some() || cfg.trace != TraceKind::None;
        let mut cap = Capacitor::with_uf(cfg.capacitor_uf, 2.8, 3.5);
        // With failures enabled, the node starts unpowered and must
        // first harvest its way up to `Von` — the initial charge is what
        // makes oversized capacitors slow (Fig 10(b)). Without a trace,
        // the buffer is simply full.
        if failures {
            cap.set_voltage(0.0);
        } else {
            cap.set_voltage(design.thresholds().v_on.min(cap.v_max()));
        }
        let trace = cfg
            .custom_trace
            .clone()
            .unwrap_or_else(|| cfg.trace.build());
        let mut nvm = FunctionalMem::new(size);
        let verify_oracle = cfg.verify.then(|| {
            // Track NVM writes and oracle (store) writes at line
            // granularity: the union of both sets covers every address
            // at which the persistent view or the oracle can have
            // changed since the previous consistency check.
            nvm.enable_write_tracking(line);
            let mut oracle = FunctionalMem::new(size);
            oracle.enable_write_tracking(line);
            oracle
        });
        let instr_hook = design.has_instruction_hook();
        let mut obs = obs;
        if let Some(wl) = design.as_wl() {
            obs.emit(0, || {
                let t = wl.thresholds_config();
                Event::InitialThresholds {
                    maxline: t.maxline(),
                    waterline: t.waterline(),
                }
            });
        }
        Self {
            design,
            port: NvmPort::new(),
            timing: cfg.nvm_timing.clone(),
            energy: cfg.nvm_energy.clone(),
            nvm,
            meter: EnergyMeter::new(),
            stats: CacheStats::new(),
            cap,
            cursor: trace.cursor(),
            charging: cfg.charging.clone(),
            cpu: cfg.cpu.clone(),
            failures_enabled: failures,
            instr_hook,
            verify_oracle,
            verify_line_bytes: line,
            max_outages: cfg.max_outages,
            obs_voltage: obs.voltage_sampling(),
            obs,
            harvested_pj: 0.0,
            booted: false,
            now: 0,
            boot_time: 0,
            last_sync: 0,
            drained_pj: 0.0,
            instructions: 0,
            outages: 0,
            settles: 0,
            off_time_ps: 0,
            checkpoint_time_ps: 0,
            restore_time_ps: 0,
            error: None,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// Total retired instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Power outages endured so far.
    pub fn outages(&self) -> u64 {
        self.outages
    }

    /// Settlement windows resolved so far: one per bus op plus one per
    /// `COMPUTE_CHUNK_CYCLES` chunk of each compute stretch (telemetry
    /// op count for the sweep profiler's `settle` phase).
    pub fn settle_windows(&self) -> u64 {
        self.settles
    }

    /// Accumulated off (recharge) time.
    pub fn off_time_ps(&self) -> Ps {
        self.off_time_ps
    }

    /// Accumulated JIT-checkpoint time (design flush + register save).
    pub fn checkpoint_time_ps(&self) -> Ps {
        self.checkpoint_time_ps
    }

    /// Accumulated restore time (design reboot + register restore).
    pub fn restore_time_ps(&self) -> Ps {
        self.restore_time_ps
    }

    /// Energy meter (consumption by category).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Cache statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The cache design under simulation.
    pub fn design(&self) -> &DesignBox {
        &self.design
    }

    /// The design's voltage thresholds (`Von`/`Vbackup`/`Vmin`), e.g.
    /// for overlaying rails on an exported voltage trajectory.
    pub fn voltage_thresholds(&self) -> VoltageThresholds {
        self.design.thresholds()
    }

    /// The attached event sink.
    pub fn observer(&self) -> &ObserverBox {
        &self.obs
    }

    /// Detaches the event sink (replacing it with the no-op), e.g. to
    /// finish a recording into a `RunTrace` after the workload ran.
    pub fn take_observer(&mut self) -> ObserverBox {
        std::mem::take(&mut self.obs)
    }

    /// Signals the end of observation: emits the final cumulative
    /// [`Event::EnergySample`] (closing the last power-on interval's
    /// energy accounting) and forwards `Observer::end`, which delivers
    /// the terminating `RunEnd` and lets buffered sinks (the streaming
    /// observer) flush. A no-op without an observer. Call once, after
    /// the workload finished and before [`Machine::take_observer`].
    pub fn end_observation(&mut self) {
        self.emit_energy_sample();
        self.obs.end(self.now);
    }

    /// Emits the cumulative harvested/consumed totals at `now`;
    /// consecutive samples telescope into exact per-interval deltas.
    fn emit_energy_sample(&mut self) {
        self.obs.emit(self.now, || Event::EnergySample {
            harvested_pj: self.harvested_pj,
            consumed_pj: self.meter.total(),
        });
    }

    /// The error that aborted the run, if any.
    pub(crate) fn take_error(&mut self) -> Option<SimError> {
        self.error.take()
    }

    fn abort(&mut self, e: SimError) -> ! {
        self.error = Some(e);
        std::panic::panic_any(Abort)
    }

    /// Entry check of every [`Bus`] op: one branch on the common path
    /// (booted, no error), the abort re-raise and first boot out of
    /// line.
    #[inline]
    pub(crate) fn enter(&mut self) {
        if !(self.booted && self.error.is_none()) {
            self.enter_slow();
        }
    }

    #[cold]
    #[inline(never)]
    fn enter_slow(&mut self) {
        if self.error.is_some() {
            std::panic::panic_any(Abort)
        }
        self.boot();
    }

    /// The failure-free half of settlement: accrues the static draw
    /// since the previous settlement (stalls are not energy-free) and
    /// moves `last_sync` to `now`. Returns the window length, which the
    /// capacitor step integrates harvest over. Inlined into every op;
    /// on a run without failures it is all of settlement.
    #[inline(always)]
    fn accrue_static(&mut self) -> Ps {
        let dt = self.now - self.last_sync;
        if dt > 0 {
            self.meter.add(
                EnergyCategory::Compute,
                ps_to_f64(dt) * self.cpu.static_power_uw * 1e-6,
            );
        }
        self.last_sync = self.now;
        dt
    }

    /// Integrates harvested energy and drains metered consumption,
    /// without triggering the failure protocol: the settlement of the
    /// outage protocol's checkpoint and restore windows, which only
    /// runs with failures enabled.
    fn sync_energy(&mut self) {
        let dt = self.accrue_static();
        self.step_capacitor(dt);
    }

    /// The capacitor half of settlement over a window of `dt`: harvest,
    /// then drain what was metered since the previous drain. Runs only
    /// with failures enabled, and also for `dt == 0`, because the drain
    /// must still happen then.
    ///
    /// `drained_pj` holds `meter.total()` as of the previous drain, and
    /// the drain is the fresh total minus it. `total()` is a fixed
    /// left-to-right sum over the category fields, so summing once per
    /// settlement yields the exact values the seed computed by
    /// re-summing (twice); accumulating deltas instead would round
    /// differently and was rejected. Every caller metered something
    /// just before (the retire, the compute chunk, the register
    /// checkpoint or restore), and were that ever not so the total
    /// would equal `drained_pj` bit for bit and the `spent > 0.0` guard
    /// would skip the drain.
    #[inline(always)]
    fn step_capacitor(&mut self, dt: Ps) {
        let v_before = self.cap.voltage();
        if dt > 0 {
            let harvested = self.cursor.advance(dt);
            let eta = self.charging.efficiency(self.cap.voltage());
            self.cap.charge_pj(harvested * eta);
            if self.obs.enabled() {
                self.harvested_pj += harvested;
            }
        }
        let total = self.meter.total();
        let spent = total - self.drained_pj;
        if spent > 0.0 {
            self.cap.drain_pj(spent);
        }
        self.drained_pj = total;
        if self.obs.enabled() {
            let th = self.design.thresholds();
            Self::emit_crossings(&mut self.obs, &th, self.now, v_before, self.cap.voltage());
            if self.obs_voltage && dt > 0 {
                let voltage = self.cap.voltage();
                self.obs.emit(self.now, || Event::VoltageSample { voltage });
            }
        }
    }

    /// Reports every named-rail crossing of the step `v0 → v1`. Callers
    /// check `obs.enabled()` first, so an untraced run skips the scan.
    fn emit_crossings(obs: &mut ObserverBox, th: &VoltageThresholds, at: Ps, v0: f64, v1: f64) {
        for (rail, rising) in th.crossings(v0, v1).into_iter().flatten() {
            obs.emit(at, || Event::VoltageCross { rail, rising });
        }
    }

    /// First power-up: harvest from an empty capacitor to `Von` before
    /// any work happens. This initial charge is part of execution time
    /// (the paper's Fig 10(b) sweeps hinge on it) but is not an outage.
    fn boot(&mut self) {
        self.booted = true;
        if self.failures_enabled {
            self.recharge_to_von();
            self.boot_time = self.now;
            self.last_sync = self.now;
        }
        self.obs.emit(self.now, || Event::PowerOn { interval: 0 });
    }

    /// The end of an op's access half: counts one settlement window
    /// and accrues its static energy. Returns the window's `dt`, which
    /// [`Machine::settle_window`] takes.
    #[inline(always)]
    fn open_window(&mut self) -> Ps {
        self.settles += 1;
        self.accrue_static()
    }

    /// An op's settle half: the capacitor step over the window `dt`
    /// from its access half, then the power-failure check. One
    /// out-of-line call, made only when failures are enabled, so a
    /// failure-free run never touches the capacitor.
    #[inline(always)]
    pub(crate) fn settle_window(&mut self, dt: Ps) {
        if self.failures_enabled {
            self.settle_capacitor(dt);
        }
    }

    /// The capacitor step of one settlement window, then the
    /// power-failure check.
    #[inline(never)]
    fn settle_capacitor(&mut self, dt: Ps) {
        self.step_capacitor(dt);
        // `Vbackup` must be re-read from the design on every check:
        // WL-Cache(dyn) raises it mid-run via the opportunistic
        // dynamic `maxline` raise, not only at reboot.
        while self.cap.voltage() < self.design.thresholds().v_backup {
            self.power_failure();
        }
    }

    /// The full outage protocol (§3.2): checkpoint, verify, power off,
    /// recharge to `Von`, reboot, adapt.
    fn power_failure(&mut self) {
        if self.outages >= self.max_outages {
            self.abort(SimError::TooManyOutages {
                limit: self.max_outages,
            });
        }
        let fail_at = self.now;
        let on_time = self.now - self.boot_time;
        self.obs.emit(self.now, || Event::OutageBegin {
            on_ps: on_time,
            voltage: self.cap.voltage(),
        });
        self.obs.emit(self.now, || Event::CheckpointBegin {
            dirty_lines: self.design.dirty_lines(),
        });
        let ckpt_lines_before = self.stats.checkpoint_lines;

        // JIT checkpoint: dirty lines (design-specific) + registers.
        let done = self.with_ctx(|design, ctx| design.checkpoint(ctx));
        self.now = done + self.cpu.reg_checkpoint_ps;
        self.meter
            .add(EnergyCategory::Compute, self.cpu.reg_checkpoint_pj);
        self.sync_energy();
        self.checkpoint_time_ps += self.now - fail_at;
        // Energy totals close the interval just before its
        // CheckpointEnd.
        self.emit_energy_sample();
        self.obs.emit(self.now, || Event::CheckpointEnd {
            flushed_lines: self.stats.checkpoint_lines - ckpt_lines_before,
        });

        // The reserve below Vbackup must have covered the checkpoint.
        let v_min = self.design.thresholds().v_min;
        if self.cap.voltage() < v_min - 1e-9 {
            let voltage = self.cap.voltage();
            self.abort(SimError::ReserveViolated { voltage, v_min });
        }

        // Crash-consistency verification: persistent state must
        // reconstruct the oracle.
        if self.verify_oracle.is_some() {
            self.verify_consistency();
        }

        // Power off: volatile state is lost.
        self.design.power_off();
        self.port.reset();
        self.obs.emit(self.now, || Event::PowerOff);

        // Recharge to the design's Von.
        self.recharge_to_von();
        self.last_sync = self.now;
        self.obs.emit(self.now, || Event::RestoreBegin);

        // Reboot: restore registers, warm/cold cache, adapt thresholds.
        let boot_start = self.now;
        let done = self.with_ctx(|design, ctx| design.reboot(ctx, on_time));
        self.now = done + self.cpu.reg_restore_ps;
        self.meter
            .add(EnergyCategory::Compute, self.cpu.reg_restore_pj);
        self.sync_energy();
        self.restore_time_ps += self.now - boot_start;
        self.obs.emit(self.now, || Event::RestoreEnd);
        self.obs.emit(self.now, || Event::PowerOn {
            interval: self.outages + 1,
        });

        self.outages += 1;
        self.boot_time = self.now;
    }

    /// Incremental crash-consistency check: compares the persistent
    /// view against the oracle only at the lines written (to NVM, or to
    /// the oracle by stores) since the previous check, in ascending
    /// address order — aborting with the same
    /// [`SimError::ConsistencyViolation`] (`addr`/`expected`/`actual`)
    /// the seed's full scan reported.
    ///
    /// Why the candidate set suffices: at the previous check every byte
    /// of the view matched the oracle. A byte of the *oracle* changes
    /// only through a store (tracked by the oracle's writes). A byte of
    /// the *view* is either NVM (every NVM write is tracked — demand
    /// evictions, cleanings, drains, checkpoints, replay landings all go
    /// through `FunctionalMem`) or a valid line of an NV array, whose
    /// contents change only through stores — which update the oracle at
    /// the same addresses and are therefore tracked too. Fills copy NVM
    /// bytes verbatim and evictions of clean lines drop data equal to
    /// NVM, so coverage transitions never change the view. In debug
    /// builds the full-overlay scan cross-checks this argument on every
    /// outage.
    fn verify_consistency(&mut self) {
        let Some(oracle) = self.verify_oracle.as_mut() else {
            return; // verification disabled for this run
        };
        let mut lines: Vec<u32> = Vec::new();
        self.nvm.take_written_lines(&mut lines);
        oracle.take_written_lines(&mut lines);
        lines.sort_unstable();
        lines.dedup();

        let oracle = &*oracle;
        let lb = self.verify_line_bytes as usize;
        let mut mismatch: Option<(u32, u8, u8)> = None;
        'scan: for &base in &lines {
            let a = base as usize;
            let view: &[u8] = match self.design.persistent_line(base) {
                Some(cached) => cached,
                None => &self.nvm.as_bytes()[a..a + lb],
            };
            let expected = &oracle.as_bytes()[a..a + lb];
            for (addr, (v, e)) in (base..).zip(view.iter().zip(expected)) {
                if v != e {
                    mismatch = Some((addr, *e, *v));
                    break 'scan;
                }
            }
        }

        #[cfg(debug_assertions)]
        {
            // Oracle the oracle: the seed's full clone-and-scan must
            // agree with the incremental verdict.
            let full_view = self.design.persistent_overlay(&self.nvm);
            let full = full_view
                .as_bytes()
                .iter()
                .zip(oracle.as_bytes())
                .position(|(a, b)| a != b);
            assert_eq!(
                full,
                mismatch.map(|(addr, ..)| addr as usize),
                "incremental consistency check diverged from the full scan"
            );
        }

        if let Some((addr, expected, actual)) = mismatch {
            let e = SimError::ConsistencyViolation {
                addr,
                expected,
                actual,
                outage: self.outages,
            };
            self.abort(e);
        }
    }

    /// Charges the (powered-off) capacitor up to the design's `Von`,
    /// stepping the voltage so the front end's falling efficiency near
    /// `Vmax` is honoured; the elapsed time is counted as off-time.
    fn recharge_to_von(&mut self) {
        let v_start = self.cap.voltage();
        let v_on = self.design.thresholds().v_on.min(self.cap.v_max());
        let mut budget = MAX_RECHARGE_PS;
        while self.cap.voltage() < v_on - 1e-12 {
            let v = self.cap.voltage();
            let v_next = (v + 0.05).min(v_on);
            let need = self.cap.energy_between_pj(v_next, v);
            let eta = self.charging.efficiency((v + v_next) / 2.0);
            let dead = eta <= 1e-6;
            let dt = (!dead)
                .then(|| self.cursor.time_to_harvest(need / eta, budget))
                .flatten();
            match dt {
                Some(dt) => {
                    self.now += dt;
                    self.off_time_ps += dt;
                    budget = budget.saturating_sub(dt);
                    self.cap.set_voltage(v_next);
                    if self.obs.enabled() {
                        self.harvested_pj += need / eta;
                        if self.obs_voltage {
                            self.obs
                                .emit(self.now, || Event::VoltageSample { voltage: v_next });
                        }
                    }
                }
                None => {
                    let at_ps = self.now;
                    self.abort(SimError::SourceDead { at_ps });
                }
            }
        }
        if self.obs.enabled() {
            // One rising crossing per rail for the whole recharge; the
            // step-by-step detail adds nothing to the timeline.
            let th = self.design.thresholds();
            Self::emit_crossings(&mut self.obs, &th, self.now, v_start, self.cap.voltage());
        }
    }

    /// Runs `f` with a fresh [`MemCtx`] at the current time; returns
    /// `f`'s result (usually a completion time). Every run of design
    /// code goes through here: loads, stores, `on_instructions`,
    /// checkpoint and reboot.
    #[inline(always)]
    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut DesignBox, &mut MemCtx<'_>) -> R) -> R {
        let cap_voltage = self.cap.voltage();
        let mut ctx = MemCtx {
            now: self.now,
            port: &mut self.port,
            timing: &self.timing,
            energy: &self.energy,
            nvm: &mut self.nvm,
            meter: &mut self.meter,
            stats: &mut self.stats,
            cap_voltage,
            obs: &mut self.obs,
        };
        f(&mut self.design, &mut ctx)
    }

    #[inline(always)]
    fn retire_instruction(&mut self) {
        self.instructions += 1;
        self.meter
            .add(EnergyCategory::Compute, self.cpu.compute_pj_per_cycle);
        if self.instr_hook {
            let n = self.instructions;
            let done = self.with_ctx(|design, ctx| design.on_instructions(ctx, n));
            self.now = self.now.max(done);
        }
    }

    /// A load's access half: the entry check, the design access, the
    /// retire and the static part of settlement. Returns the loaded
    /// value and the window for [`Machine::settle_window`].
    #[inline(always)]
    pub(crate) fn load_access(&mut self, addr: u32, size: AccessSize) -> (u64, Ps) {
        self.enter();
        let start = self.now;
        let (done, value) = self.with_ctx(|design, ctx| design.load(ctx, addr, size));
        // In-order core: an instruction takes at least one cycle.
        self.now = done.max(start + self.cpu.ps_per_cycle);
        self.retire_instruction();
        (value, self.open_window())
    }

    /// A store's access half; see [`Machine::load_access`].
    #[inline(always)]
    pub(crate) fn store_access(&mut self, addr: u32, size: AccessSize, value: u64) -> Ps {
        self.enter();
        let start = self.now;
        let done = self.with_ctx(|design, ctx| design.store(ctx, addr, size, value));
        self.now = done.max(start + self.cpu.ps_per_cycle);
        if let Some(oracle) = &mut self.verify_oracle {
            oracle.write(addr, size, value);
        }
        self.retire_instruction();
        self.open_window()
    }

    /// The access half of one compute chunk of `chunk` cycles (at most
    /// [`COMPUTE_CHUNK_CYCLES`]); the caller ran [`Machine::enter`]
    /// once for the whole compute stretch.
    #[inline(always)]
    pub(crate) fn compute_access(&mut self, chunk: u64) -> Ps {
        self.now += chunk * self.cpu.ps_per_cycle;
        self.meter.add(
            EnergyCategory::Compute,
            chunk as f64 * self.cpu.compute_pj_per_cycle,
        );
        self.instructions += chunk;
        if self.instr_hook {
            let n = self.instructions;
            let done = self.with_ctx(|design, ctx| design.on_instructions(ctx, n));
            self.now = self.now.max(done);
        }
        self.open_window()
    }
}

/// Each op runs its access half and then its settle half.
impl Bus for Machine {
    fn load(&mut self, addr: u32, size: AccessSize) -> u64 {
        let (value, dt) = self.load_access(addr, size);
        self.settle_window(dt);
        value
    }

    fn store(&mut self, addr: u32, size: AccessSize, value: u64) {
        let dt = self.store_access(addr, size, value);
        self.settle_window(dt);
    }

    fn compute(&mut self, cycles: u64) {
        self.enter();
        let mut remaining = cycles;
        while remaining > 0 {
            let chunk = remaining.min(COMPUTE_CHUNK_CYCLES);
            remaining -= chunk;
            let dt = self.compute_access(chunk);
            self.settle_window(dt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;
    use ehsim_energy::TraceKind;

    fn machine(cfg: SimConfig) -> Machine {
        Machine::new(&cfg, 4096)
    }

    #[test]
    fn no_failure_mode_never_fails() {
        let mut m = machine(SimConfig::wl_cache());
        for i in 0..10_000u32 {
            m.store_u32((i % 512) * 4, i);
        }
        m.compute(100_000);
        assert_eq!(m.outages(), 0);
        assert!(m.now() > 0);
    }

    /// The settlement split's guard: without failures the capacitor
    /// step never runs, so the voltage stays bitwise at its starting
    /// `Von` (capped at `Vmax`) and nothing is ever drained, while
    /// every bus op and compute chunk still counts one window.
    #[test]
    fn failure_free_runs_never_touch_the_capacitor() {
        let mut cfgs = SimConfig::all_designs();
        cfgs.extend([SimConfig::wl_cache_dyn(), SimConfig::write_buffer()]);
        for cfg in cfgs {
            let label = cfg.design.label();
            let mut m = machine(cfg);
            let v_start = m.design().thresholds().v_on.min(m.cap.v_max());
            let mut windows = 0;
            for i in 0..3_000u32 {
                m.store_u32((i * 68) % 4096, i);
                let _ = m.load_u32((i * 36) % 4096);
                m.compute(u64::from(i % 5) * COMPUTE_CHUNK_CYCLES + 7);
                windows += 2 + u64::from(i % 5) + 1;
            }
            assert_eq!(m.outages(), 0, "{label}");
            assert_eq!(m.cap.voltage().to_bits(), v_start.to_bits(), "{label}");
            assert_eq!(m.drained_pj.to_bits(), 0.0f64.to_bits(), "{label}");
            assert_eq!(m.settle_windows(), windows, "{label}");
        }
    }

    #[test]
    fn instructions_count_all_ops() {
        let mut m = machine(SimConfig::wl_cache());
        m.store_u32(0, 1);
        let _ = m.load_u32(0);
        m.compute(10);
        assert_eq!(m.instructions(), 12);
    }

    #[test]
    fn read_your_writes_through_the_hierarchy() {
        for cfg in SimConfig::all_designs() {
            let mut m = machine(cfg);
            for i in 0..1024u32 {
                m.store_u32(i * 4, i ^ 0xabcd);
            }
            for i in 0..1024u32 {
                assert_eq!(m.load_u32(i * 4), i ^ 0xabcd, "{}", m.design().name());
            }
        }
    }

    #[test]
    fn rf_trace_causes_outages_and_recovery() {
        for cfg in SimConfig::all_designs() {
            let design = cfg.design.label();
            let mut m = machine(cfg.with_trace(TraceKind::Rf1).with_verify());
            for round in 0..200u32 {
                for i in 0..512u32 {
                    m.store_u32(i * 8 % 4096, i.wrapping_mul(round + 1));
                }
                m.compute(100_000);
            }
            assert!(m.outages() > 0, "{design}: expected at least one outage");
            assert!(m.off_time_ps() > 0);
            // Data survived every outage (verified against the oracle at
            // each checkpoint; spot-check final contents here).
            for i in 0..512u32 {
                assert_eq!(m.load_u32(i * 8 % 4096), i.wrapping_mul(200), "{design}");
            }
        }
    }

    #[test]
    fn consistency_violation_detected_incrementally_with_seed_semantics() {
        // Corrupt NVM behind the oracle's back through the tracked write
        // path: the incremental checker must catch it at the next outage
        // and report the same addr/expected/actual the full scan would
        // (the debug-build cross-check inside verify_consistency
        // additionally asserts agreement with the full clone-and-scan).
        let cfg = SimConfig::wl_cache()
            .with_trace(TraceKind::Rf1)
            .with_verify();
        let mut m = machine(cfg);
        m.store_u32(0, 1);
        // Line 3968..4032 is never touched by the workload below.
        m.nvm.write(4000, AccessSize::B1, 0xee);
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for round in 0..2_000u32 {
                for i in 0..512u32 {
                    m.store_u32(i * 8 % 2048, i ^ round);
                }
                m.compute(100_000);
            }
        }));
        assert!(run.is_err(), "corruption must abort at an outage");
        match m.take_error() {
            Some(SimError::ConsistencyViolation {
                addr,
                expected,
                actual,
                ..
            }) => {
                assert_eq!(addr, 4000);
                assert_eq!(expected, 0, "oracle still holds the boot value");
                assert_eq!(actual, 0xee);
            }
            e => panic!("expected ConsistencyViolation, got {e:?}"),
        }
    }

    #[test]
    fn on_plus_off_equals_total() {
        let mut m = machine(SimConfig::wl_cache().with_trace(TraceKind::Rf2));
        for i in 0..20_000u32 {
            m.store_u32((i % 1024) * 4, i);
            m.compute(500);
        }
        assert!(m.off_time_ps() < m.now());
        assert!(m.outages() > 0);
    }

    #[test]
    fn checkpoint_time_is_tracked() {
        let mut m = machine(SimConfig::wl_cache().with_trace(TraceKind::Rf1));
        for i in 0..50_000u32 {
            m.store_u32((i % 1024) * 4, i);
            m.compute(200);
        }
        assert!(m.outages() > 0);
        assert!(m.checkpoint_time_ps() > 0);
        assert!(m.restore_time_ps() > 0);
    }

    #[test]
    fn energy_meter_accumulates_all_categories() {
        let mut m = machine(SimConfig::wl_cache());
        for i in 0..2_000u32 {
            m.store_u32(i * 4 % 4096, i);
        }
        m.compute(1_000);
        let meter = m.meter();
        assert!(meter.compute > 0.0);
        assert!(meter.cache_write > 0.0);
        assert!(meter.mem_read > 0.0, "miss fills read NVM");
        assert!(meter.mem_write > 0.0, "cleanings write NVM");
    }
}
