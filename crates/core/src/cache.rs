//! The complete WL-Cache design (§3, §5).

use crate::{AdaptationMode, AdaptiveController, DirtyQueue, DqPolicy, Thresholds};
use ehsim_cache::designs::{Own, Residency, WbCore, WriteBackDesign};
use ehsim_cache::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy, SetWay};
use ehsim_energy::{EnergyCategory, VoltageThresholds};
use ehsim_mem::{AccessSize, NvmEnergy, Pj, Ps};
use ehsim_obs::Event;

/// Dynamic access energy of a DirtyQueue operation (push / pop / state
/// change), from the CACTI-lite estimate of §6.2 (≤ 0.8 pJ).
const DQ_ACCESS_PJ: Pj = 0.8;
/// Extra energy of an LRU DirtyQueue *search* (§5.3: "The LRU-based
/// scheme requires search"), charged per cleaning selection.
const DQ_LRU_SEARCH_PJ: Pj = 2.4;
/// NVFF save/restore of the threshold registers and power-on timers
/// (§5.5: two 1-byte thresholds + two 2-byte timers).
const NVFF_STATE_PJ: Pj = 5.0;
const NVFF_STATE_PS: Ps = 1_000;
/// Voltage headroom (V) above the raised `Vbackup` required before a
/// dynamic maxline raise is considered safe.
const DYN_RAISE_HEADROOM_V: f64 = 0.02;

/// WL-Cache runtime statistics beyond the generic
/// [`ehsim_cache::CacheStats`] — the quantities §6.6 reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WlStats {
    /// Asynchronous cleanings issued by the waterline policy.
    pub cleanings: u64,
    /// Store stalls caused by a full DirtyQueue (maxline).
    pub stalls: u64,
    /// Total time stores spent stalled.
    pub stall_ps: Ps,
    /// Stale DirtyQueue entries lazily dropped (§5.4).
    pub stale_dropped: u64,
    /// Opportunistic dynamic maxline raises (§4, WL-Cache (dyn)).
    pub dyn_raises: u64,
    /// Completed power-on intervals.
    pub intervals: u64,
    /// Dirty lines flushed by JIT checkpoints, summed over intervals.
    pub dirty_at_checkpoint_sum: u64,
    /// Cleanings summed over completed intervals (write-backs per
    /// on-period in §6.6).
    pub cleanings_per_interval_sum: u64,
}

/// Builder for [`WlCache`] (non-consuming).
///
/// # Examples
///
/// ```
/// use wl_cache::{DqPolicy, Thresholds, WlCacheBuilder, AdaptationMode};
/// use ehsim_cache::{CacheGeometry, ReplacementPolicy};
///
/// let mut b = WlCacheBuilder::new();
/// b.geometry(CacheGeometry::new(1024, 2, 64))
///     .cache_policy(ReplacementPolicy::Lru)
///     .dq_policy(DqPolicy::Fifo)
///     .adaptation(AdaptationMode::Adaptive);
/// let cache = b.build();
/// assert_eq!(cache.thresholds_config(), Thresholds::paper_default());
/// ```
#[derive(Debug, Clone)]
pub struct WlCacheBuilder {
    geometry: CacheGeometry,
    cache_policy: ReplacementPolicy,
    thresholds: Thresholds,
    dq_policy: DqPolicy,
    adaptation: AdaptationMode,
}

impl WlCacheBuilder {
    /// Starts from the paper's defaults: 8 kB 2-way LRU cache, DirtyQueue
    /// size 8, maxline 6, waterline 5, FIFO DirtyQueue replacement,
    /// adaptive threshold management (§6.1).
    pub fn new() -> Self {
        Self {
            geometry: CacheGeometry::paper_default(),
            cache_policy: ReplacementPolicy::Lru,
            thresholds: Thresholds::paper_default(),
            dq_policy: DqPolicy::Fifo,
            adaptation: AdaptationMode::Adaptive,
        }
    }

    /// Sets the cache geometry.
    pub fn geometry(&mut self, geometry: CacheGeometry) -> &mut Self {
        self.geometry = geometry;
        self
    }

    /// Sets the cache replacement policy (§5.4).
    pub fn cache_policy(&mut self, policy: ReplacementPolicy) -> &mut Self {
        self.cache_policy = policy;
        self
    }

    /// Sets the DirtyQueue thresholds.
    pub fn thresholds(&mut self, thresholds: Thresholds) -> &mut Self {
        self.thresholds = thresholds;
        self
    }

    /// Sets the DirtyQueue replacement policy (§5.2).
    pub fn dq_policy(&mut self, policy: DqPolicy) -> &mut Self {
        self.dq_policy = policy;
        self
    }

    /// Sets the adaptation mode (§4).
    pub fn adaptation(&mut self, mode: AdaptationMode) -> &mut Self {
        self.adaptation = mode;
        self
    }

    /// Builds a cold WL-Cache.
    pub fn build(&self) -> WlCache {
        WlCache {
            core: WbCore::new(self.geometry, self.cache_policy, CacheTech::sram()),
            dq: DirtyQueue::new(self.thresholds.dq_capacity()),
            controller: AdaptiveController::new(self.adaptation, self.thresholds),
            dq_policy: self.dq_policy,
            wl_stats: WlStats::default(),
            cleanings_this_interval: 0,
            vth: VoltageThresholds::wl(self.thresholds.maxline(), self.thresholds.dq_capacity()),
        }
    }
}

impl Default for WlCacheBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The Write-Light Cache: a volatile write-back SRAM cache whose dirty
/// lines are tracked in a [`DirtyQueue`] and bounded by
/// [`Thresholds::maxline`], JIT-checkpointed on power failure, and
/// asynchronously cleaned past [`Thresholds::waterline`].
#[derive(Debug, Clone)]
pub struct WlCache {
    core: WbCore,
    dq: DirtyQueue,
    controller: AdaptiveController,
    dq_policy: DqPolicy,
    wl_stats: WlStats,
    cleanings_this_interval: u64,
    /// Mirror of `VoltageThresholds::wl(maxline, dq_capacity)` for the
    /// controller's current thresholds. The machine polls
    /// [`CacheDesign::thresholds`] after every settled operation, while
    /// `maxline` changes only at reboot reconfiguration or a dynamic
    /// raise — so the interpolation is evaluated at those (rare) change
    /// points and the per-settle poll is a plain copy of the identical
    /// value.
    vth: VoltageThresholds,
}

impl WlCache {
    /// Creates a WL-Cache with the paper's default configuration.
    pub fn new() -> Self {
        WlCacheBuilder::new().build()
    }

    /// Current threshold configuration (may differ from the initial one
    /// under adaptive/dynamic management).
    pub fn thresholds_config(&self) -> Thresholds {
        self.controller.thresholds()
    }

    /// The DirtyQueue replacement policy.
    pub fn dq_policy(&self) -> DqPolicy {
        self.dq_policy
    }

    /// WL-specific statistics (§6.6).
    pub fn wl_stats(&self) -> WlStats {
        self.wl_stats
    }

    /// The adaptive controller (reconfiguration counts, maxline range,
    /// prediction accuracy).
    pub fn controller(&self) -> &AdaptiveController {
        &self.controller
    }

    /// The DirtyQueue: its occupancy, entries and earliest
    /// outstanding ACK.
    pub fn dirty_queue(&self) -> &DirtyQueue {
        &self.dq
    }

    /// Re-derives the cached [`VoltageThresholds`] mirror after the
    /// controller's thresholds changed.
    fn resync_vth(&mut self) {
        let t = self.controller.thresholds();
        self.vth = VoltageThresholds::wl(t.maxline(), t.dq_capacity());
    }

    /// Recency stamp of the (still-dirty) line at `base`, or `None` if
    /// the line is stale — the DirtyQueue selection oracle.
    fn stamp_of<'l, R: Residency<'l>>(core: &WbCore, res: R, base: u32) -> Option<u64> {
        let lines = core.lines(res);
        let sw = lines.lookup(base)?;
        (core.array().is_dirty(sw) && lines.base_addr(sw) == base).then(|| lines.last_use(sw))
    }

    /// Polls completed write-back ACKs out of the DirtyQueue. The
    /// `min_ack` test inlines into every access; the removal runs out
    /// of line in [`WlCache::pop_acks`] only when an ACK is due.
    #[inline(always)]
    fn poll_acks(&mut self, ctx: &mut MemCtx<'_>) {
        if self.dq.ack_due(ctx.now) {
            self.pop_acks(ctx);
        }
    }

    /// Removes the ACKed entries. With an observer attached each
    /// removal is reported at its actual ACK time.
    #[inline(never)]
    fn pop_acks(&mut self, ctx: &mut MemCtx<'_>) {
        if ctx.obs.enabled() {
            let now = ctx.now;
            let obs = &mut *ctx.obs;
            self.dq.drain_acked(now, |base, ack_at| {
                obs.emit(ack_at, || Event::DqAck { base })
            });
        } else {
            self.dq.pop_acked(ctx.now);
        }
    }

    /// Steps 1–2 of the DirtyQueue replacement protocol (§5.3): select a
    /// dirty line, mark it clean *first*, then launch the asynchronous
    /// write-back; the entry is popped later, at ACK (steps 3–4).
    /// Returns `false` if nothing was cleanable.
    fn issue_cleaning<'l, R: Residency<'l>>(&mut self, res: R, ctx: &mut MemCtx<'_>) -> bool {
        if self.dq_policy == DqPolicy::Lru {
            ctx.meter.add(EnergyCategory::CacheRead, DQ_LRU_SEARCH_PJ);
        }
        let core = &self.core;
        let (selected, dropped) = self
            .dq
            .select_for_cleaning(self.dq_policy, |base| Self::stamp_of(core, res, base));
        self.wl_stats.stale_dropped += dropped as u64;
        if dropped > 0 {
            ctx.obs.emit(ctx.now, || Event::DqStaleDrop { dropped });
        }
        let Some(base) = selected else {
            return false;
        };
        #[expect(
            clippy::expect_used,
            reason = "select_for_cleaning validated residency under the same &mut self; \
                      a miss here is a protocol bug worth aborting on"
        )]
        let sw = self
            .core
            .lines(res)
            .lookup(base)
            .expect("selected line is resident");
        // Step 1: mark clean before issuing, so a racing store to the
        // same line re-inserts it into the DirtyQueue (§5.3).
        self.core.set_dirty(res, sw, false);
        // Step 2: snapshot and issue; the line stays in the cache.
        ctx.meter
            .add(EnergyCategory::CacheRead, self.core.tech().read_pj);
        let ack_at = res.async_write(ctx, base, self.core.lines(res).line_data(sw));
        ctx.meter.add(EnergyCategory::CacheWrite, DQ_ACCESS_PJ);
        self.dq.mark_cleaning(base, ack_at);
        self.wl_stats.cleanings += 1;
        self.cleanings_this_interval += 1;
        ctx.obs
            .emit(ctx.now, || Event::WritebackIssued { base, ack_at });
        true
    }

    /// The clean → dirty transition of the line at `sw`: the only
    /// event that touches the DirtyQueue (§5.1); stores to already-dirty
    /// lines coalesce and never get here. Reserves a slot, enqueues the
    /// line, then applies the waterline policy (§5.2).
    #[inline(never)]
    fn track_dirty<'l, R: Residency<'l>>(&mut self, res: R, ctx: &mut MemCtx<'_>, sw: SetWay) {
        self.reserve_dq_slot(res, ctx);
        let base = self.core.lines(res).base_addr(sw);
        self.dq.push(base);
        ctx.meter.add(EnergyCategory::CacheWrite, DQ_ACCESS_PJ);
        self.core.set_dirty(res, sw, true);
        ctx.obs.emit(ctx.now, || Event::DqEnqueue { base });

        // Waterline policy (§5.2): start cleaning asynchronously.
        let waterline = self.controller.thresholds().waterline();
        while self.dq.dirty_count() > waterline {
            if !self.issue_cleaning(res, ctx) {
                break;
            }
        }
    }

    /// Makes room in the DirtyQueue for one more entry, stalling the
    /// store (or dynamically raising maxline) as needed.
    fn reserve_dq_slot<'l, R: Residency<'l>>(&mut self, res: R, ctx: &mut MemCtx<'_>) {
        loop {
            self.poll_acks(ctx);
            let maxline = self.controller.thresholds().maxline();
            // DirtyQueue occupancy (including entries whose write-back
            // is still in flight — their slot frees only at the ACK,
            // §5.3 step 4) is what `maxline` bounds. The paper sizes the
            // physical queue (8) above the default maxline (6) to leave
            // headroom for dynamic maxline raises (§4).
            if self.dq.len() < maxline {
                return;
            }
            // WL-Cache (dyn): raise maxline instead of stalling when the
            // capacitor can fund checkpointing one more line.
            let next = VoltageThresholds::wl(
                (maxline + 1).min(self.controller.thresholds().dq_capacity()),
                self.controller.thresholds().dq_capacity(),
            );
            let headroom_ok = ctx.cap_voltage > next.v_backup + DYN_RAISE_HEADROOM_V;
            if self.controller.try_dynamic_raise(headroom_ok).is_some() {
                self.resync_vth();
                self.wl_stats.dyn_raises += 1;
                ctx.obs.emit(ctx.now, || Event::DynRaise {
                    maxline: self.controller.thresholds().maxline(),
                });
                continue;
            }
            match self.dq.next_ack() {
                Some(ack) if ack > ctx.now => {
                    // Stall until the in-flight cleaning ACKs.
                    ctx.obs.emit(ctx.now, || Event::DqStall { until: ack });
                    self.wl_stats.stalls += 1;
                    self.wl_stats.stall_ps += ack - ctx.now;
                    ctx.stats.stall_ps += ack - ctx.now;
                    ctx.now = ack;
                }
                Some(_) => { /* already acked; next pop_acked clears it */ }
                None => {
                    // Queue full of Dirty entries with nothing in
                    // flight: force a cleaning and wait for it.
                    if !self.issue_cleaning(res, ctx) {
                        // Everything was stale and got dropped; loop.
                        continue;
                    }
                }
            }
        }
    }
}

impl Default for WlCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheDesign for WlCache {
    fn name(&self) -> &'static str {
        "WL-Cache"
    }

    fn thresholds(&self) -> VoltageThresholds {
        self.vth
    }

    #[inline(always)]
    fn load(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize) -> (Ps, u64) {
        self.load_with(Own, ctx, addr, size)
    }

    #[inline(always)]
    fn store(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize, value: u64) -> Ps {
        self.store_with(Own, ctx, addr, size, value)
    }

    fn checkpoint(&mut self, ctx: &mut MemCtx<'_>) -> Ps {
        // JIT checkpoint (§3.2): walk the DirtyQueue, flush every
        // tracked line that is still dirty, using the existing cache →
        // NVM data path. Entries whose write-back completed (or whose
        // line went stale) are skipped; an in-flight write-back may be
        // duplicated, which is harmless.
        self.poll_acks(ctx);
        let bases: Vec<u32> = self.dq.iter().map(|e| e.base).collect();
        let mut flushed = 0u64;
        for base in bases {
            let Some(sw) = self.core.array().lookup(base) else {
                continue;
            };
            if !self.core.array().is_dirty(sw) || self.core.array().base_addr(sw) != base {
                continue;
            }
            ctx.meter
                .add(EnergyCategory::CacheRead, self.core.tech().read_pj);
            let done = ctx.sync_line_write(base, self.core.array().line_data(sw));
            ctx.now = done;
            self.core.array_mut().set_dirty(sw, false);
            ctx.stats.checkpoint_lines += 1;
            flushed += 1;
        }
        // NVFF save of thresholds + power-on timers (§5.5).
        ctx.meter.add(EnergyCategory::CacheWrite, NVFF_STATE_PJ);
        ctx.now += NVFF_STATE_PS;

        self.wl_stats.intervals += 1;
        self.wl_stats.dirty_at_checkpoint_sum += flushed;
        self.wl_stats.cleanings_per_interval_sum += self.cleanings_this_interval;
        self.cleanings_this_interval = 0;
        self.dq.clear();
        ctx.now
    }

    fn power_off(&mut self) {
        self.core.array_mut().invalidate_all();
        self.dq.clear();
    }

    fn reboot(&mut self, ctx: &mut MemCtx<'_>, on_time_ps: Ps) -> Ps {
        // Boot-time adaptive reconfiguration (§4) from the measured
        // power-on time; Vbackup/Von follow via `thresholds()`.
        let before = self.controller.thresholds();
        self.controller.on_interval_end(on_time_ps);
        self.resync_vth();
        let after = self.controller.thresholds();
        if after != before {
            ctx.obs.emit(ctx.now, || Event::Reconfigure {
                maxline: after.maxline(),
                waterline: after.waterline(),
            });
        }
        // NVFF restore of thresholds + timers.
        ctx.meter.add(EnergyCategory::CacheRead, NVFF_STATE_PJ);
        ctx.now + NVFF_STATE_PS
    }

    fn dirty_lines(&self) -> usize {
        self.dq.len()
    }

    fn worst_checkpoint_pj(&self, energy: &NvmEnergy) -> Pj {
        let line_bytes = self.core.array().geometry().line_bytes();
        self.controller.thresholds().maxline() as f64 * energy.write_pj(line_bytes)
    }
}

impl WriteBackDesign for WlCache {
    fn core(&self) -> &WbCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut WbCore {
        &mut self.core
    }

    #[inline(always)]
    fn load_with<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (Ps, u64) {
        self.poll_acks(ctx);
        let (_, value, _) = self.core.load(res, ctx, addr, size);
        (ctx.now, value)
    }

    #[inline(always)]
    fn store_with<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> Ps {
        self.poll_acks(ctx);
        let (sw, was_dirty, _) = self.core.store_resident(res, ctx, addr, size, value);
        if !was_dirty {
            self.track_dirty(res, ctx, sw);
        }
        ctx.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_cache::CacheStats;
    use ehsim_energy::EnergyMeter;
    use ehsim_mem::{FunctionalMem, NvmPort, NvmTiming};

    struct H {
        port: NvmPort,
        timing: NvmTiming,
        energy: NvmEnergy,
        nvm: FunctionalMem,
        meter: EnergyMeter,
        stats: CacheStats,
        now: Ps,
        voltage: f64,
        obs: ehsim_obs::ObserverBox,
    }

    impl H {
        fn new() -> Self {
            Self {
                port: NvmPort::new(),
                timing: NvmTiming::default(),
                energy: NvmEnergy::default(),
                nvm: FunctionalMem::new(64 * 1024),
                meter: EnergyMeter::new(),
                stats: CacheStats::new(),
                now: 0,
                voltage: 3.3,
                obs: ehsim_obs::ObserverBox::Noop,
            }
        }
        fn ctx(&mut self) -> MemCtx<'_> {
            MemCtx {
                now: self.now,
                port: &mut self.port,
                timing: &self.timing,
                energy: &self.energy,
                nvm: &mut self.nvm,
                meter: &mut self.meter,
                stats: &mut self.stats,
                cap_voltage: self.voltage,
                obs: &mut self.obs,
            }
        }
    }

    fn wl(maxline: usize) -> WlCache {
        let mut b = WlCacheBuilder::new();
        b.geometry(CacheGeometry::new(2048, 2, 64))
            .thresholds(Thresholds::with_maxline(8, maxline).unwrap())
            .adaptation(AdaptationMode::Static);
        b.build()
    }

    /// Stores to `n` distinct lines (addresses 0, 64, 128, …).
    fn dirty_n(c: &mut WlCache, h: &mut H, n: u32) {
        for i in 0..n {
            let mut ctx = h.ctx();
            let done = c.store(&mut ctx, i * 64, AccessSize::B4, u64::from(i) + 1);
            h.now = done;
        }
    }

    /// Loads `n` distinct lines so that subsequent stores hit (back-to-
    /// back store hits are what exercise the maxline stall path).
    fn preload_n(c: &mut WlCache, h: &mut H, n: u32) {
        for i in 0..n {
            let mut ctx = h.ctx();
            let (done, _) = c.load(&mut ctx, i * 64, AccessSize::B4);
            h.now = done;
        }
    }

    #[test]
    fn store_hits_on_dirty_line_do_not_touch_dq() {
        let mut h = H::new();
        let mut c = wl(6);
        dirty_n(&mut c, &mut h, 1);
        assert_eq!(c.dirty_queue().len(), 1);
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 4, AccessSize::B4, 42);
        assert_eq!(
            c.dirty_queue().len(),
            1,
            "subsequent store to dirty line coalesces"
        );
    }

    #[test]
    fn waterline_triggers_async_cleaning() {
        let mut h = H::new();
        let mut c = wl(6); // waterline 5
        dirty_n(&mut c, &mut h, 5);
        assert_eq!(c.wl_stats().cleanings, 0, "at waterline: no cleaning yet");
        dirty_n(&mut c, &mut h, 6); // 6th distinct line exceeds waterline
        assert_eq!(c.wl_stats().cleanings, 1);
        // Cleaned line is persisted but still cached (clean, no evict).
        assert_eq!(h.nvm.read(0, AccessSize::B4), 1);
        let sw = c.core.array().lookup(0).expect("line 0 still resident");
        assert!(!c.core.array().is_dirty(sw));
    }

    #[test]
    fn cleaning_is_asynchronous_for_the_core() {
        let mut h = H::new();
        let mut c = wl(6);
        dirty_n(&mut c, &mut h, 5);
        let before = h.now;
        // The 6th store triggers cleaning; the store itself should not
        // wait the ~40 ns NVM line-write latency. It does pay its own
        // miss fill (~40 ns read), so compare against a hit-store.
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 5 * 64, AccessSize::B4, 6);
        let elapsed = done - before;
        let fill_only = h.timing.line_read_ps() + 2_000;
        assert!(
            elapsed < fill_only,
            "store took {elapsed} ps; cleaning must overlap (ILP)"
        );
    }

    #[test]
    fn maxline_stalls_bound_occupancy() {
        let mut h = H::new();
        let mut c = wl(4); // waterline 3
        preload_n(&mut c, &mut h, 12);
        dirty_n(&mut c, &mut h, 12);
        assert!(
            c.dirty_queue().len() <= 4,
            "occupancy {} > maxline",
            c.dirty_queue().len()
        );
        assert!(c.wl_stats().stalls > 0, "dense stores must stall");
        assert!(h.stats.stall_ps > 0);
    }

    #[test]
    fn redundant_entry_protocol_keeps_nvm_consistent() {
        // The §5.3 scenario: store X=1; cleaning starts (X marked clean,
        // write-back in flight); store X=2 must re-insert X into the DQ;
        // checkpoint must persist X=2.
        let mut h = H::new();
        let mut c = wl(2); // waterline 1: cleaning starts at 2 dirty lines
        dirty_n(&mut c, &mut h, 1); // X = line 0, value 1
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 64, AccessSize::B4, 0xbb); // triggers cleaning of X
        h.now = done;
        // X's write-back is in flight (not yet ACKed). Store X=2 now.
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 0, AccessSize::B4, 2);
        h.now = done;
        assert!(
            c.dq.iter().filter(|e| e.base == 0).count() >= 1,
            "re-dirtied line must be re-tracked"
        );
        // Power failure: JIT checkpoint, then verify NVM.
        let mut ctx = h.ctx();
        let _ = c.checkpoint(&mut ctx);
        assert_eq!(h.nvm.read(0, AccessSize::B4), 2, "latest value persisted");
        assert_eq!(h.nvm.read(64, AccessSize::B4), 0xbb);
    }

    #[test]
    fn checkpoint_flushes_exactly_tracked_dirty_lines() {
        let mut h = H::new();
        let mut c = wl(6);
        dirty_n(&mut c, &mut h, 3);
        let mut ctx = h.ctx();
        let _ = c.checkpoint(&mut ctx);
        for i in 0..3u32 {
            assert_eq!(h.nvm.read(i * 64, AccessSize::B4), u64::from(i) + 1);
        }
        assert_eq!(h.stats.checkpoint_lines, 3);
        assert_eq!(c.dirty_queue().len(), 0);
    }

    #[test]
    fn power_cycle_preserves_data_through_nvm() {
        let mut h = H::new();
        let mut c = wl(6);
        dirty_n(&mut c, &mut h, 4);
        let mut ctx = h.ctx();
        let t = c.checkpoint(&mut ctx);
        h.now = t;
        c.power_off();
        let mut ctx = h.ctx();
        let t = c.reboot(&mut ctx, 1_000_000);
        h.now = t;
        // Cold cache, but all data readable from NVM.
        for i in 0..4u32 {
            let mut ctx = h.ctx();
            let (done, v) = c.load(&mut ctx, i * 64, AccessSize::B4);
            h.now = done;
            assert_eq!(v, u64::from(i) + 1);
        }
        assert_eq!(h.stats.load_hits, 0, "cache must reboot cold");
    }

    #[test]
    fn eviction_leaves_stale_entry_that_is_skipped() {
        let mut h = H::new();
        // Tiny direct-mapped cache: 2 sets — 0x000 and 0x080 conflict.
        let mut b = WlCacheBuilder::new();
        b.geometry(CacheGeometry::new(128, 1, 64))
            .thresholds(Thresholds::with_maxline(8, 6).unwrap())
            .adaptation(AdaptationMode::Static);
        let mut c = b.build();
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 0x00, AccessSize::B4, 0x11);
        h.now = done;
        // Conflicting store evicts line 0 (dirty → synchronous WB).
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 0x80, AccessSize::B4, 0x22);
        h.now = done;
        assert_eq!(h.stats.evict_writebacks, 1);
        assert_eq!(h.nvm.read(0x00, AccessSize::B4), 0x11);
        assert_eq!(
            c.dirty_queue().len(),
            2,
            "stale entry lingers (lazy cleanup)"
        );
        // Checkpoint skips the stale entry without flushing garbage.
        let mut ctx = h.ctx();
        let _ = c.checkpoint(&mut ctx);
        assert_eq!(h.stats.checkpoint_lines, 1);
        assert_eq!(h.nvm.read(0x80, AccessSize::B4), 0x22);
    }

    #[test]
    fn adaptive_reboot_reconfigures_thresholds() {
        let mut h = H::new();
        let mut b = WlCacheBuilder::new();
        b.adaptation(AdaptationMode::Adaptive);
        let mut c = b.build();
        assert_eq!(c.thresholds_config().maxline(), 6);
        let mut ctx = h.ctx();
        let _ = c.reboot(&mut ctx, 10_000_000);
        let _ = c.reboot(&mut ctx, 1_000_000); // 10× shorter: lower
        assert_eq!(c.thresholds_config().maxline(), 5);
        assert_eq!(c.controller().reconfigurations(), 1);
        // Vbackup margin follows maxline down.
        let v = CacheDesign::thresholds(&c);
        assert!(v.v_backup < VoltageThresholds::wl(6, 8).v_backup);
    }

    #[test]
    fn dynamic_mode_raises_instead_of_stalling_when_energy_allows() {
        let mut h = H::new();
        h.voltage = 3.4; // plenty of headroom
        let mut b = WlCacheBuilder::new();
        b.geometry(CacheGeometry::new(2048, 2, 64))
            .thresholds(Thresholds::with_maxline(8, 2).unwrap())
            .adaptation(AdaptationMode::Dynamic);
        let mut c = b.build();
        preload_n(&mut c, &mut h, 8);
        dirty_n(&mut c, &mut h, 8);
        assert!(c.wl_stats().dyn_raises > 0);
        assert!(c.thresholds_config().maxline() > 2);
    }

    #[test]
    fn dynamic_mode_stalls_when_voltage_is_low() {
        let mut h = H::new();
        h.voltage = 2.96; // below any raised Vbackup
        let mut b = WlCacheBuilder::new();
        b.geometry(CacheGeometry::new(2048, 2, 64))
            .thresholds(Thresholds::with_maxline(8, 2).unwrap())
            .adaptation(AdaptationMode::Dynamic);
        let mut c = b.build();
        preload_n(&mut c, &mut h, 8);
        dirty_n(&mut c, &mut h, 8);
        assert_eq!(c.wl_stats().dyn_raises, 0);
        assert_eq!(c.thresholds_config().maxline(), 2);
        assert!(c.wl_stats().stalls > 0);
    }

    #[test]
    fn worst_checkpoint_scales_with_maxline() {
        let e = NvmEnergy::default();
        assert!(wl(6).worst_checkpoint_pj(&e) > wl(2).worst_checkpoint_pj(&e));
    }

    #[test]
    fn voltage_thresholds_track_maxline() {
        let c = wl(2);
        let v2 = CacheDesign::thresholds(&c);
        let c = wl(8);
        let v8 = CacheDesign::thresholds(&c);
        assert!(v8.v_backup > v2.v_backup);
        assert!(v8.v_on > v2.v_on);
    }
}
