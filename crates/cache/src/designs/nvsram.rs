//! `NVSRAM(ideal)`: volatile write-back SRAM cache with a non-volatile
//! checkpoint counterpart (Fig 1(d)).

use crate::designs::{Own, Residency, WbCore, WriteBackDesign};
use crate::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy};
use ehsim_energy::{EnergyCategory, VoltageThresholds};
use ehsim_mem::{AccessSize, NvmEnergy, Pj, Ps};

/// The state-of-the-art baseline: a normal SRAM write-back cache backed
/// by a same-size ReRAM array used only for JIT checkpointing.
///
/// This models the *ideal* variant of \[16\]: at power failure exactly the
/// dirty lines are copied to the NV counterpart ("magically", without
/// extra lookup hardware), and at reboot the whole cache is restored
/// warm. Its two structural costs, which WL-Cache attacks, are:
///
/// - the energy **reserve** must cover the worst case in which *every*
///   line is dirty, so `Vbackup` is high (3.1 V) and less of each
///   interval's energy is usable for progress;
/// - restoring the warm cache requires a full recharge (`Von` = 3.5 V),
///   lengthening every outage.
#[derive(Debug, Clone)]
pub struct NvSramCache {
    core: WbCore,
    /// Per-line checkpoint cost into the adjacent ReRAM copy.
    ckpt_line_ps: Ps,
    ckpt_line_pj: Pj,
    /// Per-line warm-restore cost back into SRAM.
    restore_line_ps: Ps,
    restore_line_pj: Pj,
}

impl NvSramCache {
    /// Creates a cold NVSRAM(ideal) cache.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        let sram = CacheTech::sram();
        let nv = CacheTech::nv_reram();
        let words_per_line = f64::from(geom.line_bytes()) / 8.0;
        Self {
            core: WbCore::new(geom, policy, sram.clone()),
            // One wide row write to the adjacent ReRAM per line.
            ckpt_line_ps: nv.write_hit_ps,
            ckpt_line_pj: nv.write_pj * words_per_line,
            // ReRAM row read plus SRAM row write per line.
            restore_line_ps: nv.read_hit_ps + sram.write_hit_ps,
            restore_line_pj: nv.read_pj * words_per_line + sram.write_pj * words_per_line,
        }
    }

    /// Per-line checkpoint energy (pJ) into the NV counterpart.
    pub fn checkpoint_line_pj(&self) -> Pj {
        self.ckpt_line_pj
    }
}

impl CacheDesign for NvSramCache {
    fn name(&self) -> &'static str {
        "NVSRAM(ideal)"
    }

    fn thresholds(&self) -> VoltageThresholds {
        VoltageThresholds::nvsram()
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
        // Copy exactly the dirty lines into the adjacent NV array. The
        // copy is cache-to-cache: it does not touch the NVM port.
        let dirty = self.core.array().count_dirty() as u64;
        ctx.stats.checkpoint_lines += dirty;
        ctx.meter
            .add(EnergyCategory::CacheWrite, self.ckpt_line_pj * dirty as f64);
        ctx.now + self.ckpt_line_ps * dirty
    }

    fn power_off(&mut self) {
        // The array contents conceptually move to the NV counterpart and
        // come back at reboot; we model this by retaining them (the
        // restore cost is charged in `reboot`).
    }

    fn reboot(&mut self, ctx: &mut MemCtx<'_>, _on_time_ps: Ps) -> Ps {
        let valid = self.core.array().valid_lines().count() as u64;
        ctx.stats.restored_lines += valid;
        ctx.meter.add(
            EnergyCategory::CacheRead,
            self.restore_line_pj * valid as f64,
        );
        ctx.now + self.restore_line_ps * valid
    }

    fn dirty_lines(&self) -> usize {
        self.core.array().count_dirty()
    }

    fn worst_checkpoint_pj(&self, _energy: &NvmEnergy) -> Pj {
        // Every line could be dirty (§2.3.3): reserve for all of them.
        self.ckpt_line_pj * f64::from(self.core.array().geometry().n_lines())
    }

    fn persistent_overlay(&self, nvm: &ehsim_mem::FunctionalMem) -> ehsim_mem::FunctionalMem {
        // Right after a checkpoint the SRAM contents equal the NV copy,
        // which survives the outage and is restored warm.
        let mut view = nvm.clone();
        for (sw, base) in self.core.array().valid_lines() {
            view.write_line(base, self.core.array().line_data(sw));
        }
        view
    }

    fn persistent_line(&self, base: u32) -> Option<&[u8]> {
        let sw = self.core.array().lookup(base)?;
        Some(self.core.array().line_data(sw))
    }
}

impl WriteBackDesign for NvSramCache {
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
        let (sw, _, _) = self.core.store_resident(res, ctx, addr, size, value);
        self.core.set_dirty(res, sw, true);
        ctx.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheStats;
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
        obs: ehsim_obs::ObserverBox,
    }

    impl H {
        fn new() -> Self {
            Self {
                port: NvmPort::new(),
                timing: NvmTiming::default(),
                energy: NvmEnergy::default(),
                nvm: FunctionalMem::new(4096),
                meter: EnergyMeter::new(),
                stats: CacheStats::new(),
                now: 0,
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
                cap_voltage: 3.3,
                obs: &mut self.obs,
            }
        }
    }

    fn cache() -> NvSramCache {
        NvSramCache::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Fifo)
    }

    #[test]
    fn checkpoint_cost_scales_with_dirty_lines() {
        let mut h = H::new();
        let mut c = cache();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x00, AccessSize::B4, 1);
        let _ = c.store(&mut ctx, 0x40, AccessSize::B4, 2);
        assert_eq!(c.dirty_lines(), 2);
        let t0 = ctx.now;
        let done = c.checkpoint(&mut ctx);
        assert_eq!(done - t0, 2 * c.ckpt_line_ps);
        assert_eq!(h.stats.checkpoint_lines, 2);
    }

    #[test]
    fn warm_cache_after_power_cycle() {
        let mut h = H::new();
        let mut c = cache();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x80, AccessSize::B8, 0xcafe_f00d);
        let _ = c.checkpoint(&mut ctx);
        c.power_off();
        let _ = c.reboot(&mut ctx, 0);
        let (_, v) = c.load(&mut ctx, 0x80, AccessSize::B8);
        assert_eq!(v, 0xcafe_f00d);
        assert_eq!(h.stats.load_hits, 1, "restored line should hit");
        assert_eq!(h.stats.restored_lines, 1);
    }

    #[test]
    fn reserve_covers_all_lines_dirty() {
        let c = cache();
        let per_line = c.checkpoint_line_pj();
        assert_eq!(
            c.worst_checkpoint_pj(&NvmEnergy::default()),
            per_line * 4.0 // 256 B / (2×64 B) = 2 sets × 2 ways
        );
        assert_eq!(c.thresholds(), VoltageThresholds::nvsram());
    }

    #[test]
    fn restore_charges_energy_per_valid_line() {
        let mut h = H::new();
        let mut c = cache();
        let mut ctx = h.ctx();
        let _ = c.load(&mut ctx, 0x00, AccessSize::B4);
        let _ = c.load(&mut ctx, 0x40, AccessSize::B4);
        let before = h.meter.cache_read;
        let mut ctx2 = h.ctx();
        let _ = c.reboot(&mut ctx2, 0);
        assert!(h.meter.cache_read > before);
        assert_eq!(h.stats.restored_lines, 2);
    }
}
