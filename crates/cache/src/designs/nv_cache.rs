//! `NVCache-WB`: fully non-volatile write-back cache (Fig 1(c)).

use crate::designs::{Own, Residency, WbCore, WriteBackDesign};
use crate::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy};
use ehsim_energy::VoltageThresholds;
use ehsim_mem::{AccessSize, NvmEnergy, Pj, Ps};

/// A write-back cache built entirely from non-volatile (ReRAM) cells.
///
/// Crash consistency is inherent — the array itself survives power
/// failure, so nothing needs JIT checkpointing and the cache is warm
/// after reboot. The downside is that *every* access pays ReRAM
/// latency/energy, and ReRAM writes are an order of magnitude slower
/// than SRAM writes, which makes this the slowest design in the paper's
/// Fig 4. Used as the "non-volatile cache baseline" in the abstract's
/// 3.1× claim.
#[derive(Debug, Clone)]
pub struct NvCacheWb {
    core: WbCore,
}

impl NvCacheWb {
    /// Creates a cold non-volatile write-back cache.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        Self {
            core: WbCore::new(geom, policy, CacheTech::nv_reram()),
        }
    }
}

impl CacheDesign for NvCacheWb {
    fn name(&self) -> &'static str {
        "NVCache-WB"
    }

    fn thresholds(&self) -> VoltageThresholds {
        VoltageThresholds::nv()
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
        // The array is non-volatile: nothing to do.
        ctx.now
    }

    fn power_off(&mut self) {
        // Contents survive the outage.
    }

    fn reboot(&mut self, ctx: &mut MemCtx<'_>, _on_time_ps: Ps) -> Ps {
        ctx.now
    }

    fn dirty_lines(&self) -> usize {
        self.core.array().count_dirty()
    }

    fn worst_checkpoint_pj(&self, _energy: &NvmEnergy) -> Pj {
        0.0
    }

    fn persistent_overlay(&self, nvm: &ehsim_mem::FunctionalMem) -> ehsim_mem::FunctionalMem {
        // The whole array is non-volatile: every valid line (dirty ones
        // in particular) shadows main memory.
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

impl WriteBackDesign for NvCacheWb {
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

    fn nv() -> NvCacheWb {
        NvCacheWb::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Fifo)
    }

    #[test]
    fn dirty_lines_survive_power_failure() {
        let mut h = H::new();
        let mut c = nv();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x40, AccessSize::B4, 0xaaaa);
        assert_eq!(c.dirty_lines(), 1);
        let _ = c.checkpoint(&mut ctx);
        c.power_off();
        let _ = c.reboot(&mut ctx, 0);
        // Warm cache: the load hits and sees the stored value, even
        // though NVM main memory was never updated.
        let (_, v) = c.load(&mut ctx, 0x40, AccessSize::B4);
        assert_eq!(v, 0xaaaa);
        assert_eq!(h.stats.load_hits, 1);
    }

    #[test]
    fn store_hits_avoid_nvm_traffic() {
        let mut h = H::new();
        let mut c = nv();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x40, AccessSize::B4, 1);
        h.now = ctx.now;
        let bytes_after_first = h.stats.nvm_write_bytes;
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x44, AccessSize::B4, 2);
        assert_eq!(h.stats.nvm_write_bytes, bytes_after_first);
        assert_eq!(h.stats.store_hits, 1);
    }

    #[test]
    fn nv_store_is_much_slower_than_sram_hit() {
        let mut h = H::new();
        let mut c = nv();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x40, AccessSize::B4, 1);
        h.now = ctx.now;
        let t0 = h.now;
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 0x44, AccessSize::B4, 2);
        // Store hit on ReRAM: dominated by the 15 ns cell write.
        assert!(done - t0 >= 15_000, "got {} ps", done - t0);
    }

    #[test]
    fn no_reserve_needed() {
        assert_eq!(nv().worst_checkpoint_pj(&NvmEnergy::default()), 0.0);
    }
}
