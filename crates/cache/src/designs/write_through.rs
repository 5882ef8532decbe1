//! `VCache-WT`: volatile SRAM write-through cache (Fig 1(b)).

use crate::designs::{Own, WbCore};
use crate::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy};
use ehsim_energy::{EnergyCategory, VoltageThresholds};
use ehsim_mem::{AccessSize, NvmEnergy, Pj, Ps};

/// A traditional volatile write-through cache.
///
/// Every store synchronously updates both the SRAM array (on a hit; the
/// cache does not allocate on store misses) and the NVM word, so the
/// NVM is always consistent and nothing beyond the registers needs JIT
/// checkpointing. The price is that every store pays the NVM word-write
/// latency — the paper's Table 1 "Perf. Improve.: Low" row.
#[derive(Debug, Clone)]
pub struct VCacheWt {
    core: WbCore,
}

impl VCacheWt {
    /// Creates a cold write-through cache.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy) -> Self {
        Self {
            core: WbCore::new(geom, policy, CacheTech::sram()),
        }
    }
}

impl CacheDesign for VCacheWt {
    fn name(&self) -> &'static str {
        "VCache-WT"
    }

    fn thresholds(&self) -> VoltageThresholds {
        VoltageThresholds::nv()
    }

    #[inline(always)]
    fn load(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize) -> (Ps, u64) {
        let (_, value, _) = self.core.load(Own, ctx, addr, size);
        (ctx.now, value)
    }

    #[inline(always)]
    fn store(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize, value: u64) -> Ps {
        ctx.stats.stores += 1;
        // Update the cache copy if (and only if) the line is resident:
        // write-through, no write-allocate.
        let cache_done = if let Some(sw) = self.core.array().lookup(addr) {
            ctx.stats.store_hits += 1;
            self.core.array_mut().touch(sw);
            self.core.array_mut().write(sw, addr, size, value);
            ctx.meter
                .add(EnergyCategory::CacheWrite, self.core.tech().write_pj);
            ctx.now + self.core.tech().write_hit_ps
        } else {
            ctx.now + self.core.tech().miss_detect_ps
        };
        // Synchronous NVM word write: the store retires only when the
        // word is persistent (no store-buffer optimisation, §2.3.1).
        let nvm_done = ctx.sync_word_write(addr, size, value);
        cache_done.max(nvm_done)
    }

    fn checkpoint(&mut self, _ctx: &mut MemCtx<'_>) -> Ps {
        // NVM is always up to date; registers are handled by the machine.
        _ctx.now
    }

    fn power_off(&mut self) {
        self.core.array_mut().invalidate_all();
    }

    fn reboot(&mut self, ctx: &mut MemCtx<'_>, _on_time_ps: Ps) -> Ps {
        ctx.now
    }

    fn worst_checkpoint_pj(&self, _energy: &NvmEnergy) -> Pj {
        0.0
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

    fn wt() -> VCacheWt {
        VCacheWt::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Fifo)
    }

    #[test]
    fn stores_always_reach_nvm() {
        let mut h = H::new();
        let mut c = wt();
        let mut ctx = h.ctx();
        let done = c.store(&mut ctx, 0x10, AccessSize::B4, 0xfeed);
        assert!(done >= NvmTiming::default().word_write_ps());
        assert_eq!(h.nvm.read(0x10, AccessSize::B4), 0xfeed);
        assert_eq!(h.stats.word_writes, 1);
    }

    #[test]
    fn store_miss_does_not_allocate() {
        let mut h = H::new();
        let mut c = wt();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x10, AccessSize::B4, 1);
        assert!(c.core.array().lookup(0x10).is_none());
        assert_eq!(h.stats.store_hits, 0);
    }

    #[test]
    fn store_hit_updates_cached_copy() {
        let mut h = H::new();
        h.nvm.write(0x20, AccessSize::B4, 0x1111);
        let mut c = wt();
        let mut ctx = h.ctx();
        let (_, v) = c.load(&mut ctx, 0x20, AccessSize::B4);
        assert_eq!(v, 0x1111);
        h.now = ctx.now;
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x20, AccessSize::B4, 0x2222);
        h.now = ctx.now;
        let mut ctx = h.ctx();
        let (_, v2) = c.load(&mut ctx, 0x20, AccessSize::B4);
        assert_eq!(v2, 0x2222);
        assert_eq!(h.stats.load_hits, 1);
        assert_eq!(h.stats.store_hits, 1);
    }

    #[test]
    fn power_cycle_loses_cache_but_not_data() {
        let mut h = H::new();
        let mut c = wt();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x30, AccessSize::B8, 0xdeadbeef);
        let _ = c.checkpoint(&mut ctx);
        c.power_off();
        let _ = c.reboot(&mut ctx, 0);
        let (_, v) = c.load(&mut ctx, 0x30, AccessSize::B8);
        assert_eq!(v, 0xdeadbeef);
    }

    /// Why VCache-WT joins no residency class: a store miss leaves its
    /// array as it was, where the write-back designs' residency step —
    /// which a bare array running lookup and touch, or victim and fill,
    /// on every access reproduces — fills the line. The stream: a load
    /// fills line 0, a store misses on line 0x100, a load of line 0x200
    /// in the same set then evicts a different line in each.
    #[test]
    fn its_residency_is_not_the_write_back_designs() {
        let mut h = H::new();
        let mut c = VCacheWt::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Lru);
        let mut bare = crate::TagArray::new(CacheGeometry::new(256, 2, 64), ReplacementPolicy::Lru);
        for (store, addr) in [
            (false, 0x000),
            (true, 0x100),
            (false, 0x200),
            (false, 0x000),
        ] {
            let mut ctx = h.ctx();
            if store {
                let _ = c.store(&mut ctx, addr, AccessSize::B4, 1);
            } else {
                let _ = c.load(&mut ctx, addr, AccessSize::B4);
            }
            match bare.lookup(addr) {
                Some(sw) => bare.touch(sw),
                None => {
                    let victim = bare.victim(addr);
                    let _ = bare.fill_slot(victim, addr);
                }
            }
        }
        let lines = |a: &crate::TagArray| a.valid_lines().map(|(_, base)| base).collect::<Vec<_>>();
        assert_eq!(lines(&bare), [0x200, 0x000]);
        assert_eq!(lines(c.core.array()), [0x000, 0x200]);
        assert_eq!(h.stats.load_hits, 1, "line 0 survives only in VCache-WT");
    }

    #[test]
    fn no_checkpoint_energy_reserve_needed() {
        let c = wt();
        assert_eq!(c.worst_checkpoint_pj(&NvmEnergy::default()), 0.0);
        assert_eq!(c.thresholds(), VoltageThresholds::nv());
    }
}
