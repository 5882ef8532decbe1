//! Shared machinery for write-back caches over a [`TagArray`].

use crate::{CacheGeometry, CacheTech, MemCtx, ReplacementPolicy, SetWay, TagArray};
use ehsim_energy::EnergyCategory;
use ehsim_mem::Ps;

/// The data-array half of a write-back cache design: a [`TagArray`] plus
/// its [`CacheTech`], with the timing/energy bookkeeping for the common
/// hit/miss/evict/fill paths.
///
/// `NvSramCache`, `ReplayCache` and the `wl-cache` crate's `WlCache` all
/// embed a `WbCore`; they differ only in *when* dirty lines travel to
/// NVM.
#[derive(Debug, Clone)]
pub struct WbCore {
    array: TagArray,
    tech: CacheTech,
}

impl WbCore {
    /// Creates a cold write-back core.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy, tech: CacheTech) -> Self {
        Self {
            array: TagArray::new(geom, policy),
            tech,
        }
    }

    /// The underlying array.
    pub fn array(&self) -> &TagArray {
        &self.array
    }

    /// Mutable access to the underlying array.
    pub fn array_mut(&mut self) -> &mut TagArray {
        &mut self.array
    }

    /// The array technology.
    pub fn tech(&self) -> &CacheTech {
        &self.tech
    }

    /// Per-access LRU bookkeeping overhead (zero under FIFO replacement).
    #[inline(always)]
    fn lru_overhead(&self, ctx: &mut MemCtx<'_>) -> Ps {
        if self.array.policy() == ReplacementPolicy::Lru {
            ctx.meter
                .add(EnergyCategory::CacheWrite, self.tech.lru_extra_pj);
            self.tech.lru_extra_ps
        } else {
            0
        }
    }

    /// Makes sure `addr`'s line is resident, running the full miss path
    /// if needed (dirty-victim write-back, then demand fill). Updates
    /// `ctx.now` to the time the line is available and returns
    /// `(slot, hit)`.
    ///
    /// Hit/miss *timing for the access itself* (read vs. write) is added
    /// by [`WbCore::load`] / [`WbCore::store_resident`]; this method
    /// accounts only the miss-path costs.
    ///
    /// The hit path is forced inline into the designs' access methods
    /// (left to itself, LLVM keeps this out of line: the vectorized tag
    /// scan makes it too big); the miss path stays out of line in
    /// [`WbCore::miss`].
    #[inline(always)]
    pub fn ensure_resident(&mut self, ctx: &mut MemCtx<'_>, addr: u32) -> (SetWay, bool) {
        ctx.now += self.lru_overhead(ctx);
        if let Some(sw) = self.array.lookup(addr) {
            self.array.touch(sw);
            return (sw, true);
        }
        (self.miss(ctx, addr), false)
    }

    /// The miss tail of [`WbCore::ensure_resident`]: tag probe,
    /// dirty-victim write-back, then demand fill. Returns the filled
    /// slot.
    #[inline(never)]
    fn miss(&mut self, ctx: &mut MemCtx<'_>, addr: u32) -> SetWay {
        // Miss detect: tag probe.
        ctx.now += self.tech.miss_detect_ps;
        ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);

        let victim = self.array.victim(addr);
        if self.array.is_dirty(victim) {
            // Synchronous eviction write-back of the dirty victim,
            // straight from the array's flat data block.
            let base = self.array.base_addr(victim);
            ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);
            let done = ctx.sync_line_write(base, self.array.line_data(victim));
            ctx.stats.evict_writebacks += 1;
            ctx.now = done;
        }

        // Demand fill: read from NVM directly into the victim slot.
        let base = self.array.geometry().line_base(addr);
        let done = ctx.sync_line_read(base, self.array.fill_slot(victim, addr));
        ctx.now = done;
        ctx.meter
            .add(EnergyCategory::CacheWrite, self.tech.write_pj);
        ctx.now += self.tech.write_hit_ps;
        ctx.stats.line_fills += 1;
        victim
    }

    /// Full load path: residency + array read. Updates counters and
    /// `ctx.now`; returns `(slot, value, hit)`.
    #[inline(always)]
    pub fn load(
        &mut self,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: ehsim_mem::AccessSize,
    ) -> (SetWay, u64, bool) {
        ctx.stats.loads += 1;
        let (sw, hit) = self.ensure_resident(ctx, addr);
        if hit {
            ctx.stats.load_hits += 1;
        }
        ctx.now += self.tech.read_hit_ps;
        ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);
        let value = self.array.read(sw, addr, size);
        (sw, value, hit)
    }

    /// Full store path for write-allocate write-back designs: residency +
    /// array write. Does **not** set the dirty bit — the caller decides
    /// (WL-Cache couples that transition to DirtyQueue insertion).
    /// Returns `(slot, was_dirty_before, hit)`.
    #[inline(always)]
    pub fn store_resident(
        &mut self,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: ehsim_mem::AccessSize,
        value: u64,
    ) -> (SetWay, bool, bool) {
        ctx.stats.stores += 1;
        let (sw, hit) = self.ensure_resident(ctx, addr);
        if hit {
            ctx.stats.store_hits += 1;
        }
        let was_dirty = self.array.is_dirty(sw);
        ctx.now += self.tech.write_hit_ps;
        ctx.meter
            .add(EnergyCategory::CacheWrite, self.tech.write_pj);
        self.array.write(sw, addr, size, value);
        (sw, was_dirty, hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CacheStats;
    use ehsim_energy::EnergyMeter;
    use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, NvmPort, NvmTiming};

    struct Harness {
        port: NvmPort,
        timing: NvmTiming,
        energy: NvmEnergy,
        nvm: FunctionalMem,
        meter: EnergyMeter,
        stats: CacheStats,
        now: Ps,
        obs: ehsim_obs::ObserverBox,
    }

    impl Harness {
        fn new() -> Self {
            Self {
                port: NvmPort::new(),
                timing: NvmTiming::default(),
                energy: NvmEnergy::default(),
                nvm: FunctionalMem::new(8192),
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

    fn core() -> WbCore {
        WbCore::new(
            CacheGeometry::new(256, 2, 64),
            ReplacementPolicy::Fifo,
            CacheTech::sram(),
        )
    }

    #[test]
    fn cold_load_fills_and_hits_after() {
        let mut h = Harness::new();
        h.nvm.write(0x100, AccessSize::B4, 0xabcd);
        let mut c = core();

        let mut ctx = h.ctx();
        let (_, v, hit) = c.load(&mut ctx, 0x100, AccessSize::B4);
        let t_miss = ctx.now;
        h.now = t_miss;
        assert!(!hit);
        assert_eq!(v, 0xabcd);
        assert!(t_miss >= NvmTiming::default().line_read_ps());

        let mut ctx = h.ctx();
        let (_, v2, hit2) = c.load(&mut ctx, 0x104, AccessSize::B4);
        let t_hit = ctx.now - t_miss;
        assert!(hit2);
        assert_eq!(v2, 0); // untouched bytes
        assert!(t_hit < 1_000, "hit path should be sub-ns, got {t_hit} ps");
        assert_eq!(h.stats.loads, 2);
        assert_eq!(h.stats.load_hits, 1);
        assert_eq!(h.stats.line_fills, 1);
    }

    #[test]
    fn store_does_not_mark_dirty_by_itself() {
        let mut h = Harness::new();
        let mut c = core();
        let mut ctx = h.ctx();
        let (sw, was_dirty, hit) = c.store_resident(&mut ctx, 0x40, AccessSize::B4, 7);
        assert!(!hit && !was_dirty);
        assert!(!c.array().is_dirty(sw));
        assert_eq!(c.array().read(sw, 0x40, AccessSize::B4), 7);
    }

    #[test]
    fn dirty_eviction_writes_back_to_nvm() {
        let mut h = Harness::new();
        // Direct-mapped, 2 sets: 0x000 and 0x080 conflict (set 0).
        let mut c = WbCore::new(
            CacheGeometry::new(128, 1, 64),
            ReplacementPolicy::Fifo,
            CacheTech::sram(),
        );
        let mut ctx = h.ctx();
        let (sw, _, _) = c.store_resident(&mut ctx, 0x00, AccessSize::B4, 0x1234);
        c.array_mut().set_dirty(sw, true);
        h.now = ctx.now;

        // Conflict-miss on the same set evicts the dirty line.
        let mut ctx = h.ctx();
        let _ = c.load(&mut ctx, 0x80, AccessSize::B4);
        assert_eq!(h.stats.evict_writebacks, 1);
        assert_eq!(h.nvm.read(0x00, AccessSize::B4), 0x1234);
    }

    #[test]
    fn clean_eviction_skips_write_back() {
        let mut h = Harness::new();
        let mut c = WbCore::new(
            CacheGeometry::new(128, 1, 64),
            ReplacementPolicy::Fifo,
            CacheTech::sram(),
        );
        let mut ctx = h.ctx();
        let _ = c.load(&mut ctx, 0x00, AccessSize::B4);
        h.now = ctx.now;
        let mut ctx = h.ctx();
        let _ = c.load(&mut ctx, 0x80, AccessSize::B4);
        assert_eq!(h.stats.evict_writebacks, 0);
        assert_eq!(h.stats.line_fills, 2);
    }

    #[test]
    fn lru_policy_charges_overhead_energy() {
        let mut h_lru = Harness::new();
        let mut c_lru = WbCore::new(
            CacheGeometry::new(256, 2, 64),
            ReplacementPolicy::Lru,
            CacheTech::sram(),
        );
        let mut ctx = h_lru.ctx();
        let _ = c_lru.load(&mut ctx, 0x0, AccessSize::B4);
        let lru_energy = h_lru.meter.total();

        let mut h_fifo = Harness::new();
        let mut c_fifo = core();
        let mut ctx = h_fifo.ctx();
        let _ = c_fifo.load(&mut ctx, 0x0, AccessSize::B4);
        assert!(lru_energy > h_fifo.meter.total());
    }
}
