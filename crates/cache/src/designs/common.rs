//! Shared machinery for write-back caches over a [`TagArray`].

use crate::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy, SetWay, TagArray};
use ehsim_energy::EnergyCategory;
use ehsim_mem::{AccessSize, FunctionalMem, Ps};

/// The data-array half of a write-back cache design: a [`TagArray`] plus
/// its [`CacheTech`], with the timing/energy bookkeeping for the common
/// hit/miss/evict/fill paths.
///
/// `NvCacheWb`, `NvSramCache`, `ReplayCache` and the `wl-cache` crate's
/// `WlCache` all embed a `WbCore` and allocate on every miss; they
/// differ only in *when* dirty lines travel to NVM. So until power-off
/// their residency — which line sits in which slot, with which LRU/FIFO
/// stamps — is a function of the access stream, the geometry and the
/// replacement policy alone, and a design can run its access paths over
/// another's residency ([`Follow`]) instead of its own ([`Own`]).
#[derive(Debug, Clone)]
pub struct WbCore {
    array: TagArray,
    tech: CacheTech,
    /// The last residency step: the slot it settled on and whether it
    /// hit. A [`Follow`] view of this core replays it.
    last: (SetWay, bool),
    /// The value of the last load.
    loaded: u64,
}

/// Where a [`WbCore`]'s residency comes from: the tags, LRU/FIFO
/// stamps and line bytes its access paths read.
///
/// - [`Own`]: the core's own array, on which the residency step runs
///   (lookup and touch, or victim, dirty-victim write-back and fill).
/// - [`Follow`]: another core's array, whose residency step for the
///   same access already ran. The follower replays its outcome and keeps
///   only its own dirty bits; its own tags, stamps and bytes go stale
///   until it [adopts](WbCore::adopt) the lead's.
///
/// The designs' access paths are written once, generic over this trait
/// ([`WriteBackDesign`]). Every method takes the core's own array.
pub trait Residency<'l>: Copy {
    /// Whether the core records its residency outcomes and loaded
    /// values for a [`Follow`] view: only a core running its own
    /// residency step can lead.
    const LEADS: bool;

    /// The array whose tags, stamps and bytes are current.
    fn lines<'a>(self, own: &'a TagArray) -> &'a TagArray
    where
        'l: 'a;

    /// Reads `size` bytes at `addr` from the resident line at `sw`.
    fn read(self, own: &TagArray, sw: SetWay, addr: u32, size: AccessSize) -> u64;

    /// The hit half of the residency step: the slot holding `addr`'s
    /// line, if it was resident.
    fn hit(self, own: &mut TagArray, addr: u32) -> Option<SetWay>;

    /// The slot `addr`'s fill displaces.
    fn victim(self, own: &TagArray, addr: u32) -> SetWay;

    /// The synchronous write-back of the dirty line at `victim`; returns
    /// its completion time.
    fn write_back(self, own: &TagArray, ctx: &mut MemCtx<'_>, victim: SetWay) -> Ps;

    /// The demand fill of `addr`'s line into `victim`, which leaves it
    /// clean; returns its completion time.
    fn fill(self, own: &mut TagArray, ctx: &mut MemCtx<'_>, victim: SetWay, addr: u32) -> Ps;

    /// Stores `value` into the resident line at `sw`.
    fn write(self, own: &mut TagArray, sw: SetWay, addr: u32, size: AccessSize, value: u64);

    /// Sets or clears the dirty bit of the valid line at `sw`.
    fn set_dirty(self, own: &mut TagArray, sw: SetWay, dirty: bool);

    /// [`TagArray::clean_dirty_lines`] over the own dirty bits.
    fn clean_dirty_lines(self, own: &mut TagArray, f: impl FnMut(u32, &[u8]));

    /// The asynchronous write-back of a line being cleaned, `data` at
    /// `base` ([`MemCtx::async_line_write`]); returns its ACK time.
    fn async_write(self, ctx: &mut MemCtx<'_>, base: u32, data: &[u8]) -> Ps;
}

/// The core's own residency: solo runs, lockstep members outside any
/// residency class, and class leads.
#[derive(Debug, Clone, Copy)]
pub struct Own;

impl<'l> Residency<'l> for Own {
    const LEADS: bool = true;

    #[inline(always)]
    fn lines<'a>(self, own: &'a TagArray) -> &'a TagArray
    where
        'l: 'a,
    {
        own
    }

    #[inline(always)]
    fn read(self, own: &TagArray, sw: SetWay, addr: u32, size: AccessSize) -> u64 {
        own.read(sw, addr, size)
    }

    #[inline(always)]
    fn hit(self, own: &mut TagArray, addr: u32) -> Option<SetWay> {
        let sw = own.lookup(addr)?;
        own.touch(sw);
        Some(sw)
    }

    #[inline(always)]
    fn victim(self, own: &TagArray, addr: u32) -> SetWay {
        own.victim(addr)
    }

    /// Straight from the array's flat data block.
    #[inline(always)]
    fn write_back(self, own: &TagArray, ctx: &mut MemCtx<'_>, victim: SetWay) -> Ps {
        ctx.sync_line_write(own.base_addr(victim), own.line_data(victim))
    }

    /// Reads from NVM directly into the victim slot.
    #[inline(always)]
    fn fill(self, own: &mut TagArray, ctx: &mut MemCtx<'_>, victim: SetWay, addr: u32) -> Ps {
        let base = own.geometry().line_base(addr);
        ctx.sync_line_read(base, own.fill_slot(victim, addr))
    }

    #[inline(always)]
    fn write(self, own: &mut TagArray, sw: SetWay, addr: u32, size: AccessSize, value: u64) {
        own.write(sw, addr, size, value);
    }

    #[inline(always)]
    fn set_dirty(self, own: &mut TagArray, sw: SetWay, dirty: bool) {
        own.set_dirty(sw, dirty);
    }

    #[inline(always)]
    fn clean_dirty_lines(self, own: &mut TagArray, f: impl FnMut(u32, &[u8])) {
        own.clean_dirty_lines(f);
    }

    #[inline(always)]
    fn async_write(self, ctx: &mut MemCtx<'_>, base: u32, data: &[u8]) -> Ps {
        ctx.async_line_write(base, data)
    }
}

/// A residency-class follower's view of its lead's core, taken after
/// the lead served the same access ([`WbCore::follow`]): the lead's
/// array for tags, stamps and bytes, and the lead's residency outcome.
///
/// Following is exact for a design that runs on the same NVM as its
/// lead, with the same geometry and policy, before either has had an
/// outage. The residency step then has the same outcome for both. A
/// follower's dirty victim is already in NVM when it is evicted — the
/// lead just wrote it back if it held it dirty, and cleaned it after the
/// last store if it held it clean — so the follower's write-back is its
/// timing, energy and traffic only; so is its fill, whose bytes the
/// lead holds, and its load, whose value the lead read. Its cleanings
/// and region commits write no bytes either: while it follows, nothing
/// reads them, and when it leaves it writes the lines they would have
/// left newer than the lead's own writes ([`WbCore::adopt`]).
#[derive(Debug, Clone, Copy)]
pub struct Follow<'l> {
    lead: &'l TagArray,
    slot: SetWay,
    hit: bool,
    /// The lead's loaded value, when the access is a load.
    loaded: u64,
}

impl<'l> Residency<'l> for Follow<'l> {
    const LEADS: bool = false;

    #[inline(always)]
    fn lines<'a>(self, _own: &'a TagArray) -> &'a TagArray
    where
        'l: 'a,
    {
        self.lead
    }

    /// The lead read the same bytes already.
    #[inline(always)]
    fn read(self, _own: &TagArray, sw: SetWay, addr: u32, size: AccessSize) -> u64 {
        debug_assert_eq!(self.loaded, self.lead.read(sw, addr, size));
        self.loaded
    }

    #[inline(always)]
    fn hit(self, _own: &mut TagArray, addr: u32) -> Option<SetWay> {
        debug_assert_eq!(
            self.lead.lookup(addr),
            Some(self.slot),
            "a follower's access is not its lead's"
        );
        self.hit.then_some(self.slot)
    }

    #[inline(always)]
    fn victim(self, _own: &TagArray, _addr: u32) -> SetWay {
        self.slot
    }

    #[inline(always)]
    fn write_back(self, own: &TagArray, ctx: &mut MemCtx<'_>, _victim: SetWay) -> Ps {
        ctx.charge_line_write(own.geometry().line_bytes())
    }

    #[inline(always)]
    fn fill(self, own: &mut TagArray, ctx: &mut MemCtx<'_>, victim: SetWay, _addr: u32) -> Ps {
        own.clear_dirty(victim);
        ctx.charge_line_read(own.geometry().line_bytes())
    }

    /// The lead stored the same value already.
    #[inline(always)]
    fn write(self, _own: &mut TagArray, _sw: SetWay, _addr: u32, _size: AccessSize, _value: u64) {}

    /// The slot is valid in the lead, which just made it resident or
    /// holds it dirty.
    #[inline(always)]
    fn set_dirty(self, own: &mut TagArray, sw: SetWay, dirty: bool) {
        debug_assert!(self.lead.is_valid(sw), "cannot mark an invalid line");
        own.set_dirty_bit(sw, dirty);
    }

    #[inline(always)]
    fn clean_dirty_lines(self, own: &mut TagArray, f: impl FnMut(u32, &[u8])) {
        own.clean_dirty_lines_over(self.lead, f);
    }

    /// Nothing reads a follower's cleanings from NVM while it follows:
    /// it reads no NVM, and every other member's reads are covered by
    /// its own writes. So the bytes wait until it leaves
    /// ([`WbCore::adopt`]).
    #[inline(always)]
    fn async_write(self, ctx: &mut MemCtx<'_>, _base: u32, data: &[u8]) -> Ps {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "a line is `line_bytes: u32` long"
        )]
        let bytes = data.len() as u32;
        ctx.charge_async_line_write(bytes)
    }
}

/// A write-allocate write-back design over a [`WbCore`]: NVCache-WB,
/// NVSRAM(ideal), ReplayCache and WL-Cache. Its access paths are
/// generic over [`Residency`]; the [`CacheDesign`] methods `load`,
/// `store` and `on_instructions` run them with [`Own`].
pub trait WriteBackDesign: CacheDesign {
    /// The design's core.
    fn core(&self) -> &WbCore;

    /// Mutable access to the design's core.
    fn core_mut(&mut self) -> &mut WbCore;

    /// [`CacheDesign::load`] over the residency `res`.
    fn load_with<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (Ps, u64);

    /// [`CacheDesign::store`] over the residency `res`.
    fn store_with<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> Ps;

    /// [`CacheDesign::on_instructions`] over the residency `res`.
    #[inline(always)]
    fn on_instructions_with<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        total_instrs: u64,
    ) -> Ps {
        let _ = (res, total_instrs);
        ctx.now
    }
}

impl WbCore {
    /// Creates a cold write-back core.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy, tech: CacheTech) -> Self {
        Self {
            array: TagArray::new(geom, policy),
            tech,
            last: (SetWay { set: 0, way: 0 }, false),
            loaded: 0,
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

    /// The array whose tags, stamps and bytes are current under `res`.
    #[inline(always)]
    pub fn lines<'a, 'l: 'a, R: Residency<'l>>(&'a self, res: R) -> &'a TagArray {
        res.lines(&self.array)
    }

    /// A follower's view of this core, after its access: see [`Follow`].
    #[inline(always)]
    pub fn follow(&self) -> Follow<'_> {
        Follow {
            lead: &self.array,
            slot: self.last.0,
            hit: self.last.1,
            loaded: self.loaded,
        }
    }

    /// Ends following `lead`: takes its residency and keeps the own
    /// dirty bits ([`TagArray::adopt`]). First it writes to `nvm` every
    /// line `lead` holds dirty and this core clean — the lines whose
    /// cleaning bytes it skipped while following ([`Follow`]) — so that
    /// `nvm` holds what this core's own cleanings would have left there.
    pub fn adopt(&mut self, lead: &WbCore, nvm: &mut FunctionalMem) {
        self.array
            .lines_dirty_only_in(&lead.array, |base, data| nvm.write_line(base, data));
        self.array.adopt(&lead.array);
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
    pub fn ensure_resident<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
    ) -> (SetWay, bool) {
        ctx.now += self.lru_overhead(ctx);
        let step = match res.hit(&mut self.array, addr) {
            Some(sw) => (sw, true),
            None => (self.miss(res, ctx, addr), false),
        };
        if R::LEADS {
            self.last = step;
        }
        step
    }

    /// The miss tail of [`WbCore::ensure_resident`]: tag probe,
    /// dirty-victim write-back, then demand fill. Returns the filled
    /// slot.
    #[inline(never)]
    fn miss<'l, R: Residency<'l>>(&mut self, res: R, ctx: &mut MemCtx<'_>, addr: u32) -> SetWay {
        // Miss detect: tag probe.
        ctx.now += self.tech.miss_detect_ps;
        ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);

        let victim = res.victim(&self.array, addr);
        if self.array.is_dirty(victim) {
            // Synchronous eviction write-back of the dirty victim.
            ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);
            let done = res.write_back(&self.array, ctx, victim);
            ctx.stats.evict_writebacks += 1;
            ctx.now = done;
        }

        // Demand fill.
        let done = res.fill(&mut self.array, ctx, victim, addr);
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
    pub fn load<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (SetWay, u64, bool) {
        ctx.stats.loads += 1;
        let (sw, hit) = self.ensure_resident(res, ctx, addr);
        if hit {
            ctx.stats.load_hits += 1;
        }
        ctx.now += self.tech.read_hit_ps;
        ctx.meter.add(EnergyCategory::CacheRead, self.tech.read_pj);
        let value = res.read(&self.array, sw, addr, size);
        if R::LEADS {
            self.loaded = value;
        }
        (sw, value, hit)
    }

    /// Full store path for write-allocate write-back designs: residency +
    /// array write. Does **not** set the dirty bit — the caller decides
    /// (WL-Cache couples that transition to DirtyQueue insertion).
    /// Returns `(slot, was_dirty_before, hit)`.
    #[inline(always)]
    pub fn store_resident<'l, R: Residency<'l>>(
        &mut self,
        res: R,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> (SetWay, bool, bool) {
        ctx.stats.stores += 1;
        let (sw, hit) = self.ensure_resident(res, ctx, addr);
        if hit {
            ctx.stats.store_hits += 1;
        }
        let was_dirty = self.array.is_dirty(sw);
        ctx.now += self.tech.write_hit_ps;
        ctx.meter
            .add(EnergyCategory::CacheWrite, self.tech.write_pj);
        res.write(&mut self.array, sw, addr, size, value);
        (sw, was_dirty, hit)
    }

    /// Sets or clears the dirty bit of the valid line at `sw`.
    #[inline(always)]
    pub fn set_dirty<'l, R: Residency<'l>>(&mut self, res: R, sw: SetWay, dirty: bool) {
        res.set_dirty(&mut self.array, sw, dirty);
    }

    /// Cleans every dirty line, handing `f` each one's base address and
    /// bytes under `res` ([`TagArray::clean_dirty_lines`]).
    #[inline(always)]
    pub fn clean_dirty_lines<'l, R: Residency<'l>>(&mut self, res: R, f: impl FnMut(u32, &[u8])) {
        res.clean_dirty_lines(&mut self.array, f);
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
        let (_, v, hit) = c.load(Own, &mut ctx, 0x100, AccessSize::B4);
        let t_miss = ctx.now;
        h.now = t_miss;
        assert!(!hit);
        assert_eq!(v, 0xabcd);
        assert!(t_miss >= NvmTiming::default().line_read_ps());

        let mut ctx = h.ctx();
        let (_, v2, hit2) = c.load(Own, &mut ctx, 0x104, AccessSize::B4);
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
        let (sw, was_dirty, hit) = c.store_resident(Own, &mut ctx, 0x40, AccessSize::B4, 7);
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
        let (sw, _, _) = c.store_resident(Own, &mut ctx, 0x00, AccessSize::B4, 0x1234);
        c.array_mut().set_dirty(sw, true);
        h.now = ctx.now;

        // Conflict-miss on the same set evicts the dirty line.
        let mut ctx = h.ctx();
        let _ = c.load(Own, &mut ctx, 0x80, AccessSize::B4);
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
        let _ = c.load(Own, &mut ctx, 0x00, AccessSize::B4);
        h.now = ctx.now;
        let mut ctx = h.ctx();
        let _ = c.load(Own, &mut ctx, 0x80, AccessSize::B4);
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
        let _ = c_lru.load(Own, &mut ctx, 0x0, AccessSize::B4);
        let lru_energy = h_lru.meter.total();

        let mut h_fifo = Harness::new();
        let mut c_fifo = core();
        let mut ctx = h_fifo.ctx();
        let _ = c_fifo.load(Own, &mut ctx, 0x0, AccessSize::B4);
        assert!(lru_energy > h_fifo.meter.total());
    }
}
