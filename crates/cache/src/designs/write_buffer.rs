//! `WBuf-Cache`: the write-through cache + CAM write-back buffer
//! alternative that §3.3 of the paper considers — and rejects — as a
//! way to get WL-Cache's behaviour.
//!
//! The design: a volatile write-through SRAM cache whose stores land in
//! a small *write buffer* of full lines instead of going to NVM
//! synchronously; the buffer drains asynchronously and is flushed by
//! the JIT checkpoint on power failure. Functionally this matches
//! WL-Cache's bounded-dirty-state idea, but the paper's three §3.3
//! objections are structural, and this implementation models all of
//! them so the ablation bench (`--bin ablation_wbuf`) can quantify the
//! comparison:
//!
//! 1. **CAM cost**: every load must search the buffer before the cache
//!    can answer (the buffer may hold newer data), adding latency and
//!    CAM search energy to the *critical path* of every access;
//! 2. **energy**: the buffer holds full lines (data + address), so its
//!    checkpoint reserve and per-access energy exceed the DirtyQueue's
//!    metadata-only footprint;
//! 3. **miss latency**: a miss consults the buffer *and* the cache
//!    before going to memory, lengthening the miss path.

use crate::designs::{Own, WbCore};
use crate::{CacheDesign, CacheGeometry, CacheTech, MemCtx, ReplacementPolicy};
use ehsim_energy::{EnergyCategory, VoltageThresholds};
use ehsim_mem::{AccessSize, NvmEnergy, Pj, Ps};

/// CAM search latency added to every access: a parallel compare across
/// the line-wide buffer entries gates the cache pipeline (~1.2 ns at
/// 90 nm — this is the §3.3 "critical path" objection).
const CAM_SEARCH_PS: Ps = 1_200;
/// CAM search energy per access (from `ehsim_hwcost::write_buffer_spec`:
/// a 6–8-line CAM-searched buffer costs ~7 pJ per probe).
const CAM_SEARCH_PJ: Pj = 7.0;
/// Energy to write one line into the buffer.
const BUF_WRITE_PJ: Pj = 6.0;

#[derive(Debug, Clone)]
struct BufEntry {
    base: u32,
    data: Vec<u8>,
    /// Time at which the in-flight drain (if any) completes.
    draining_until: Option<Ps>,
}

/// The §3.3 write-buffer alternative to WL-Cache.
#[derive(Debug, Clone)]
pub struct WriteBufferCache {
    core: WbCore,
    buffer: Vec<BufEntry>,
    capacity: usize,
    /// Start draining when occupancy exceeds this (like waterline).
    drain_at: usize,
    stall_count: u64,
}

impl WriteBufferCache {
    /// Creates the design with a `capacity`-line write buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(geom: CacheGeometry, policy: ReplacementPolicy, capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one line");
        Self {
            core: WbCore::new(geom, policy, CacheTech::sram()),
            buffer: Vec::with_capacity(capacity),
            capacity,
            drain_at: capacity.saturating_sub(1).max(1),
            stall_count: 0,
        }
    }

    /// Number of store stalls on a full buffer.
    pub fn stalls(&self) -> u64 {
        self.stall_count
    }

    fn charge_cam(&self, ctx: &mut MemCtx<'_>) {
        ctx.now += CAM_SEARCH_PS;
        ctx.meter.add(EnergyCategory::CacheRead, CAM_SEARCH_PJ);
    }

    /// Removes entries whose drain completed.
    fn reap(&mut self, now: Ps) {
        self.buffer
            .retain(|e| !matches!(e.draining_until, Some(t) if t <= now));
    }

    /// Starts draining the oldest idle entry.
    fn drain_one(&mut self, ctx: &mut MemCtx<'_>) {
        if let Some(e) = self.buffer.iter_mut().find(|e| e.draining_until.is_none()) {
            let done = {
                let (_, done) = ctx.port.schedule(
                    ctx.now,
                    ctx.timing.line_write_ps(),
                    ctx.timing.line_write_recovery_ps(),
                );
                ctx.nvm.write_line(e.base, &e.data);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a line buffer is `line_bytes: u32` long"
                )]
                let bytes = e.data.len() as u32;
                ctx.meter
                    .add(EnergyCategory::MemWrite, ctx.energy.write_pj(bytes));
                ctx.stats.nvm_write_bytes += e.data.len() as u64;
                ctx.stats.async_writebacks += 1;
                done
            };
            e.draining_until = Some(done);
        }
    }

    fn buffer_lookup(&self, base: u32) -> Option<usize> {
        self.buffer.iter().position(|e| e.base == base)
    }
}

impl CacheDesign for WriteBufferCache {
    fn name(&self) -> &'static str {
        "WBuf-Cache"
    }

    fn thresholds(&self) -> VoltageThresholds {
        // The buffer's worst case (all `capacity` lines full) must be
        // checkpointable — same reserve shape as WL-Cache at
        // maxline = capacity, i.e. the *highest* WL operating point.
        VoltageThresholds::wl(self.capacity.min(8), 8)
    }

    #[inline(always)]
    fn load(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize) -> (Ps, u64) {
        self.reap(ctx.now);
        // Objection 1: the CAM search gates *every* load.
        self.charge_cam(ctx);
        let base = ehsim_mem::line_base(addr, self.core.array().geometry().line_bytes());
        if let Some(ix) = self.buffer_lookup(base) {
            ctx.stats.loads += 1;
            ctx.stats.load_hits += 1;
            ctx.now += self.core.tech().read_hit_ps;
            let off = (addr - base) as usize;
            let mut v = 0u64;
            for i in 0..size.bytes() as usize {
                v |= u64::from(self.buffer[ix].data[off + i]) << (8 * i);
            }
            return (ctx.now, v);
        }
        let (_, value, _) = self.core.load(Own, ctx, addr, size);
        (ctx.now, value)
    }

    #[inline(always)]
    fn store(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize, value: u64) -> Ps {
        self.reap(ctx.now);
        self.charge_cam(ctx);
        ctx.stats.stores += 1;
        let line_bytes = self.core.array().geometry().line_bytes();
        let base = ehsim_mem::line_base(addr, line_bytes);

        // Keep the cache copy coherent (write-through into SRAM).
        if let Some(sw) = self.core.array().lookup(addr) {
            ctx.stats.store_hits += 1;
            self.core.array_mut().write(sw, addr, size, value);
            ctx.meter
                .add(EnergyCategory::CacheWrite, self.core.tech().write_pj);
        }

        // Merge into an existing buffer entry or allocate a new one.
        let ix = match self.buffer_lookup(base) {
            Some(ix) => ix,
            None => {
                while self.buffer.len() >= self.capacity {
                    // Full: force a drain and wait for the earliest one.
                    self.drain_one(ctx);
                    #[expect(
                        clippy::expect_used,
                        reason = "the write buffer only reports full while a drain is scheduled; \
                                  a documented invariant of the baseline design's FSM"
                    )]
                    let earliest = self
                        .buffer
                        .iter()
                        .filter_map(|e| e.draining_until)
                        .min()
                        .expect("full buffer must be draining");
                    if earliest > ctx.now {
                        self.stall_count += 1;
                        ctx.stats.stall_ps += earliest - ctx.now;
                        ctx.now = earliest;
                    }
                    self.reap(ctx.now);
                }
                // Read-modify-write: fetch the line's current contents
                // so partial stores merge correctly.
                let mut data = vec![0u8; line_bytes as usize];
                if let Some(sw) = self.core.array().lookup(base) {
                    data.copy_from_slice(self.core.array().line_data(sw));
                } else {
                    ctx.nvm.read_line(base, &mut data);
                    ctx.meter
                        .add(EnergyCategory::MemRead, ctx.energy.read_pj(line_bytes));
                    ctx.stats.nvm_read_bytes += u64::from(line_bytes);
                    let (_, done) = ctx.port.schedule(ctx.now, ctx.timing.line_read_ps(), 0);
                    ctx.now = done;
                }
                self.buffer.push(BufEntry {
                    base,
                    data,
                    draining_until: None,
                });
                self.buffer.len() - 1
            }
        };
        let off = (addr - base) as usize;
        for i in 0..size.bytes() as usize {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "keeps byte i of the little-endian value, by design"
            )]
            let byte = (value >> (8 * i)) as u8;
            self.buffer[ix].data[off + i] = byte;
        }
        ctx.meter.add(EnergyCategory::CacheWrite, BUF_WRITE_PJ);

        // Re-dirtying a draining entry is unsafe to merge — the drain
        // snapshot already left; start a fresh entry state.
        if self.buffer[ix].draining_until.is_some() {
            self.buffer[ix].draining_until = None;
        }

        if self.buffer.len() > self.drain_at {
            self.drain_one(ctx);
        }
        ctx.now
    }

    fn checkpoint(&mut self, ctx: &mut MemCtx<'_>) -> Ps {
        self.reap(ctx.now);
        for e in &self.buffer {
            let done = ctx.sync_line_write(e.base, &e.data);
            ctx.now = done;
            ctx.stats.checkpoint_lines += 1;
        }
        self.buffer.clear();
        ctx.now
    }

    fn power_off(&mut self) {
        self.core.array_mut().invalidate_all();
        self.buffer.clear();
    }

    fn reboot(&mut self, ctx: &mut MemCtx<'_>, _on_time_ps: Ps) -> Ps {
        ctx.now
    }

    fn dirty_lines(&self) -> usize {
        self.buffer.len()
    }

    fn worst_checkpoint_pj(&self, energy: &NvmEnergy) -> Pj {
        let line_bytes = self.core.array().geometry().line_bytes();
        self.capacity as f64 * energy.write_pj(line_bytes)
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

    fn wbuf() -> WriteBufferCache {
        WriteBufferCache::new(CacheGeometry::new(512, 2, 64), ReplacementPolicy::Lru, 4)
    }

    #[test]
    fn loads_see_buffered_stores() {
        let mut h = H::new();
        let mut c = wbuf();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x100, AccessSize::B4, 0xfeed);
        let (_, v) = c.load(&mut ctx, 0x100, AccessSize::B4);
        assert_eq!(v, 0xfeed, "buffer must forward to loads");
    }

    #[test]
    fn every_access_pays_the_cam_search() {
        let mut h = H::new();
        let mut c = wbuf();
        let mut ctx = h.ctx();
        let t0 = ctx.now;
        // Warm the line, then measure a *hit* load: it still pays CAM.
        let _ = c.load(&mut ctx, 0x40, AccessSize::B4);
        let warm_start = ctx.now;
        let _ = c.load(&mut ctx, 0x40, AccessSize::B4);
        let hit_latency = ctx.now - warm_start;
        assert!(hit_latency >= CAM_SEARCH_PS + 300, "got {hit_latency}");
        assert!(ctx.now > t0);
    }

    #[test]
    fn buffer_occupancy_is_bounded_and_stalls_count() {
        let mut h = H::new();
        let mut c = wbuf();
        for i in 0..16u32 {
            let mut ctx = h.ctx();
            let done = c.store(&mut ctx, i * 64, AccessSize::B4, u64::from(i));
            h.now = done;
        }
        assert!(c.dirty_lines() <= 4);
        assert!(c.stalls() > 0, "dense stores must stall on a full buffer");
    }

    #[test]
    fn checkpoint_flushes_buffer_to_nvm() {
        let mut h = H::new();
        let mut c = wbuf();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x00, AccessSize::B4, 0x11);
        let _ = c.store(&mut ctx, 0x40, AccessSize::B4, 0x22);
        let _ = c.checkpoint(&mut ctx);
        c.power_off();
        assert_eq!(h.nvm.read(0x00, AccessSize::B4), 0x11);
        assert_eq!(h.nvm.read(0x40, AccessSize::B4), 0x22);
        assert_eq!(c.dirty_lines(), 0);
    }

    #[test]
    fn partial_stores_merge_with_memory_contents() {
        let mut h = H::new();
        h.nvm.write(0x80, AccessSize::B8, 0xaaaa_bbbb_cccc_dddd);
        let mut c = wbuf();
        let mut ctx = h.ctx();
        let _ = c.store(&mut ctx, 0x80, AccessSize::B2, 0x1111);
        let (_, v) = c.load(&mut ctx, 0x80, AccessSize::B8);
        assert_eq!(v, 0xaaaa_bbbb_cccc_1111);
    }

    #[test]
    fn reserve_scales_with_buffer_capacity() {
        let e = NvmEnergy::default();
        let small =
            WriteBufferCache::new(CacheGeometry::new(512, 2, 64), ReplacementPolicy::Lru, 2);
        assert!(wbuf().worst_checkpoint_pj(&e) > small.worst_checkpoint_pj(&e));
    }
}
