//! Static-dispatch wrapper over the five cache designs.

use crate::config::{DesignKind, SimConfig};
use ehsim_cache::designs::{
    Follow, NvCacheWb, NvSramCache, Own, ReplayCache, VCacheWt, WbCore, WriteBackDesign,
    WriteBufferCache,
};
use ehsim_cache::{CacheDesign, MemCtx};
use ehsim_energy::VoltageThresholds;
use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, Pj, Ps};
use wl_cache::{WlCache, WlCacheBuilder};

/// One of the five evaluated cache designs, dispatched statically.
///
/// An enum (rather than `Box<dyn CacheDesign>`) keeps the hot
/// load/store path free of virtual calls and lets the report builder
/// reach the concrete [`WlCache`] for its §6.6 statistics.
// One long-lived instance per Machine: the size spread between
// variants costs nothing, while boxing the large ones would put a
// pointer chase back on the per-access path this enum exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum DesignBox {
    /// Volatile write-through cache.
    VCacheWt(VCacheWt),
    /// Non-volatile write-back cache.
    NvCacheWb(NvCacheWb),
    /// NVSRAM(ideal).
    NvSram(NvSramCache),
    /// ReplayCache.
    Replay(ReplayCache),
    /// WL-Cache.
    Wl(WlCache),
    /// The §3.3 write-buffer alternative.
    WBuf(WriteBufferCache),
}

impl DesignBox {
    /// Instantiates the design described by `cfg`.
    pub fn from_config(cfg: &SimConfig) -> Self {
        match &cfg.design {
            DesignKind::VCacheWt => {
                DesignBox::VCacheWt(VCacheWt::new(cfg.geometry, cfg.cache_policy))
            }
            DesignKind::NvCacheWb => {
                DesignBox::NvCacheWb(NvCacheWb::new(cfg.geometry, cfg.cache_policy))
            }
            DesignKind::NvSram => {
                DesignBox::NvSram(NvSramCache::new(cfg.geometry, cfg.cache_policy))
            }
            DesignKind::Replay { region_instrs } => DesignBox::Replay(ReplayCache::new(
                cfg.geometry,
                cfg.cache_policy,
                *region_instrs,
                cfg.cpu.compute_pj_per_cycle,
            )),
            DesignKind::WBuf { capacity } => DesignBox::WBuf(WriteBufferCache::new(
                cfg.geometry,
                cfg.cache_policy,
                *capacity,
            )),
            DesignKind::Wl {
                thresholds,
                dq_policy,
                adaptation,
            } => {
                let mut b = WlCacheBuilder::new();
                b.geometry(cfg.geometry)
                    .cache_policy(cfg.cache_policy)
                    .thresholds(*thresholds)
                    .dq_policy(*dq_policy)
                    .adaptation(*adaptation);
                DesignBox::Wl(b.build())
            }
        }
    }

    /// The concrete WL-Cache, if this is one.
    pub fn as_wl(&self) -> Option<&WlCache> {
        match self {
            DesignBox::Wl(wl) => Some(wl),
            _ => None,
        }
    }

    /// Whether this design overrides
    /// [`CacheDesign::on_instructions`]. For every other design the
    /// default implementation returns `ctx.now` unchanged, so the
    /// machine can skip building a [`MemCtx`] per retired instruction
    /// entirely — a pure hot-path saving with no observable effect.
    pub fn has_instruction_hook(&self) -> bool {
        matches!(self, DesignBox::Replay(_))
    }
}

/// Runs `$e` on the [`WriteBackDesign`] inside a residency-class
/// member's box. Only write-back designs join a residency class
/// ([`SimConfig::residency_class`]).
macro_rules! write_back {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            DesignBox::NvCacheWb($d) => $e,
            DesignBox::NvSram($d) => $e,
            DesignBox::Replay($d) => $e,
            DesignBox::Wl($d) => $e,
            DesignBox::VCacheWt(_) | DesignBox::WBuf(_) => {
                unreachable!("only write-back designs join a residency class")
            }
        }
    };
}

/// A residency-class member's residency (see the `lockstep` module).
impl DesignBox {
    /// The write-back core of a residency-class member.
    fn core(&self) -> &WbCore {
        write_back!(self, d => d.core())
    }

    /// This member's residency, for a member that follows it: its
    /// array and its last access's outcome.
    #[inline(always)]
    pub(crate) fn residency(&self) -> Follow<'_> {
        self.core().follow()
    }

    /// Ends following `lead`: takes its residency and keeps the own
    /// dirty bits.
    pub(crate) fn adopt(&mut self, lead: &DesignBox, nvm: &mut FunctionalMem) {
        let lead = lead.core();
        write_back!(self, d => d.core_mut().adopt(lead, nvm));
    }
}

/// Where a machine's design takes its residency from for an access:
/// [`Own`] for every design, or a residency-class lead's ([`Follow`]) for
/// a write-back design that follows one (see the `lockstep` module). The
/// machine's access halves are generic over it.
pub(crate) trait Via: Copy {
    fn load(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (Ps, u64);
    fn store(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> Ps;
    fn on_instructions(self, d: &mut DesignBox, ctx: &mut MemCtx<'_>, total_instrs: u64) -> Ps;
}

impl Via for Own {
    #[inline(always)]
    fn load(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (Ps, u64) {
        d.load(ctx, addr, size)
    }
    #[inline(always)]
    fn store(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> Ps {
        d.store(ctx, addr, size, value)
    }
    #[inline(always)]
    fn on_instructions(self, d: &mut DesignBox, ctx: &mut MemCtx<'_>, total_instrs: u64) -> Ps {
        d.on_instructions(ctx, total_instrs)
    }
}

impl Via for Follow<'_> {
    #[inline(always)]
    fn load(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
    ) -> (Ps, u64) {
        write_back!(d, d => d.load_with(self, ctx, addr, size))
    }
    #[inline(always)]
    fn store(
        self,
        d: &mut DesignBox,
        ctx: &mut MemCtx<'_>,
        addr: u32,
        size: AccessSize,
        value: u64,
    ) -> Ps {
        write_back!(d, d => d.store_with(self, ctx, addr, size, value))
    }
    #[inline(always)]
    fn on_instructions(self, d: &mut DesignBox, ctx: &mut MemCtx<'_>, total_instrs: u64) -> Ps {
        write_back!(d, d => d.on_instructions_with(self, ctx, total_instrs))
    }
}

macro_rules! delegate {
    ($self:ident, $d:ident => $e:expr) => {
        match $self {
            DesignBox::VCacheWt($d) => $e,
            DesignBox::NvCacheWb($d) => $e,
            DesignBox::NvSram($d) => $e,
            DesignBox::Replay($d) => $e,
            DesignBox::Wl($d) => $e,
            DesignBox::WBuf($d) => $e,
        }
    };
}

impl CacheDesign for DesignBox {
    fn name(&self) -> &'static str {
        delegate!(self, d => d.name())
    }
    fn thresholds(&self) -> VoltageThresholds {
        delegate!(self, d => d.thresholds())
    }
    fn boot(&mut self, now: Ps) {
        delegate!(self, d => d.boot(now))
    }
    #[inline(always)]
    fn load(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize) -> (Ps, u64) {
        delegate!(self, d => d.load(ctx, addr, size))
    }
    #[inline(always)]
    fn store(&mut self, ctx: &mut MemCtx<'_>, addr: u32, size: AccessSize, value: u64) -> Ps {
        delegate!(self, d => d.store(ctx, addr, size, value))
    }
    fn checkpoint(&mut self, ctx: &mut MemCtx<'_>) -> Ps {
        delegate!(self, d => d.checkpoint(ctx))
    }
    fn power_off(&mut self) {
        delegate!(self, d => d.power_off())
    }
    fn reboot(&mut self, ctx: &mut MemCtx<'_>, on_time_ps: Ps) -> Ps {
        delegate!(self, d => d.reboot(ctx, on_time_ps))
    }
    #[inline(always)]
    fn on_instructions(&mut self, ctx: &mut MemCtx<'_>, total_instrs: u64) -> Ps {
        delegate!(self, d => d.on_instructions(ctx, total_instrs))
    }
    fn dirty_lines(&self) -> usize {
        delegate!(self, d => d.dirty_lines())
    }
    fn worst_checkpoint_pj(&self, energy: &NvmEnergy) -> Pj {
        delegate!(self, d => d.worst_checkpoint_pj(energy))
    }
    fn persistent_overlay(&self, nvm: &FunctionalMem) -> FunctionalMem {
        delegate!(self, d => d.persistent_overlay(nvm))
    }
    fn persistent_line(&self, base: u32) -> Option<&[u8]> {
        delegate!(self, d => d.persistent_line(base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    #[test]
    fn from_config_builds_matching_design() {
        for cfg in SimConfig::all_designs() {
            let d = DesignBox::from_config(&cfg);
            assert_eq!(d.name(), cfg.design.label());
        }
    }

    #[test]
    fn as_wl_only_for_wl() {
        assert!(DesignBox::from_config(&SimConfig::wl_cache())
            .as_wl()
            .is_some());
        assert!(DesignBox::from_config(&SimConfig::nvsram())
            .as_wl()
            .is_none());
    }

    #[test]
    fn dyn_label_differs() {
        let d = DesignBox::from_config(&SimConfig::wl_cache_dyn());
        // The design's own name is WL-Cache; the config label carries
        // the (dyn) distinction for figures.
        assert_eq!(d.name(), "WL-Cache");
        assert_eq!(SimConfig::wl_cache_dyn().design.label(), "WL-Cache(dyn)");
    }
}
