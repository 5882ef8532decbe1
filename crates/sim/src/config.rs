//! Simulation configuration.

use crate::params::CpuParams;
use ehsim_cache::{CacheGeometry, ReplacementPolicy};
use ehsim_energy::{ChargingModel, PowerTrace, TraceKind};
use ehsim_mem::{NvmEnergy, NvmTiming};
use wl_cache::{AdaptationMode, DqPolicy, Thresholds};

/// Which cache design the machine is built around.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignKind {
    /// Volatile write-through SRAM cache.
    VCacheWt,
    /// Fully non-volatile write-back cache.
    NvCacheWb,
    /// NVSRAM(ideal): volatile write-back SRAM + NV checkpoint copy.
    NvSram,
    /// ReplayCache with the given region length in instructions.
    Replay {
        /// Instructions per persistence region.
        region_instrs: u64,
    },
    /// The §3.3 write-buffer alternative (for ablation studies).
    WBuf {
        /// Write-buffer capacity in lines.
        capacity: usize,
    },
    /// WL-Cache.
    Wl {
        /// DirtyQueue thresholds (capacity / maxline / waterline).
        thresholds: Thresholds,
        /// DirtyQueue replacement policy (§5.2).
        dq_policy: DqPolicy,
        /// Threshold adaptation mode (§4).
        adaptation: AdaptationMode,
    },
}

impl DesignKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::VCacheWt => "VCache-WT",
            DesignKind::NvCacheWb => "NVCache-WB",
            DesignKind::NvSram => "NVSRAM(ideal)",
            DesignKind::Replay { .. } => "ReplayCache",
            DesignKind::WBuf { .. } => "WBuf-Cache",
            DesignKind::Wl {
                adaptation: AdaptationMode::Dynamic,
                ..
            } => "WL-Cache(dyn)",
            DesignKind::Wl { .. } => "WL-Cache",
        }
    }
}

/// Full configuration of one simulation run.
///
/// Use the design-specific constructors ([`SimConfig::wl_cache`],
/// [`SimConfig::nvsram`], …) and chain `with_*` modifiers:
///
/// ```
/// use ehsim::SimConfig;
/// use ehsim_energy::{ChargingModel, PowerTrace, TraceKind};
/// use ehsim_cache::CacheGeometry;
///
/// let cfg = SimConfig::nvsram()
///     .with_trace(TraceKind::Rf2)
///     .with_geometry(CacheGeometry::new(512, 2, 64))
///     .with_capacitor_uf(10.0);
/// assert_eq!(cfg.design.label(), "NVSRAM(ideal)");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// The cache design under test.
    pub design: DesignKind,
    /// Cache layout.
    ///
    /// Default: 1 kB, 2-way, 64 B lines. The kernels in
    /// `ehsim-workloads` have footprints of a few kB–tens of kB (far
    /// smaller than the paper's full applications), so the default cache
    /// is scaled down proportionally from the paper's 8 kB to keep miss
    /// ratios realistic; [`SimConfig::with_paper_geometry`] selects the
    /// full Table 2 layout, and Fig 10(a) sweeps 128 B–4 kB.
    pub geometry: CacheGeometry,
    /// Cache replacement policy (§5.4; LRU is the paper default,
    /// §6.5 sweeps FIFO).
    pub cache_policy: ReplacementPolicy,
    /// Harvesting environment.
    pub trace: TraceKind,
    /// A user-supplied trace (e.g. loaded with
    /// [`ehsim_energy::load_trace`]); overrides [`SimConfig::trace`]
    /// when present, and enables power failures.
    pub custom_trace: Option<PowerTrace>,
    /// Capacitor size in µF (Table 2 default: 1 µF).
    pub capacitor_uf: f64,
    /// Core parameters.
    pub cpu: CpuParams,
    /// NVM timing (Table 2).
    pub nvm_timing: NvmTiming,
    /// NVM energy.
    pub nvm_energy: NvmEnergy,
    /// Harvesting front-end charging model (voltage-dependent
    /// efficiency).
    pub charging: ChargingModel,
    /// Maintain an oracle memory and verify crash consistency at every
    /// checkpoint (slower; meant for tests).
    pub verify: bool,
    /// Abort if the run exceeds this many outages (runaway guard).
    pub max_outages: u64,
}

/// The part of a [`SimConfig`] that a run's *access half* reads — the
/// cache, NVM and clock work of every op — with the *power input* left
/// out: `trace`, `custom_trace`, `capacitor_uf`, `charging` and
/// `max_outages`. Configurations of one class do identical access work
/// until their first outage, so a lockstep group runs that work once
/// for all of them (see the `lockstep` module). Built by
/// [`SimConfig::access_class`].
#[derive(Debug, PartialEq)]
pub struct AccessClass<'a> {
    design: &'a DesignKind,
    geometry: &'a CacheGeometry,
    cache_policy: &'a ReplacementPolicy,
    cpu: &'a CpuParams,
    nvm_timing: &'a NvmTiming,
    nvm_energy: &'a NvmEnergy,
}

/// The part of a [`SimConfig`] that decides a write-back design's
/// *residency* — which line sits in which slot of its array, with which
/// LRU/FIFO stamps — until its first outage: the geometry and the
/// replacement policy. NVSRAM(ideal), NVCache-WB, ReplayCache and
/// WL-Cache (in every adaptation mode) allocate on every miss and
/// differ only in when dirty lines travel to NVM, so configurations of
/// one class hold the same lines in the same slots on the same access
/// stream, and a lockstep group runs their residency step once (see
/// the `lockstep` module). Built by [`SimConfig::residency_class`].
#[derive(Debug, PartialEq)]
pub struct ResidencyClass<'a> {
    geometry: &'a CacheGeometry,
    cache_policy: &'a ReplacementPolicy,
}

impl SimConfig {
    /// This configuration's [`ResidencyClass`], or `None` when it never
    /// shares its array's residency: VCache-WT does not allocate on a
    /// store miss and the write buffer's hits bypass the array, so their
    /// residency is not the write-back designs'; a verifying
    /// configuration keeps its own NVM, which a follower's skipped
    /// write-back bytes would never reach.
    pub fn residency_class(&self) -> Option<ResidencyClass<'_>> {
        // Exhaustive destructuring: a new `SimConfig` field breaks this
        // binding until it is sorted into the class or left out.
        let SimConfig {
            design,
            geometry,
            cache_policy,
            trace: _,
            custom_trace: _,
            capacitor_uf: _,
            cpu: _,
            nvm_timing: _,
            nvm_energy: _,
            charging: _,
            verify,
            max_outages: _,
        } = self;
        let write_back = match design {
            DesignKind::NvCacheWb
            | DesignKind::NvSram
            | DesignKind::Replay { .. }
            | DesignKind::Wl { .. } => true,
            DesignKind::VCacheWt | DesignKind::WBuf { .. } => false,
        };
        (write_back && !*verify).then_some(ResidencyClass {
            geometry,
            cache_policy,
        })
    }

    /// This configuration's [`AccessClass`], or `None` when it never
    /// shares its access half: a verifying configuration keeps its own
    /// NVM and checker, and WL-Cache(dyn)'s access half reads the
    /// capacitor voltage (its opportunistic `maxline` raise).
    pub fn access_class(&self) -> Option<AccessClass<'_>> {
        // Exhaustive destructuring: a new `SimConfig` field breaks this
        // binding until it is sorted into the class or the power input.
        let SimConfig {
            design,
            geometry,
            cache_policy,
            trace: _,
            custom_trace: _,
            capacitor_uf: _,
            cpu,
            nvm_timing,
            nvm_energy,
            charging: _,
            verify,
            max_outages: _,
        } = self;
        let dynamic = matches!(
            design,
            DesignKind::Wl {
                adaptation: AdaptationMode::Dynamic,
                ..
            }
        );
        (!*verify && !dynamic).then_some(AccessClass {
            design,
            geometry,
            cache_policy,
            cpu,
            nvm_timing,
            nvm_energy,
        })
    }

    fn base(design: DesignKind) -> Self {
        Self {
            design,
            geometry: CacheGeometry::new(1024, 2, 64),
            cache_policy: ReplacementPolicy::Lru,
            trace: TraceKind::None,
            custom_trace: None,
            capacitor_uf: 1.0,
            cpu: CpuParams::default(),
            nvm_timing: NvmTiming::default(),
            nvm_energy: NvmEnergy::default(),
            charging: ChargingModel::paper_default(),
            verify: false,
            max_outages: 1_000_000,
        }
    }

    /// WL-Cache with the paper's defaults (DirtyQueue 8, maxline 6,
    /// FIFO DirtyQueue replacement, adaptive management).
    pub fn wl_cache() -> Self {
        Self::base(DesignKind::Wl {
            thresholds: Thresholds::paper_default(),
            dq_policy: DqPolicy::Fifo,
            adaptation: AdaptationMode::Adaptive,
        })
    }

    /// WL-Cache with static thresholds at the given maxline
    /// (waterline = maxline − 1), for the Fig 9/11/12 sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `maxline` is 0 or exceeds the default DirtyQueue
    /// capacity of 8.
    #[expect(
        clippy::expect_used,
        reason = "config construction is the user-facing validation boundary; a panic with \
                  this message is the diagnostic for an out-of-range maxline override"
    )]
    pub fn wl_cache_static(maxline: usize) -> Self {
        Self::base(DesignKind::Wl {
            thresholds: Thresholds::with_maxline(8, maxline)
                .expect("maxline must be within the 8-entry DirtyQueue"),
            dq_policy: DqPolicy::Fifo,
            adaptation: AdaptationMode::Static,
        })
    }

    /// WL-Cache (dyn): adaptive plus opportunistic dynamic raises
    /// (Fig 13(a)).
    pub fn wl_cache_dyn() -> Self {
        Self::base(DesignKind::Wl {
            thresholds: Thresholds::paper_default(),
            dq_policy: DqPolicy::Fifo,
            adaptation: AdaptationMode::Dynamic,
        })
    }

    /// NVSRAM(ideal) — the paper's baseline for all speedup figures.
    pub fn nvsram() -> Self {
        Self::base(DesignKind::NvSram)
    }

    /// Volatile write-through cache.
    pub fn vcache_wt() -> Self {
        Self::base(DesignKind::VCacheWt)
    }

    /// Non-volatile write-back cache.
    pub fn nvcache_wb() -> Self {
        Self::base(DesignKind::NvCacheWb)
    }

    /// ReplayCache with the default 64-instruction regions.
    pub fn replay() -> Self {
        Self::base(DesignKind::Replay { region_instrs: 64 })
    }

    /// The §3.3 write-buffer alternative with a 6-line buffer (matching
    /// WL-Cache's default maxline), for the ablation bench.
    pub fn write_buffer() -> Self {
        Self::base(DesignKind::WBuf { capacity: 6 })
    }

    /// The five designs of Figs 4–6, in the paper's legend order.
    pub fn all_designs() -> Vec<SimConfig> {
        vec![
            Self::nvsram(),
            Self::nvcache_wb(),
            Self::vcache_wt(),
            Self::replay(),
            Self::wl_cache(),
        ]
    }

    /// Sets the harvesting trace.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceKind) -> Self {
        self.trace = trace;
        self
    }

    /// Supplies a recorded/custom power trace (see
    /// [`ehsim_energy::parse_trace`]); power failures are simulated
    /// against it regardless of [`SimConfig::trace`].
    #[must_use]
    pub fn with_custom_trace(mut self, trace: PowerTrace) -> Self {
        self.custom_trace = Some(trace);
        self
    }

    /// Label of the effective trace, for reports.
    pub fn trace_label(&self) -> &'static str {
        if self.custom_trace.is_some() {
            "custom"
        } else {
            self.trace.label()
        }
    }

    /// Sets the cache geometry.
    #[must_use]
    pub fn with_geometry(mut self, geometry: CacheGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Selects the paper's full 8 kB, 2-way, 64 B geometry (Table 2).
    #[must_use]
    pub fn with_paper_geometry(mut self) -> Self {
        self.geometry = CacheGeometry::paper_default();
        self
    }

    /// Sets the cache replacement policy.
    #[must_use]
    pub fn with_cache_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// Sets the DirtyQueue replacement policy (WL-Cache only; no-op for
    /// other designs).
    #[must_use]
    pub fn with_dq_policy(mut self, policy: DqPolicy) -> Self {
        if let DesignKind::Wl { dq_policy, .. } = &mut self.design {
            *dq_policy = policy;
        }
        self
    }

    /// Sets the capacitor size in µF.
    #[must_use]
    pub fn with_capacitor_uf(mut self, uf: f64) -> Self {
        self.capacitor_uf = uf;
        self
    }

    /// Enables crash-consistency verification against an oracle memory.
    #[must_use]
    pub fn with_verify(mut self) -> Self {
        self.verify = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figures() {
        assert_eq!(SimConfig::wl_cache().design.label(), "WL-Cache");
        assert_eq!(SimConfig::wl_cache_dyn().design.label(), "WL-Cache(dyn)");
        assert_eq!(SimConfig::nvsram().design.label(), "NVSRAM(ideal)");
        assert_eq!(SimConfig::replay().design.label(), "ReplayCache");
    }

    #[test]
    fn default_trace_is_no_failure() {
        assert_eq!(SimConfig::wl_cache().trace, TraceKind::None);
    }

    #[test]
    fn with_modifiers_compose() {
        let cfg = SimConfig::vcache_wt()
            .with_trace(TraceKind::Rf1)
            .with_capacitor_uf(0.344)
            .with_paper_geometry()
            .with_verify();
        assert_eq!(cfg.trace, TraceKind::Rf1);
        assert_eq!(cfg.capacitor_uf, 0.344);
        assert_eq!(cfg.geometry.size_bytes(), 8 * 1024);
        assert!(cfg.verify);
    }

    #[test]
    fn wl_static_sets_thresholds() {
        let cfg = SimConfig::wl_cache_static(4);
        match cfg.design {
            DesignKind::Wl {
                thresholds,
                adaptation,
                ..
            } => {
                assert_eq!(thresholds.maxline(), 4);
                assert_eq!(thresholds.waterline(), 3);
                assert_eq!(adaptation, AdaptationMode::Static);
            }
            _ => panic!("expected WL design"),
        }
    }

    /// The power input stays out of the class; everything else, verify
    /// and WL-Cache(dyn) keep a configuration out of every class.
    #[test]
    fn access_classes_leave_out_the_power_input() {
        let base = SimConfig::replay();
        let mut powered = base
            .clone()
            .with_trace(TraceKind::Rf3)
            .with_capacitor_uf(100.0)
            .with_custom_trace(PowerTrace::constant(5.0));
        powered.max_outages = 3;
        powered.charging = ChargingModel::ideal();
        assert_eq!(base.access_class(), powered.access_class());
        assert!(base.access_class().is_some());
        let other = [
            SimConfig::replay().with_paper_geometry(),
            SimConfig::replay().with_cache_policy(ReplacementPolicy::Fifo),
            SimConfig::wl_cache(),
        ];
        for cfg in &other {
            assert_ne!(base.access_class(), cfg.access_class());
        }
        assert_eq!(base.clone().with_verify().access_class(), None);
        assert_eq!(SimConfig::wl_cache_dyn().access_class(), None);
    }

    /// Write-back designs of one geometry and policy share a class
    /// whatever their design, power input or adaptation mode; VCache-WT,
    /// the write buffer and verifying configurations share none.
    #[test]
    fn residency_classes_take_geometry_and_policy() {
        let base = SimConfig::nvsram();
        let same = [
            SimConfig::nvcache_wb(),
            SimConfig::replay().with_trace(TraceKind::Rf3),
            SimConfig::wl_cache().with_capacitor_uf(0.1),
            SimConfig::wl_cache_dyn(),
            SimConfig::wl_cache_static(2).with_dq_policy(DqPolicy::Lru),
        ];
        for cfg in &same {
            assert_eq!(base.residency_class(), cfg.residency_class());
        }
        assert!(base.residency_class().is_some());
        let other = [
            SimConfig::nvsram().with_paper_geometry(),
            SimConfig::nvsram().with_cache_policy(ReplacementPolicy::Fifo),
        ];
        for cfg in &other {
            assert!(cfg.residency_class().is_some());
            assert_ne!(base.residency_class(), cfg.residency_class());
        }
        for cfg in [
            SimConfig::vcache_wt(),
            SimConfig::write_buffer(),
            SimConfig::nvsram().with_verify(),
        ] {
            assert_eq!(cfg.residency_class(), None);
        }
    }

    #[test]
    fn all_designs_has_five_entries() {
        assert_eq!(SimConfig::all_designs().len(), 5);
    }
}
