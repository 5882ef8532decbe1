//! Umbrella crate for the WL-Cache reproduction workspace.
//!
//! This crate re-exports the workspace's public crates so that the
//! `examples/` and `tests/` at the repository root can exercise the full
//! stack through a single dependency. Library users should depend on the
//! individual crates directly:
//!
//! - [`wl_cache`] — the paper's contribution (DirtyQueue, thresholds,
//!   write policy, adaptive management).
//! - [`ehsim`] — the energy-harvesting system simulator.
//! - [`ehsim_cache`] — cache substrate and baseline designs.
//! - [`ehsim_mem`] — NVM model, functional memory, the [`ehsim_mem::Bus`]
//!   trait.
//! - [`ehsim_energy`] — capacitor and power-trace models.
//! - [`ehsim_workloads`] — the 23 benchmark kernels.
//! - [`ehsim_hwcost`] — CACTI-lite hardware cost model.
//!
//! # Examples
//!
//! ```
//! use wl_cache_repro::prelude::*;
//!
//! let cfg = SimConfig::wl_cache().with_trace(TraceKind::None);
//! let report = Simulator::new(cfg).run(&Sha::small()).unwrap();
//! assert!(report.total_time_ps > 0);
//! ```

pub use ehsim;
pub use ehsim_cache;
pub use ehsim_energy;
pub use ehsim_hwcost;
pub use ehsim_mem;
pub use ehsim_obs;
pub use ehsim_workloads;
pub use wl_cache;

/// Convenience re-exports for examples and integration tests.
pub mod prelude {
    pub use ehsim::{Report, SimConfig, Simulator};
    pub use ehsim_energy::TraceKind;
    pub use ehsim_mem::{Bus, Workload};
    pub use ehsim_obs::{ObserverBox, RunTrace};
    pub use ehsim_workloads::prelude::*;
}
