//! `ehsim`: the energy-harvesting system simulator.
//!
//! This crate ties the substrates together into the machine the paper
//! evaluates on: a 1 GHz in-order core with a single cache design and a
//! ReRAM main memory, powered by a capacitor charged from a harvesting
//! trace, with JIT checkpointing at `Vbackup` and recovery at `Von`
//! (Fig 1 / Table 2 of the paper).
//!
//! The central abstraction is [`Simulator::run`]: give it a workload and
//! a [`SimConfig`] and it returns a [`Report`] with execution time,
//! outage counts, energy breakdown, cache statistics and — for WL-Cache —
//! the §6.6 adaptive-management statistics. Because every design
//! guarantees crash consistency via checkpointing, execution never rolls
//! back: the machine runs the workload in one forward pass, injecting
//! checkpoint/off/recharge/restore costs whenever the capacitor sags
//! below the design's `Vbackup`.
//!
//! # Examples
//!
//! ```
//! use ehsim::{SimConfig, Simulator};
//! use ehsim_energy::TraceKind;
//! use ehsim_mem::{Bus, Workload};
//!
//! struct Touch;
//! impl Workload for Touch {
//!     fn name(&self) -> &str { "touch" }
//!     fn mem_bytes(&self) -> u32 { 1024 }
//!     fn run(&self, bus: &mut dyn Bus) -> u64 {
//!         for i in 0..256 {
//!             bus.store_u32(i * 4, i);
//!         }
//!         (0..256).map(|i| u64::from(bus.load_u32(i * 4))).sum()
//!     }
//! }
//!
//! let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf1);
//! let report = Simulator::new(cfg).run(&Touch)?;
//! assert_eq!(report.checksum, (0..256u64).sum());
//! # Ok::<(), ehsim::SimError>(())
//! ```

// L006: no float->int or sign-dropping cast in picosecond/picojoule
// arithmetic without an `#[expect]` saying why it is exact.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod config;
mod design_box;
mod error;
mod lockstep;
mod machine;
pub mod params;
mod report;
mod simulator;

pub use config::{DesignKind, SimConfig};
pub use ehsim_mem::{BusOp, BusTrace, TraceRecorder};
pub use ehsim_obs::{Event, ObserverBox, Recorder, RunTrace};
pub use error::SimError;
pub use machine::Machine;
pub use params::CpuParams;
pub use report::{gmean, Report, WlReport};
pub use simulator::Simulator;
