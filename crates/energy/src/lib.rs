//! Energy subsystem for the WL-Cache reproduction.
//!
//! Energy harvesting systems buffer ambient energy in a small capacitor
//! and compute until the capacitor voltage falls below the JIT-checkpoint
//! threshold `Vbackup`; they then checkpoint, power off, and recharge
//! until `Von` before resuming (paper §2.1). This crate models:
//!
//! - [`Capacitor`] — the energy buffer, `E = ½CV²`;
//! - [`VoltageThresholds`] — the per-design `Vbackup`/`Von`/`Vmin`/`Vmax`
//!   operating points of Table 2;
//! - [`PowerTrace`] / [`TraceCursor`] — harvesting-power traces. The
//!   paper's recorded RF/solar/thermal traces are not distributed, so
//!   [`TraceKind::build`] synthesises seeded, deterministic equivalents
//!   ordered by quality like the paper's, though not calibrated to its
//!   absolute outage counts (DESIGN.md §4);
//! - [`EnergyMeter`] — per-category energy accounting used for the
//!   Fig 13(b) breakdown.
//!
//! # Examples
//!
//! ```
//! use ehsim_energy::{Capacitor, TraceKind};
//!
//! let mut cap = Capacitor::with_uf(1.0, 2.8, 3.5);
//! cap.set_voltage(3.3);
//! let before = cap.energy_pj();
//! cap.drain_pj(1_000.0);
//! assert!(cap.energy_pj() < before);
//!
//! let trace = TraceKind::Rf1.build();
//! let mut cursor = trace.cursor();
//! let harvested = cursor.advance(1_000_000_000); // 1 ms
//! assert!(harvested > 0.0);
//! ```

// L006: no float->int or sign-dropping cast in picosecond/picojoule
// arithmetic without an `#[expect]` saying why it is exact.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod capacitor;
mod charging;
mod meter;
mod select;
mod thresholds;
mod trace;
mod trace_io;

pub use capacitor::Capacitor;
pub use charging::ChargingModel;
pub use meter::{EnergyCategory, EnergyMeter};
pub use thresholds::{Rail, VoltageThresholds};
pub use trace::{PowerTrace, TraceCursor, TraceKind};
pub use trace_io::{format_trace, load_trace, parse_trace, save_trace, TraceParseError};
