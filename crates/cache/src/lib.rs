//! Cache substrate and baseline cache designs for the WL-Cache
//! reproduction.
//!
//! This crate provides the pieces every cache design in the paper is
//! built from, plus the four baselines WL-Cache is compared against:
//!
//! - [`CacheGeometry`] / [`ReplacementPolicy`] — set-associative layout
//!   and the LRU/FIFO *cache* replacement policies of §5.4/§6.5;
//! - [`CacheTech`] — SRAM vs. ReRAM array timing/energy (Table 2);
//! - [`TagArray`] — a data-carrying set-associative array: the
//!   functional-plus-timing substrate shared by all designs;
//! - [`MemCtx`] and the [`CacheDesign`] trait — the contract between a
//!   cache design and the machine in the `ehsim` crate;
//! - [`designs`] — `VCache-WT`, `NVCache-WB`, `NVSRAM(ideal)` and
//!   `ReplayCache`. (WL-Cache itself lives in the `wl-cache` crate.)
//!
//! # Examples
//!
//! ```
//! use ehsim_cache::{CacheGeometry, ReplacementPolicy, TagArray};
//!
//! let geom = CacheGeometry::new(1024, 2, 64);
//! assert_eq!(geom.n_sets(), 8);
//! let array = TagArray::new(geom, ReplacementPolicy::Lru);
//! assert!(array.lookup(0x40).is_none()); // cold cache
//! ```

// L006: no float->int or sign-dropping cast in picosecond/picojoule
// arithmetic without an `#[expect]` saying why it is exact.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod ctx;
pub mod designs;
mod geometry;
mod stats;
mod tag_array;
mod tech;

pub use ctx::{CacheDesign, MemCtx};
pub use geometry::{CacheGeometry, ReplacementPolicy};
pub use stats::CacheStats;
pub use tag_array::{SetWay, TagArray};
pub use tech::CacheTech;
