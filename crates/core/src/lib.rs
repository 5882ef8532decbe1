//! # Write-Light Cache
//!
//! The primary contribution of *"Write-Light Cache for Energy Harvesting
//! Systems"* (ISCA 2023): a volatile SRAM cache with a write policy that
//! sits between write-through and write-back.
//!
//! WL-Cache holds dirty lines to exploit locality (like write-back) but
//! **bounds** how many may exist at once (like write-through bounds them
//! to zero), so that a small, fixed energy reserve suffices to
//! failure-atomically flush them when power is about to fail:
//!
//! - [`DirtyQueue`] — the small hardware queue tracking dirty-line
//!   addresses, decoupled from the data path (§3.3);
//! - [`Thresholds`] — the `maxline` / `waterline` pair (§3.1): at
//!   `waterline` the cache starts asynchronously *cleaning* (write-back
//!   without eviction), at `maxline` stores stall;
//! - [`AdaptiveController`] — boot-time threshold reconfiguration driven
//!   by power-on-time history (§4), plus the opportunistic dynamic
//!   adaptation of `WL-Cache (dyn)`;
//! - [`WlCache`] — the full design, pluggable into the `ehsim` machine
//!   via the [`ehsim_cache::CacheDesign`] trait.
//!
//! # Examples
//!
//! ```
//! use wl_cache::{Thresholds, WlCacheBuilder};
//! use ehsim_cache::CacheGeometry;
//!
//! let cache = WlCacheBuilder::new()
//!     .geometry(CacheGeometry::new(1024, 2, 64))
//!     .thresholds(Thresholds::new(8, 6, 5)?)
//!     .build();
//! assert_eq!(cache.thresholds_config().maxline(), 6);
//! # Ok::<(), wl_cache::ThresholdsError>(())
//! ```

// L006: no float->int or sign-dropping cast in picosecond/picojoule
// arithmetic without an `#[expect]` saying why it is exact.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod adaptive;
mod cache;
mod dirty_queue;
mod thresholds;

pub use adaptive::{AdaptationMode, AdaptiveController};
pub use cache::{WlCache, WlCacheBuilder, WlStats};
pub use dirty_queue::{DirtyQueue, DqEntry, DqPolicy, DqState};
pub use thresholds::{Thresholds, ThresholdsError};
