//! The baseline cache designs WL-Cache is evaluated against (Fig 1 and
//! Table 1 of the paper).
//!
//! | Design | Array | Write policy | Crash consistency |
//! |---|---|---|---|
//! | [`VCacheWt`] | volatile SRAM | write-through | inherent (every store persists) |
//! | [`NvCacheWb`] | non-volatile ReRAM | write-back | inherent (array is persistent) |
//! | [`NvSramCache`] | volatile SRAM + NV copy | write-back | JIT checkpoint of dirty lines, warm restore |
//! | [`ReplayCache`] | volatile SRAM | write-back | region-level persistence + replay |
//! | [`WriteBufferCache`] | volatile SRAM + CAM buffer | write-through into buffer | buffer flush at checkpoint (the §3.3 rejected alternative) |
//!
//! WL-Cache itself lives in the `wl-cache` crate; it shares the
//! [`WbCore`] substrate exported here. NVCache-WB, NVSRAM(ideal),
//! ReplayCache and WL-Cache are [`WriteBackDesign`]s: their access
//! paths run over their own residency ([`Own`]) or over another such
//! design's ([`Follow`]).

mod common;
mod nv_cache;
mod nvsram;
mod replay;
mod write_buffer;
mod write_through;

pub use common::{Follow, Own, Residency, WbCore, WriteBackDesign};
pub use nv_cache::NvCacheWb;
pub use nvsram::NvSramCache;
pub use replay::ReplayCache;
pub use write_buffer::WriteBufferCache;
pub use write_through::VCacheWt;
