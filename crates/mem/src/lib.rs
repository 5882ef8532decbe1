//! Memory substrate for the WL-Cache reproduction.
//!
//! This crate provides everything "below" and "beside" the caches:
//!
//! - [`Bus`] — the interface workloads execute against. Every load, store
//!   and compute burst of a benchmark flows through this trait, which lets
//!   the same kernel run either on a raw [`FunctionalMem`] (to obtain a
//!   golden checksum) or on the full energy-harvesting machine in the
//!   `ehsim` crate.
//! - [`Workload`] — a named benchmark kernel over [`Bus`].
//! - [`FunctionalMem`] — a byte-accurate flat memory, used both as the
//!   NVM backing store and as the reference oracle in tests.
//! - [`NvmTiming`] / [`NvmEnergy`] — the ReRAM-style main-memory timing
//!   (Table 2 of the paper) and energy parameters.
//! - [`NvmPort`] — a single memory port with busy-time tracking, which is
//!   how asynchronous write-backs contend with demand fills.
//! - [`BusTrace`] — record/replay of the Bus access stream: capture a
//!   workload's design-independent op stream once, in memory, and
//!   replay it against any machine (see the `record` module docs for
//!   the exactness argument).
//!
//! # Examples
//!
//! ```
//! use ehsim_mem::{Bus, FunctionalMem};
//!
//! let mut mem = FunctionalMem::new(64);
//! mem.store_u32(0x10, 0xdead_beef);
//! assert_eq!(mem.load_u32(0x10), 0xdead_beef);
//! ```

// L006: no float->int or sign-dropping cast in picosecond/picojoule
// arithmetic without an `#[expect]` saying why it is exact.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

mod bus;
mod functional;
mod nvm;
mod port;
mod record;

pub use bus::{AccessSize, Bus, Workload};
pub use functional::FunctionalMem;
pub use nvm::{NvmEnergy, NvmTiming};
pub use port::NvmPort;
pub use record::{BusOp, BusTrace, OpCounts, ReplayCursor};

/// Picoseconds — the simulator's base time unit.
///
/// The modelled core runs at 1 GHz (see Table 2 of the paper), so one CPU
/// cycle equals [`PS_PER_CYCLE`] picoseconds.
pub type Ps = u64;

/// Picojoules — the simulator's base energy unit.
pub type Pj = f64;

/// `ps as f64`, computed through `i64`.
///
/// The signed conversion is one instruction on x86-64, where the
/// unsigned one is a branchy sequence. Both round the same integer to
/// the nearest `f64`, so the result is identical for every `ps` below
/// `2^63` (debug-asserted); a simulated span that long is ~106 days.
#[inline(always)]
pub fn ps_to_f64(ps: Ps) -> f64 {
    debug_assert!(ps < 1 << 63, "time span {ps} ps overflows i64");
    ps as i64 as f64
}

/// Picoseconds per CPU cycle at the paper's 1 GHz clock.
pub const PS_PER_CYCLE: Ps = 1_000;

/// Default cache-line size in bytes (Table 2: 64 B blocks).
pub const LINE_BYTES: u32 = 64;

/// Returns the line-aligned base address of `addr` for a `line_bytes`
/// block size.
///
/// # Panics
///
/// Panics in debug builds if `line_bytes` is not a power of two.
#[inline]
pub fn line_base(addr: u32, line_bytes: u32) -> u32 {
    debug_assert!(line_bytes.is_power_of_two());
    addr & !(line_bytes - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_base_aligns_down() {
        assert_eq!(line_base(0, 64), 0);
        assert_eq!(line_base(63, 64), 0);
        assert_eq!(line_base(64, 64), 64);
        assert_eq!(line_base(0x12345, 64), 0x12340);
    }

    #[test]
    fn ps_to_f64_matches_the_unsigned_conversion() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for shift in 0..63 {
            for ps in [
                1u64 << shift,
                (1u64 << shift) - 1,
                (1 << shift) + 1,
                x >> (shift + 1),
            ] {
                assert_eq!(ps_to_f64(ps).to_bits(), (ps as f64).to_bits(), "{ps}");
            }
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert_eq!(ps_to_f64((1 << 63) - 1), ((1u64 << 63) - 1) as f64);
    }

    #[test]
    fn line_base_respects_block_size() {
        assert_eq!(line_base(0x1ff, 32), 0x1e0);
        assert_eq!(line_base(0x1ff, 128), 0x180);
    }
}
