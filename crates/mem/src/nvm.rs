//! Timing and energy parameters of the non-volatile main memory.
//!
//! Table 2 of the paper specifies a ReRAM-style NVM with the DRAM-like
//! timing tuple `tCK/tBURST/tRCD/tCL/tWTR/tWR/tXAW =
//! 0.94/7.5/18/15/7.5/150/30 ns`. The paper does not publish per-access
//! energies, so [`NvmEnergy`] carries documented 90 nm-class constants
//! (see DESIGN.md §2.4 for the calibration rationale).

use crate::Ps;

const NS_TO_PS: f64 = 1_000.0;

/// `ns` in whole picoseconds.
///
/// Table 2's latencies are multiples of 0.5 ns, so every product is an
/// integer and the cast is exact (debug-asserted). The derived latencies
/// are computed on every NVM access, so this stays a bare cast rather
/// than `f64::round`, a libm call on baseline x86-64.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the product is a non-negative integer below 2^53 (debug-asserted), so the cast is exact"
)]
fn ns_to_ps(ns: f64) -> Ps {
    let ps = ns * NS_TO_PS;
    debug_assert!(
        (0.0..9.0e15).contains(&ps) && ps == ps.trunc(),
        "{ns} ns is not a whole number of picoseconds"
    );
    ps as Ps
}

/// ReRAM main-memory timing parameters, in nanoseconds (Table 2).
///
/// Derived access latencies:
///
/// - **line read** (demand fill): `tRCD + tCL + tBURST`;
/// - **line write** (write-back): the issuing agent sees the same
///   `tRCD + tCL + tBURST` before the ACK. The bank then needs `tWR`
///   (150 ns) of write recovery, but the NVM is 4-way bank-interleaved
///   (`tXAW` windows allow it), so the *channel* is ready again after
///   `tWTR` — back-to-back write-backs still contend on the channel,
///   just not for the full cell-recovery time;
/// - **word write** (write-through store): `tRCD + tCL`, with `tWTR` of
///   channel recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmTiming {
    /// Clock period (ns).
    pub t_ck: f64,
    /// Burst transfer time for one cache line (ns).
    pub t_burst: f64,
    /// Row-to-column command delay (ns).
    pub t_rcd: f64,
    /// Column access (CAS) latency (ns).
    pub t_cl: f64,
    /// Write-to-read turnaround (ns).
    pub t_wtr: f64,
    /// Write recovery time (ns).
    pub t_wr: f64,
    /// Activation window (ns); folded into the line-read path as a
    /// conservative extra is *not* done — kept for completeness.
    pub t_xaw: f64,
}

impl Default for NvmTiming {
    fn default() -> Self {
        Self {
            t_ck: 0.94,
            t_burst: 7.5,
            t_rcd: 18.0,
            t_cl: 15.0,
            t_wtr: 7.5,
            t_wr: 150.0,
            t_xaw: 30.0,
        }
    }
}

impl NvmTiming {
    /// Latency (ps) to read one full cache line from NVM.
    pub fn line_read_ps(&self) -> Ps {
        ns_to_ps(self.t_rcd + self.t_cl + self.t_burst)
    }

    /// Latency (ps) until a line write-back is acknowledged.
    pub fn line_write_ps(&self) -> Ps {
        ns_to_ps(self.t_rcd + self.t_cl + self.t_burst)
    }

    /// Additional channel-recovery time (ps) after a line write
    /// completes (`tWTR`; the per-bank `tWR` is hidden by 4-way bank
    /// interleaving — see the type-level docs).
    pub fn line_write_recovery_ps(&self) -> Ps {
        ns_to_ps(self.t_wtr)
    }

    /// Per-bank write-recovery time (`tWR`, ps): the time one bank is
    /// unavailable after a line write. Exposed for completeness; the
    /// channel model above assumes interleaving hides it.
    pub fn bank_write_recovery_ps(&self) -> Ps {
        ns_to_ps(self.t_wr)
    }

    /// Latency (ps) of a synchronous word write (write-through store):
    /// the full `tRCD + tCL` path — a write-through store cannot count
    /// on an open row (§2.3.1: "the long store latency as in the case
    /// without a cache").
    pub fn word_write_ps(&self) -> Ps {
        ns_to_ps(self.t_rcd + self.t_cl)
    }

    /// Additional port-recovery time (ps) after a word write.
    pub fn word_write_recovery_ps(&self) -> Ps {
        ns_to_ps(self.t_wtr)
    }
}

/// Energy cost of NVM accesses, in picojoules.
///
/// These constants are not given by the paper; the values below are
/// plausible for byte-addressable ReRAM/FRAM at 90 nm and are part of the
/// documented calibration (DESIGN.md §2.4). Reads are cheap; writes are
/// roughly 5× more expensive per byte.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmEnergy {
    /// Energy per byte read (pJ/B).
    pub read_pj_per_byte: f64,
    /// Energy per byte written (pJ/B).
    pub write_pj_per_byte: f64,
    /// Fixed row-activation energy added to every access (pJ).
    pub activate_pj: f64,
}

impl Default for NvmEnergy {
    fn default() -> Self {
        Self {
            read_pj_per_byte: 1.0,
            write_pj_per_byte: 4.5,
            activate_pj: 10.0,
        }
    }
}

impl NvmEnergy {
    /// Energy (pJ) to read `bytes` bytes.
    pub fn read_pj(&self, bytes: u32) -> f64 {
        self.activate_pj + self.read_pj_per_byte * f64::from(bytes)
    }

    /// Energy (pJ) to write `bytes` bytes.
    pub fn write_pj(&self, bytes: u32) -> f64 {
        self.activate_pj + self.write_pj_per_byte * f64::from(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let t = NvmTiming::default();
        assert_eq!(t.t_ck, 0.94);
        assert_eq!(t.t_burst, 7.5);
        assert_eq!(t.t_rcd, 18.0);
        assert_eq!(t.t_cl, 15.0);
        assert_eq!(t.t_wtr, 7.5);
        assert_eq!(t.t_wr, 150.0);
        assert_eq!(t.t_xaw, 30.0);
    }

    #[test]
    fn derived_latencies() {
        let t = NvmTiming::default();
        assert_eq!(t.line_read_ps(), 40_500);
        assert_eq!(t.line_write_ps(), 40_500);
        assert_eq!(t.line_write_recovery_ps(), 7_500);
        assert_eq!(t.bank_write_recovery_ps(), 150_000);
        assert_eq!(t.word_write_ps(), 33_000);
        assert_eq!(t.word_write_recovery_ps(), 7_500);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let e = NvmEnergy::default();
        assert!(e.write_pj(64) > e.read_pj(64));
        assert!(e.read_pj(64) > e.read_pj(4));
    }

    #[test]
    fn energy_scales_with_bytes() {
        let e = NvmEnergy::default();
        let d = e.read_pj(64) - e.read_pj(32);
        assert!((d - 32.0 * e.read_pj_per_byte).abs() < 1e-9);
    }
}
