//! CACTI-lite: an analytical area/energy/leakage model for small on-chip
//! arrays, standing in for CACTI \[62\] in the paper's §6.2 hardware-cost
//! analysis.
//!
//! The model is deliberately simple — linear area and leakage in the bit
//! count, square-root dynamic energy (wordline/bitline geometry), plus a
//! fixed control-logic overhead — with constants anchored at 90 nm so
//! that:
//!
//! - an 8-entry DirtyQueue lands within the paper's reported envelope
//!   (≤ 0.005 mm², ≤ 0.0008 nJ per access, ≈ 0.1 mW leakage), and
//! - the paper's default 8 kB cache yields per-access energies
//!   consistent with the `ehsim-cache` technology constants and a
//!   leakage around 1.1 mW for the NV variant, making the DirtyQueue
//!   ≈ 9 % of NV-cache leakage as reported.
//!
//! # Examples
//!
//! ```
//! use ehsim_hwcost::{dirty_queue_spec, estimate};
//!
//! let dq = estimate(&dirty_queue_spec(8, 32));
//! assert!(dq.area_mm2 <= 0.005);
//! assert!(dq.dynamic_pj_per_access <= 0.8);
//! ```

/// Cell technology of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayKind {
    /// 6T SRAM.
    Sram,
    /// 1T1R ReRAM (denser cells, leakier periphery, pricier writes).
    Reram,
}

/// A memory array to be costed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArraySpec {
    /// Total storage bits (including tags/metadata).
    pub bits: u64,
    /// Technology node in nanometres (the paper uses 90 nm).
    pub tech_nm: u32,
    /// Cell technology.
    pub kind: ArrayKind,
    /// Whether the array needs associative (CAM-style) lookup, which
    /// inflates both area and dynamic energy.
    pub cam: bool,
}

/// Cost estimate produced by [`estimate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Dynamic energy per access in pJ.
    pub dynamic_pj_per_access: f64,
    /// Leakage power in µW (array + periphery + control logic).
    pub leakage_uw: f64,
}

/// 6T SRAM cell area at 90 nm (µm²/bit).
const SRAM_CELL_UM2_90: f64 = 1.1;
/// 1T1R ReRAM cell area at 90 nm (µm²/bit).
const RERAM_CELL_UM2_90: f64 = 0.45;
/// Fixed control/periphery area overhead factor.
const PERIPHERY_AREA_FACTOR: f64 = 1.35;
/// Extra area factor for CAM-searchable arrays.
const CAM_AREA_FACTOR: f64 = 2.2;

/// Dynamic energy model: `E = A + B·sqrt(bits)` (pJ, 90 nm, read).
const DYN_BASE_PJ: f64 = 0.05;
const DYN_SQRT_PJ: f64 = 0.04;
/// CAM search multiplier on dynamic energy.
const CAM_DYN_FACTOR: f64 = 3.0;

/// Leakage model: `P = A + B·bits` (µW, 90 nm).
const LEAK_BASE_UW: f64 = 50.0;
const LEAK_SRAM_PER_BIT_UW: f64 = 0.15;
/// ReRAM cells barely leak but their periphery does.
const LEAK_RERAM_PER_BIT_UW: f64 = 0.014;
const LEAK_RERAM_BASE_UW: f64 = 200.0;

/// Estimates area, per-access dynamic energy and leakage for `spec`.
///
/// Area scales with the square of the technology node, dynamic energy
/// and leakage linearly (a standard first-order Dennard approximation —
/// only 90 nm is exercised by the reproduction).
pub fn estimate(spec: &ArraySpec) -> CostEstimate {
    let s = spec.tech_nm as f64 / 90.0;
    let bits = spec.bits as f64;

    let cell_um2 = match spec.kind {
        ArrayKind::Sram => SRAM_CELL_UM2_90,
        ArrayKind::Reram => RERAM_CELL_UM2_90,
    };
    let mut area_um2 = bits * cell_um2 * PERIPHERY_AREA_FACTOR * s * s;
    if spec.cam {
        area_um2 *= CAM_AREA_FACTOR;
    }

    let mut dyn_pj = (DYN_BASE_PJ + DYN_SQRT_PJ * bits.sqrt()) * s;
    if spec.cam {
        dyn_pj *= CAM_DYN_FACTOR;
    }
    if spec.kind == ArrayKind::Reram {
        dyn_pj *= 2.5; // sensing a resistive cell costs more
    }

    let leak_uw = match spec.kind {
        ArrayKind::Sram => LEAK_BASE_UW + LEAK_SRAM_PER_BIT_UW * bits,
        ArrayKind::Reram => LEAK_RERAM_BASE_UW + LEAK_RERAM_PER_BIT_UW * bits,
    } * s;

    CostEstimate {
        area_mm2: area_um2 / 1e6,
        dynamic_pj_per_access: dyn_pj,
        leakage_uw: leak_uw,
    }
}

/// The DirtyQueue of WL-Cache: `entries` slots each holding a line
/// address of `addr_bits` bits plus a state bit and head/tail logic
/// (§5.5 adds two 1-byte threshold registers and two 2-byte power-on
/// timers; those 48 bits are included).
///
/// The DirtyQueue is a plain circular queue — no CAM search (§3.3 calls
/// out avoiding CAM as a key cost advantage over a write-back buffer).
pub fn dirty_queue_spec(entries: u64, addr_bits: u64) -> ArraySpec {
    ArraySpec {
        bits: entries * (addr_bits + 1) + 48,
        tech_nm: 90,
        kind: ArrayKind::Sram,
        cam: false,
    }
}

/// A data cache array of `size_bytes` with `tag_bits` of metadata per
/// `line_bytes` line.
pub fn cache_spec(size_bytes: u64, line_bytes: u64, tag_bits: u64, kind: ArrayKind) -> ArraySpec {
    let lines = size_bytes / line_bytes;
    ArraySpec {
        bits: size_bytes * 8 + lines * tag_bits,
        tech_nm: 90,
        kind,
        cam: false,
    }
}

/// The write-back-buffer alternative discussed (and rejected) in §3.3:
/// a CAM-searched buffer of whole lines. Used by the ablation bench to
/// show why WL-Cache's decoupled metadata design is cheaper.
pub fn write_buffer_spec(entries: u64, line_bytes: u64, addr_bits: u64) -> ArraySpec {
    ArraySpec {
        bits: entries * (line_bytes * 8 + addr_bits),
        tech_nm: 90,
        kind: ArrayKind::Sram,
        cam: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dirty_queue_meets_paper_envelope() {
        // §6.2: ≤ 0.005 mm², ≤ 0.0008 nJ (= 0.8 pJ), ≈ 0.1 mW leakage.
        let e = estimate(&dirty_queue_spec(8, 32));
        assert!(e.area_mm2 <= 0.005, "area {}", e.area_mm2);
        assert!(
            e.dynamic_pj_per_access <= 0.8,
            "dyn {}",
            e.dynamic_pj_per_access
        );
        assert!(
            (0.05..=0.15).contains(&(e.leakage_uw / 1_000.0)),
            "leakage {} uW",
            e.leakage_uw
        );
    }

    #[test]
    fn dirty_queue_is_about_nine_percent_of_nv_cache_leakage() {
        let dq = estimate(&dirty_queue_spec(8, 32));
        let nv = estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Reram));
        let ratio = dq.leakage_uw / nv.leakage_uw;
        assert!((0.06..=0.12).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sram_cache_energy_consistent_with_cache_tech() {
        // The 8 kB SRAM array should land near the 8–10 pJ/access used
        // by ehsim-cache's CacheTech::sram().
        let e = estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Sram));
        assert!(
            (6.0..=14.0).contains(&e.dynamic_pj_per_access),
            "dyn {}",
            e.dynamic_pj_per_access
        );
    }

    #[test]
    fn cam_write_buffer_is_much_more_expensive_than_dirty_queue() {
        // §3.3: the rejected write-back-buffer design needs CAM search
        // over whole lines.
        let dq = estimate(&dirty_queue_spec(8, 32));
        let wb = estimate(&write_buffer_spec(8, 64, 32));
        assert!(wb.area_mm2 > 10.0 * dq.area_mm2);
        assert!(wb.dynamic_pj_per_access > 10.0 * dq.dynamic_pj_per_access);
    }

    #[test]
    fn technology_scaling_is_monotone() {
        let at90 = estimate(&dirty_queue_spec(8, 32));
        let mut spec45 = dirty_queue_spec(8, 32);
        spec45.tech_nm = 45;
        let at45 = estimate(&spec45);
        assert!(at45.area_mm2 < at90.area_mm2);
        assert!(at45.dynamic_pj_per_access < at90.dynamic_pj_per_access);
        assert!(at45.leakage_uw < at90.leakage_uw);
    }

    #[test]
    fn reram_cells_denser_but_periphery_leakier() {
        let s = estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Sram));
        let r = estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Reram));
        assert!(r.area_mm2 < s.area_mm2);
        assert!(r.dynamic_pj_per_access > s.dynamic_pj_per_access);
    }
}
