//! Inputs and correctness references: the job sets, the seeded power
//! trace, functional goldens, report digests and the paper's reference
//! values.

use ehsim::{Report, SimConfig};
use ehsim_energy::{PowerTrace, TraceKind};
use ehsim_mem::{FunctionalMem, Ps};
use ehsim_workloads::Scale;

/// The seed that selects the built-in tr.3 trace, whose report digest is
/// pinned below. Any other seed generates a fresh tr.3-shaped trace.
pub const DEFAULT_SEED: u64 = 0;

/// FNV-1a digest of the 17 Small-scale figure tables (name, then TSV
/// bytes, for each entry of `figures::ALL` in order).
pub const FIGURES_SMALL_DIGEST: u64 = 0x07f0_3728_1962_4173;
/// Report digest of the Fig 4 job set on `TraceKind::None`, Default scale.
pub const SUITE_NOFAIL_DIGEST: u64 = 0x75f0_1b89_5700_e20b;
/// Report digest of the Fig 4 job set on built-in tr.3, Default scale.
pub const SUITE_RF3_DIGEST: u64 = 0x5bae_0fde_24fe_14a1;

/// The paper's no-failure gmean(Total) speedups vs NVSRAM(ideal), from
/// the headline table of EXPERIMENTS.md (design label, value).
pub const PAPER_NOFAIL: [(&str, f64); 4] = [
    ("NVCache-WB", 0.32),
    ("VCache-WT", 0.50),
    ("ReplayCache", 0.80),
    ("WL-Cache", 0.97),
];

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds one little-endian word.
    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Folds a float by its exact bits.
    pub fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }
}

/// Folds every field of `r` into `h`, field by field, so that fields
/// added to `Report` later leave the pinned digests valid.
pub fn digest_report(h: &mut Fnv, r: &Report) {
    h.str(&r.workload);
    h.str(&r.design);
    h.str(r.trace);
    for w in [
        r.checksum,
        r.instructions,
        r.total_time_ps,
        r.on_time_ps,
        r.off_time_ps,
        r.checkpoint_time_ps,
        r.restore_time_ps,
        r.outages,
    ] {
        h.word(w);
    }
    let e = &r.energy;
    for f in [
        e.compute,
        e.cache_read,
        e.cache_write,
        e.mem_read,
        e.mem_write,
    ] {
        h.float(f);
    }
    let c = &r.cache;
    for w in [
        c.loads,
        c.stores,
        c.load_hits,
        c.store_hits,
        c.line_fills,
        c.evict_writebacks,
        c.async_writebacks,
        c.checkpoint_lines,
        c.word_writes,
        c.nvm_write_bytes,
        c.nvm_read_bytes,
        c.stall_ps,
        c.restored_lines,
    ] {
        h.word(w);
    }
    match &r.wl {
        None => h.word(0),
        Some(wl) => {
            h.word(1);
            for w in [
                wl.reconfigurations,
                wl.maxline_min as u64,
                wl.maxline_max as u64,
                wl.stalls,
                wl.stall_ps,
                wl.dyn_raises,
            ] {
                h.word(w);
            }
            h.word(wl.prediction_accuracy.map_or(u64::MAX, f64::to_bits));
            for f in [
                wl.avg_dirty_at_checkpoint,
                wl.avg_cleanings_per_interval,
                wl.stall_fraction,
                wl.stall_fraction_on,
            ] {
                h.float(f);
            }
        }
    }
}

/// Which power trace a suite runs on.
#[derive(Debug, Clone)]
pub enum Power {
    /// A built-in trace kind.
    Kind(TraceKind),
    /// A trace generated from a non-default seed.
    Custom(PowerTrace),
}

impl Power {
    /// The suite's power input for `seed`: `kind` itself, except that a
    /// non-default seed replaces tr.3 with a generated tr.3-shaped trace.
    pub fn for_seed(kind: TraceKind, seed: u64) -> Self {
        if kind == TraceKind::Rf3 && seed != DEFAULT_SEED {
            Power::Custom(rf3_shaped(seed))
        } else {
            Power::Kind(kind)
        }
    }

    /// Applies the trace to `cfg`.
    pub fn apply(&self, cfg: SimConfig) -> SimConfig {
        match self {
            Power::Kind(k) => cfg.with_trace(*k),
            Power::Custom(t) => cfg.with_custom_trace(t.clone()),
        }
    }

    /// Builds the power trace once (the per-layer trace-build cost).
    pub fn build(&self, seed: u64) -> PowerTrace {
        match self {
            Power::Kind(k) => k.build(),
            Power::Custom(_) => rf3_shaped(seed),
        }
    }
}

/// The Fig 4 design set (NVSRAM(ideal), NVCache-WB, VCache-WT,
/// ReplayCache, WL-Cache) on `power`. NVSRAM(ideal) comes first.
pub fn suite_configs(power: &Power) -> Vec<SimConfig> {
    SimConfig::all_designs()
        .into_iter()
        .map(|c| power.apply(c))
        .collect()
}

/// splitmix64: a small, well-mixed generator for the seeded trace.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw from `[lo, hi)`.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let unit = (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// A two-state (burst / quiet) RF trace with tr.3's parameters: 4096
/// segments, 40 % bursts of 6–14 mW for 80–400 µs, otherwise 0–200 µW
/// for 300–2000 µs. Built through the public `PowerTrace::from_segments`.
pub fn rf3_shaped(seed: u64) -> PowerTrace {
    let mut s = seed;
    let segs: Vec<(Ps, f64)> = (0..4096)
        .map(|_| {
            let good = uniform(&mut s, 0.0, 1.0) < 0.40;
            let (uw, dur) = if good {
                ((6_000.0, 14_000.0), (80.0, 400.0))
            } else {
                ((0.0, 200.0), (300.0, 2_000.0))
            };
            let power = uniform(&mut s, uw.0, uw.1);
            let dur_us = uniform(&mut s, dur.0, dur.1);
            ((dur_us * 1e6) as Ps, power)
        })
        .collect();
    PowerTrace::from_segments(segs)
}

/// Functional goldens: each kernel's checksum when run on a flat
/// functional memory, in suite order.
pub fn goldens(scale: Scale) -> Vec<(String, u64)> {
    ehsim_workloads::all23(scale)
        .iter()
        .map(|w| {
            let mut mem = FunctionalMem::new(w.mem_bytes());
            (w.name().to_string(), w.run(&mut mem))
        })
        .collect()
}

/// Counts reported `(workload, checksum)` pairs that differ from the
/// golden for that workload (an unknown workload counts as a mismatch).
pub fn checksum_mismatches(got: &[(String, u64)], goldens: &[(String, u64)]) -> u64 {
    got.iter()
        .filter(|(name, ck)| !goldens.iter().any(|(g, gck)| g == name && gck == ck))
        .count() as u64
}

/// The gmean(Total) column of a Fig 4-style TSV, by design label, as
/// the text written in the table.
pub fn tsv_gmeans(tsv: &str) -> Vec<(String, String)> {
    let mut lines = tsv.lines();
    let Some(header) = lines.next() else {
        return Vec::new();
    };
    let Some(col) = header.split('\t').position(|h| h == "gmean(Total)") else {
        return Vec::new();
    };
    lines
        .filter_map(|l| {
            let cells: Vec<&str> = l.split('\t').collect();
            Some((cells.first()?.to_string(), cells.get(col)?.to_string()))
        })
        .collect()
}

/// Mean |ln(simulated / paper)| over [`PAPER_NOFAIL`], given gmeans by
/// design label. `None` if a design is missing or a value is not
/// positive.
pub fn paper_gap(gmeans: &[(String, f64)]) -> Option<f64> {
    let mut sum = 0.0;
    for (design, paper) in PAPER_NOFAIL {
        let (_, sim) = gmeans.iter().find(|(d, _)| d == design)?;
        if *sim <= 0.0 {
            return None;
        }
        sum += (sim / paper).ln().abs();
    }
    Some(sum / PAPER_NOFAIL.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_gap_of_the_committed_table() {
        let g = [
            ("NVCache-WB", 0.411),
            ("VCache-WT", 0.562),
            ("ReplayCache", 0.849),
            ("WL-Cache", 1.006),
        ]
        .map(|(d, v)| (d.to_string(), v));
        let want = ((0.411f64 / 0.32).ln().abs()
            + (0.562f64 / 0.50).ln().abs()
            + (0.849f64 / 0.80).ln().abs()
            + (1.006f64 / 0.97).ln().abs())
            / 4.0;
        assert_eq!(paper_gap(&g), Some(want));
        assert!((want - 0.11576).abs() < 1e-4);
    }

    #[test]
    fn seeded_trace_is_deterministic_and_seed_dependent() {
        assert!(rf3_shaped(1) == rf3_shaped(1));
        assert!(rf3_shaped(1) != rf3_shaped(2));
        let m = rf3_shaped(7).mean_power_uw();
        let builtin = TraceKind::Rf3.build().mean_power_uw();
        assert!((m / builtin - 1.0).abs() < 0.15, "{m} vs {builtin}");
    }

    #[test]
    fn tsv_gmean_column() {
        let tsv = "design\ta\tgmean(Total)\nX\t1.0\t0.500\nY\t2.0\t1.250\n";
        assert_eq!(
            tsv_gmeans(tsv),
            vec![
                ("X".to_string(), "0.500".to_string()),
                ("Y".to_string(), "1.250".to_string())
            ]
        );
    }
}
