//! Pinned figure goldens: Small-scale TSV contents hashed against
//! constants committed in this file, checked by `pinned_goldens` with
//! telemetry off and by `pinned_goldens_progress` with it on.
//!
//! `sweep_determinism` proves the parallel engine matches direct runs
//! of the *same* code — which, by itself, would still pass if a change
//! to the simulator's numerics moved every figure. These goldens anchor
//! the values themselves: the FNV-1a hash of each rendered TSV is
//! pinned, so any semantic drift (RNG, settlement order, energy model)
//! fails here even when it is internally self-consistent.
//!
//! If a change to the model is *intentional*, regenerate with:
//! `cargo test -p ehsim-bench --test pinned_goldens -- --nocapture`
//! (the failure message prints the new table) — and say so in the
//! commit message, because the Default-scale `results/*.tsv` move too.

use ehsim_bench::figures::{self, FigureFn};
use ehsim_workloads::Scale;

/// 64-bit FNV-1a over the TSV bytes.
fn fnv1a(data: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in data.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const GOLDEN: &[(&str, FigureFn, u64)] = &[
    ("fig04", figures::fig04, 0x8510e75cec527477),
    ("fig07", figures::fig07, 0xdca5e7c1effbe9a5),
    ("fig13a", figures::fig13a, 0x79b6e11d165894a5),
    // Not in `figures::ALL`: the only golden over the write-buffer
    // design's simulation path.
    ("ablation_wbuf", figures::ablation_wbuf, 0xd028392d8d24511f),
];

/// Regenerates every pinned figure at Small scale and fails, printing
/// the regenerated table, unless each hashes to its golden and no
/// lockstep group fell back to solo runs.
pub fn assert_small_scale_figures_are_pinned() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (name, f, expected) in GOLDEN {
        let got = fnv1a(f(Scale::Small).contents());
        table.push_str(&format!(
            "    (\"{name}\", figures::{name}, {got:#018x}),\n"
        ));
        if got != *expected {
            mismatches.push(format!(
                "{name}: expected {expected:#018x}, got {got:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "pinned figure mismatches:\n{}\nfull regenerated table:\n{table}",
        mismatches.join("\n")
    );
    assert_eq!(
        ehsim_bench::exec::stats().lockstep_fallbacks,
        0,
        "a lockstep group fell back to solo runs"
    );
}
