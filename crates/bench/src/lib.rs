//! Harness utilities shared by the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index) by sweeping the relevant
//! configurations with [`ehsim::Simulator`] and printing a TSV both to
//! stdout and to `results/<name>.tsv`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a harness: a failed sim or an unwritable results/ file ends the sweep by design (L004)"
)]

use ehsim::{Report, SimConfig, Simulator};
use ehsim_mem::Workload;
use std::ffi::OsString;
use std::io::Write as _;
use std::path::Path;

pub mod exec;
pub mod figures;
pub mod telemetry;

/// Every environment variable the workspace reads, in the order of
/// README's knob table (the root `tests/knob_docs.rs` keeps the
/// two equal). [`knob`] is the only reader.
pub const KNOBS: [&str; 5] = [
    "EHSIM_JOBS",
    "EHSIM_RESULT_STORE",
    "EHSIM_PROGRESS",
    "EHSIM_TRACE_WORKLOAD",
    "EHSIM_TRACE_DIR",
];

/// One of the [`KNOBS`], by its index there.
#[derive(Debug, Clone, Copy)]
pub enum Knob {
    /// `EHSIM_JOBS`: sweep worker count.
    Jobs,
    /// `EHSIM_RESULT_STORE`: the persistent result store's directory.
    ResultStore,
    /// `EHSIM_PROGRESS`: the progress stream's path.
    Progress,
    /// `EHSIM_TRACE_WORKLOAD`: the workload whose sims stream timelines.
    TraceWorkload,
    /// `EHSIM_TRACE_DIR`: where those timelines go.
    TraceDir,
}

/// The value of `knob`, or `None` when it is unset or empty.
#[expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned environment read (L008): every knob is listed in KNOBS"
)]
pub fn knob(knob: Knob) -> Option<OsString> {
    std::env::var_os(KNOBS[knob as usize]).filter(|v| !v.is_empty())
}

/// Runs one workload under one configuration, panicking with context on
/// simulation errors (the harness treats them as fatal). This is the
/// direct, uncached entry point; sweeps should go through
/// [`exec::run_batch`] to get parallelism and memoization.
pub fn run(cfg: SimConfig, workload: &dyn Workload) -> Report {
    let label = cfg.design.label();
    let trace = cfg.trace.label();
    Simulator::new(cfg)
        .run(workload)
        .unwrap_or_else(|e| panic!("{label} / {} on {trace}: {e}", workload.name()))
}

/// A simple TSV accumulator that mirrors rows to stdout.
#[derive(Debug, Default)]
pub struct Table {
    out: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row of cells: each cell goes straight into the
    /// accumulator (tab-separated, newline-terminated) and the finished
    /// line is mirrored to stdout through a single locked handle — no
    /// intermediate per-cell allocations.
    pub fn row<I, S>(&mut self, cells: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let start = self.out.len();
        let mut first = true;
        for c in cells {
            if !first {
                self.out.push('\t');
            }
            first = false;
            self.out.push_str(c.as_ref());
        }
        self.out.push('\n');
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let _ = lock.write_all(&self.out.as_bytes()[start..]);
    }

    /// The accumulated TSV content (what [`Table::save`] would write).
    pub fn contents(&self) -> &str {
        &self.out
    }

    /// Writes the accumulated TSV under `results/<name>.tsv`
    /// (best-effort; the harness still printed everything to stdout).
    pub fn save(&self, name: &str) {
        self.save_in("results", name);
    }

    /// Writes the accumulated TSV under `<dir>/<name>.tsv`, creating
    /// `dir` (best-effort, as [`Table::save`]).
    pub fn save_in(&self, dir: &str, name: &str) {
        let dir = Path::new(dir);
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{name}.tsv"));
            if std::fs::write(&path, &self.out).is_ok() {
                eprintln!("[saved {}]", path.display());
            }
        }
    }
}

/// Formats a ratio with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a ratio with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Geometric mean re-export for the binaries.
pub use ehsim::gmean;

/// Splits the 23 reports into (MediaBench, MiBench) halves by the known
/// suite sizes, for the per-suite gmeans the paper prints.
pub fn suite_split<T>(all: &[T]) -> (&[T], &[T]) {
    assert_eq!(all.len(), 23, "expected the full 23-workload sweep");
    all.split_at(15)
}

/// The 23 workload labels in figure order, plus the three gmean columns
/// the paper appends ("gmean(Media)", "gmean(Mi)", "gmean(Total)").
pub fn workload_labels() -> Vec<String> {
    ehsim_workloads::all23(ehsim_workloads::Scale::Small)
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

/// Appends per-suite and total gmean values to a row of 23 per-app
/// values, in the paper's order.
pub fn with_gmeans(values: &[f64]) -> Vec<f64> {
    let (media, mi) = suite_split(values);
    let mut out = values.to_vec();
    out.push(gmean(media.iter().copied()).unwrap_or(1.0));
    out.push(gmean(mi.iter().copied()).unwrap_or(1.0));
    out.push(gmean(values.iter().copied()).unwrap_or(1.0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_workloads::prelude::*;

    #[test]
    fn run_executes_a_small_workload() {
        let r = run(SimConfig::wl_cache(), &Sha::small());
        assert!(r.total_time_ps > 0);
    }

    #[test]
    fn suite_split_is_15_8() {
        let v: Vec<u32> = (0..23).collect();
        let (a, b) = suite_split(&v);
        assert_eq!(a.len(), 15);
        assert_eq!(b.len(), 8);
    }
}
