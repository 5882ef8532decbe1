//! The committed Default-scale results, regenerated in process: every
//! table of `figures::ALL` plus `ablation_wbuf` must render exactly the
//! bytes of `results/<name>.tsv`, and no lockstep group may fall back
//! to solo runs. Nothing is written. A failing table prints its first
//! differing line.
//!
//! The Small-scale FNV goldens (`goldens/mod.rs`) pin four tables in
//! seconds; this test pins all eighteen at the scale the committed
//! tables come from, so inputs only Default scale reaches are covered.

use ehsim_bench::figures::{self, FigureFn};
use ehsim_workloads::Scale;
use std::path::Path;

/// Every committed table: `all_figures`' list plus the write-buffer
/// ablation, which has a bin of its own.
fn committed_tables() -> Vec<(&'static str, FigureFn)> {
    let mut tables = figures::ALL.to_vec();
    tables.push(("ablation_wbuf", figures::ablation_wbuf));
    tables
}

/// The first line where `got` departs from `want`, or `None` when the
/// two are byte-identical.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.split('\n'), got.split('\n'));
    for line in 1.. {
        match (w.next(), g.next()) {
            (a, b) if a == b && a.is_some() => {}
            (a, b) => return Some(format!("line {line}: committed {a:?}, regenerated {b:?}")),
        }
    }
    unreachable!("two different strings differ on some line")
}

#[test]
fn default_scale_tables_equal_the_committed_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut failures = Vec::new();
    for (name, figure) in committed_tables() {
        let path = results.join(format!("{name}.tsv"));
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(diff) = first_difference(&committed, figure(Scale::Default).contents()) {
            failures.push(format!("{name}.tsv {diff}"));
        }
    }
    assert!(
        failures.is_empty(),
        "regenerated tables differ from results/:\n{}",
        failures.join("\n")
    );
    assert_eq!(
        ehsim_bench::exec::stats().lockstep_fallbacks,
        0,
        "a lockstep group fell back to solo runs"
    );
}
