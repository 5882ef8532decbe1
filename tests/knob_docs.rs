//! README's knob table must name exactly the `EHSIM_*` environment
//! variables the code reads.
//!
//! `ehsim_bench::KNOBS` lists them, and `ehsim_bench::knob` is the only
//! code past clippy's `std::env::var`/`var_os` ban (`clippy.toml`), so
//! the list is complete by construction; this test keeps README's table
//! equal to it.

use ehsim_bench::KNOBS;
use std::path::PathBuf;

fn is_name_byte(c: u8) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_'
}

/// Every `EHSIM_*` name in the first cell of README's knob table, in
/// table order.
fn readme_knobs(readme: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for row in readme.lines().filter(|l| l.starts_with("| `EHSIM_")) {
        let cell = row.split('|').nth(1).unwrap_or_default();
        for (at, _) in cell.match_indices("EHSIM_") {
            let len = cell.as_bytes()[at..]
                .iter()
                .take_while(|&&c| is_name_byte(c))
                .count();
            out.push(&cell[at..at + len]);
        }
    }
    out
}

#[test]
fn readme_knob_table_matches_the_variables_the_code_reads() {
    let readme = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(readme).expect("README reads");
    assert_eq!(
        KNOBS[..],
        readme_knobs(&readme)[..],
        "ehsim_bench::KNOBS (left) differs from README's knob table (right)"
    );
}
