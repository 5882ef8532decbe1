//! README's knob table must name exactly the `EHSIM_*` environment
//! variables the code reads.
//!
//! The scan collects every string literal that is nothing but an
//! `EHSIM_*` name, in the non-test code of `crates/*/src`. Literals,
//! not `env::var` calls, because a name can reach the environment
//! through a helper. Comments and `#[cfg(test)]` regions are skipped
//! with the linter's own [`blank_non_code`] / [`test_region_lines`].

use ehsim_verify::source::{blank_non_code, test_region_lines};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/verify -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/verify has a workspace root two levels up")
        .to_path_buf()
}

fn is_name_byte(c: u8) -> bool {
    c.is_ascii_uppercase() || c.is_ascii_digit() || c == b'_'
}

/// The `"EHSIM_…"` literals of one file's non-test code.
fn knob_literals(src: &str, out: &mut BTreeSet<String>) {
    let blanked = blank_non_code(src);
    let in_test = test_region_lines(&blanked);
    let (raw, code) = (src.as_bytes(), blanked.as_bytes());
    let mut line = 0usize;
    for i in 0..raw.len() {
        if raw[i] == b'\n' {
            line += 1;
        }
        // Blanking keeps a string's quotes and spaces out its body and
        // every comment, so a surviving `"` opens or closes a literal.
        if code[i] != b'"' || !raw[i + 1..].starts_with(b"EHSIM_") {
            continue;
        }
        let len = raw[i + 1..]
            .iter()
            .take_while(|&&c| is_name_byte(c))
            .count();
        let end = i + 1 + len;
        if raw.get(end) == Some(&b'"') && !in_test.get(line).copied().unwrap_or(false) {
            out.insert(String::from_utf8_lossy(&raw[i + 1..end]).into_owned());
        }
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `EHSIM_*` name in the first cell of README's knob table.
fn readme_knobs(readme: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for row in readme.lines().filter(|l| l.starts_with("| `EHSIM_")) {
        let cell = row.split('|').nth(1).unwrap_or_default();
        for (at, _) in cell.match_indices("EHSIM_") {
            let len = cell.as_bytes()[at..]
                .iter()
                .take_while(|&&c| is_name_byte(c))
                .count();
            out.insert(cell[at..at + len].to_string());
        }
    }
    out
}

#[test]
fn readme_knob_table_matches_the_variables_the_code_reads() {
    let root = workspace_root();
    let mut files = Vec::new();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ lists");
    for krate in crates.flatten() {
        rust_files(&krate.path().join("src"), &mut files);
    }
    assert!(
        files.len() > 50,
        "walker lost files: saw only {}",
        files.len()
    );
    let mut read = BTreeSet::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("source reads");
        knob_literals(&src, &mut read);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README reads");
    let documented = readme_knobs(&readme);
    assert_eq!(
        read, documented,
        "EHSIM_* literals in crates/*/src (left) differ from README's knob table (right)"
    );
    assert_eq!(
        read.len(),
        5,
        "exactly five EHSIM_* variables are read: {read:?}"
    );
}

#[test]
fn scan_skips_comments_tests_and_longer_strings() {
    let src = r#"
// "EHSIM_COMMENT" in a line comment
/* "EHSIM_BLOCK" */
fn read() {
    let _ = std::env::var("EHSIM_REAL");
    eprintln!("cannot open EHSIM_MESSAGE={}", 1);
    let _ = "EHSIM_PREFIX_{}";
}
#[cfg(test)]
mod tests {
    fn t() {
        std::env::set_var("EHSIM_TEST_ONLY", "1");
    }
}
"#;
    let mut found = BTreeSet::new();
    knob_literals(src, &mut found);
    assert_eq!(found, BTreeSet::from(["EHSIM_REAL".to_string()]));
}
