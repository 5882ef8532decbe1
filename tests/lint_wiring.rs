//! The workspace invariants (DESIGN.md §2.7, rules L001–L009) are
//! rustc and clippy lints; this test keeps them wired in. A crate that
//! does not opt into the workspace lint table, a lint whose level drops,
//! a ban that leaves a `clippy.toml`, or a timing crate without the cast
//! lints fails `cargo test`, not just a review. One part of L006 has no
//! lint: clippy's `f32` ban sees types, not the suffix of a literal
//! whose type is inferred (`1.0_f32`), so a source scan covers that.

use std::path::{Path, PathBuf};

/// The crates whose arithmetic lands in picosecond/picojoule accounting
/// (L006's cast half).
const TIMING_CRATES: [&str; 5] = ["core", "sim", "cache", "mem", "energy"];

/// `[workspace.lints.<tool>]` entries and the level each must keep.
const REQUIRED_LINTS: [(&str, &str, &str); 6] = [
    ("rust", "unsafe_code", "forbid"),
    ("rust", "missing_docs", "warn"),
    ("clippy", "disallowed_types", "deny"),
    ("clippy", "disallowed_methods", "deny"),
    ("clippy", "unwrap_used", "deny"),
    ("clippy", "expect_used", "deny"),
];

/// Every banned path with the crates exempt from its ban. A crate that
/// is exempt from a ban has its own `clippy.toml` without it.
const BANS: [(&str, &[&str]); 10] = [
    ("f32", &[]),
    ("std::collections::HashMap", &["bench"]),
    ("std::collections::HashSet", &["bench"]),
    ("std::time::Instant", &["bench", "cli"]),
    ("std::time::SystemTime", &["bench", "cli"]),
    ("std::net::TcpListener", &[]),
    ("std::net::TcpStream", &[]),
    ("std::net::UdpSocket", &[]),
    ("std::env::var", &[]),
    ("std::env::var_os", &[]),
];

const CAST_LINTS: &str = "#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]";

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every directory under `crates/`, by name.
#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn crate_names() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("crates/ lists")
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The `key = value` lines of the TOML table `[name]`, comments and
/// blank lines skipped.
fn table<'a>(toml: &'a str, name: &str) -> Vec<(&'a str, &'a str)> {
    let header = format!("[{name}]");
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter_map(|l| {
            let l = l.split('#').next().unwrap_or_default();
            let (k, v) = l.split_once('=')?;
            Some((k.trim(), v.trim()))
        })
        .collect()
}

/// The quoted `path = "..."` values of a `clippy.toml`.
fn banned_paths(clippy_toml: &str) -> Vec<&str> {
    clippy_toml
        .match_indices("path = \"")
        .filter_map(|(at, m)| clippy_toml[at + m.len()..].split('"').next())
        .collect()
}

#[test]
fn every_package_opts_into_the_workspace_lints() {
    let root = workspace_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(
        crate_names()
            .iter()
            .map(|c| root.join("crates").join(c).join("Cargo.toml")),
    );
    assert!(manifests.len() > 10, "walker lost crates: {manifests:?}");
    for manifest in manifests {
        let text = read(&manifest);
        assert_eq!(
            table(&text, "lints"),
            [("workspace", "true")],
            "{} must say `[lints] workspace = true` and nothing else",
            manifest.display()
        );
    }
}

#[test]
fn the_workspace_table_keeps_every_lint_at_its_level() {
    let toml = read(&workspace_root().join("Cargo.toml"));
    for (tool, lint, level) in REQUIRED_LINTS {
        let entries = table(&toml, &format!("workspace.lints.{tool}"));
        let quoted = format!("\"{level}\"");
        assert!(
            entries.contains(&(lint, quoted.as_str())),
            "[workspace.lints.{tool}] must set {lint} = {quoted}: {entries:?}"
        );
    }
}

#[test]
fn clippy_toml_bans_every_path_outside_its_exemptions() {
    let root = workspace_root();
    let root_toml = read(&root.join("clippy.toml"));
    let root_bans = banned_paths(&root_toml);
    for (path, _) in BANS {
        assert!(root_bans.contains(&path), "clippy.toml lost the {path} ban");
    }
    // Clippy reads the nearest clippy.toml, so a crate-level one
    // replaces the root file: it must keep every ban the crate is not
    // exempt from, and carry the same test allowances.
    for name in crate_names() {
        let file = root.join("crates").join(&name).join("clippy.toml");
        if !file.is_file() {
            continue;
        }
        let text = read(&file);
        let bans = banned_paths(&text);
        for (path, exempt) in BANS {
            assert_eq!(
                bans.contains(&path),
                !exempt.contains(&name.as_str()),
                "crates/{name}/clippy.toml: {path} is banned exactly outside {exempt:?}"
            );
        }
        for allowance in [
            "allow-unwrap-in-tests = true",
            "allow-expect-in-tests = true",
        ] {
            assert!(
                text.contains(allowance),
                "crates/{name}/clippy.toml lost {allowance}"
            );
        }
    }
}

#[test]
fn timing_crates_enable_the_cast_lints() {
    let root = workspace_root();
    for name in TIMING_CRATES {
        let lib = root.join("crates").join(name).join("src/lib.rs");
        assert!(
            read(&lib).lines().any(|l| l.trim() == CAST_LINTS),
            "{} must carry {CAST_LINTS}",
            lib.display()
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// The `f32`-suffixed numeric literals of `line` (`1.0_f32`, `2f32`,
/// `1e3f32`): an `f32` that ends a token starting with a decimal digit.
/// Hex literals such as `0x1f32` are integers and do not count.
fn f32_literals(line: &str) -> Vec<&str> {
    let b = line.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    line.match_indices("f32")
        .filter_map(|(at, _)| {
            let end = at + 3;
            if b.get(end).is_some_and(|&c| word(c)) {
                return None;
            }
            let start = b[..at]
                .iter()
                .rposition(|&c| !(word(c) || c == b'.'))
                .map_or(0, |p| p + 1);
            let token = &line[start..end];
            let numeric = token.as_bytes()[0].is_ascii_digit()
                && !token.starts_with("0x")
                && !token.starts_with("0X");
            numeric.then_some(token)
        })
        .collect()
}

#[test]
fn the_scan_sees_every_f32_literal_spelling() {
    assert_eq!(
        f32_literals("let a = 1.0_f32 + 2f32 * 1e3f32;"),
        ["1.0_f32", "2f32", "1e3f32"]
    );
    assert!(f32_literals("let x_f32 = 0x1f32; v.as_f32(); f32::EPSILON").is_empty());
}

#[test]
fn timing_crates_have_no_f32_literals() {
    let root = workspace_root();
    let mut found = Vec::new();
    let mut scanned = 0;
    for name in TIMING_CRATES {
        for file in rust_files(&root.join("crates").join(name)) {
            scanned += 1;
            for (n, line) in read(&file).lines().enumerate() {
                for lit in f32_literals(line) {
                    found.push(format!("{}:{}: {lit}", file.display(), n + 1));
                }
            }
        }
    }
    assert!(scanned > 20, "walker lost files: {scanned}");
    assert!(
        found.is_empty(),
        "f32 literals in the timing crates (L006):\n{}",
        found.join("\n")
    );
}
