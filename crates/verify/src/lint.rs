//! The workspace invariant linter: deny-by-default, token/line level.
//!
//! Rules operate on *blanked* source (see [`crate::source`]) so that doc
//! comments and string literals can mention `Instant` or `unwrap()`
//! freely. Every rule has a stable ID and a one-line rationale that is
//! printed with each finding; known-good exceptions live in
//! `verify-allow.toml` with a written justification each.

use crate::allow::Allowlist;
use crate::source::{blank_non_code, has_float_literal, has_ident, test_region_lines};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The crates whose outputs must be bit-identical across runs: anything
/// that feeds simulated state, timing, or energy numbers.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "core",
    "sim",
    "cache",
    "mem",
    "energy",
    "workloads",
    "obs",
    "analyze",
];

/// Crates whose arithmetic lands in picosecond/picojoule accounting and
/// therefore must stay in f64 with explicit rounding.
pub const TIMING_CRATES: &[&str] = &["core", "sim", "cache", "mem", "energy"];

/// A single lint rule: stable ID, summary, and the rationale printed
/// alongside every finding.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Stable identifier (`L001`…), referenced by `verify-allow.toml`.
    pub id: &'static str,
    /// One-line description of what the rule demands.
    pub summary: &'static str,
    /// Why the invariant matters for this workspace.
    pub rationale: &'static str,
}

/// The full rule catalogue, in ID order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "L001",
        summary: "every crate root carries #![forbid(unsafe_code)]",
        rationale: "unsafe anywhere would undermine the bit-exactness audit surface",
    },
    Rule {
        id: "L002",
        summary: "no Instant/SystemTime/thread_rng outside crates/{bench,cli}",
        rationale: "wall-clock or OS randomness breaks run-to-run bit-identity",
    },
    Rule {
        id: "L003",
        summary: "no HashMap/HashSet outside crates/bench",
        rationale: "hash iteration order is nondeterministic; use BTreeMap or sorted drains",
    },
    Rule {
        id: "L004",
        summary: "no unwrap()/expect() in library code outside #[cfg(test)] (harness crates bench/farm excepted)",
        rationale: "library panics abort whole sweeps; bubble errors or prove the invariant",
    },
    Rule {
        id: "L005",
        summary: "observer emission sites are guarded by enabled()",
        rationale: "unguarded emits pay observer cost on the untraced hot path",
    },
    Rule {
        id: "L006",
        summary: "no f32 or unrounded float->int casts in energy/timing arithmetic",
        rationale: "f32 precision and `as` truncation silently perturb picosecond accounting",
    },
    Rule {
        id: "L007",
        summary: "every crate root carries #![warn(missing_docs)]",
        rationale: "public API drift is caught at the source, not in review",
    },
    Rule {
        id: "L008",
        summary: "no std::env::var outside crates/{bench,cli}",
        rationale: "environment knobs in deterministic crates make sim results depend on invisible ambient state",
    },
    Rule {
        id: "L009",
        summary: "no std::net sockets in any crate",
        rationale: "the simulator is a batch program with no network service; a socket would grow untracked I/O surface",
    },
];

/// Look up a rule by ID.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// One lint finding, pointing at a workspace-relative path and 1-based
/// line number.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Rule ID (`L001`…).
    pub rule: &'static str,
    /// Path relative to the workspace root, `/`-separated.
    pub path: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// The offending source line, trimmed (empty for whole-file findings).
    pub excerpt: String,
    /// Whether an allowlist entry covers this finding.
    pub allowed: bool,
}

const UNKNOWN_RULE: Rule = Rule {
    id: "L???",
    summary: "unknown rule",
    rationale: "finding references a rule missing from the catalogue",
};

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = rule(self.rule).unwrap_or(&UNKNOWN_RULE);
        if self.line == 0 {
            write!(
                f,
                "{}: {}: {} — {}",
                self.rule, self.path, r.summary, r.rationale
            )
        } else {
            write!(
                f,
                "{}: {}:{}: `{}` — {}",
                self.rule, self.path, self.line, self.excerpt, r.rationale
            )
        }
    }
}

/// Outcome of linting a tree.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, allowlisted or not, in (path, line, rule) order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files: usize,
    /// Allowlist entries that matched nothing (fatal in deny mode).
    pub stale_allows: Vec<String>,
}

impl LintReport {
    /// Findings not covered by the allowlist.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.allowed)
    }

    /// Whether deny mode should exit non-zero.
    pub fn is_dirty(&self) -> bool {
        self.denied().next().is_some() || !self.stale_allows.is_empty()
    }

    /// Render findings as a JSON array (machine-readable output).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let r = rule(f.rule).unwrap_or(&UNKNOWN_RULE);
            out.push_str(&format!(
                "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"allowed\":{},\"rationale\":\"{}\"}}",
                f.rule,
                json_escape(&f.path),
                f.line,
                json_escape(&f.excerpt),
                f.allowed,
                json_escape(r.rationale),
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lint every `crates/*/src/**/*.rs` file under `root` against the full
/// rule catalogue, marking findings covered by `allow`.
pub fn lint_workspace(root: &Path, allow: &mut Allowlist) -> Result<LintReport, String> {
    let mut report = LintReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| format!("reading {}: {e}", crates_dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    for dir in &crate_dirs {
        let crate_name = dir
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| format!("non-utf8 crate dir under {}", crates_dir.display()))?
            .to_string();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for file in files {
            report.files += 1;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(&file)
                .map_err(|e| format!("reading {}: {e}", file.display()))?;
            lint_file(&crate_name, &rel, &text, allow, &mut report.findings);
        }
    }
    report.stale_allows = allow.unused();
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Lint one file's text. `crate_name` is the `crates/<name>` component;
/// `rel` is the workspace-relative path used in findings.
pub fn lint_file(
    crate_name: &str,
    rel: &str,
    text: &str,
    allow: &mut Allowlist,
    out: &mut Vec<Finding>,
) {
    let blanked = blank_non_code(text);
    let in_test = test_region_lines(&blanked);
    let raw_lines: Vec<&str> = text.lines().collect();
    let lines: Vec<&str> = blanked.lines().collect();
    let is_bench = crate_name == "bench";
    // The crates whose whole job is ambient state: `bench` drives
    // sweeps from env knobs and wall-clock timers, `cli` parses a user
    // session. Everything else — including crates outside
    // DETERMINISTIC_CRATES, like `verify`, `hwcost` and `farm` (whose
    // store directory is handed in by bench) — must stay free of
    // wall-clock and environment reads.
    let ambient_ok = matches!(crate_name, "bench" | "cli");
    let timing = TIMING_CRATES.contains(&crate_name);

    let mut push = |rule_id: &'static str, line: usize, out: &mut Vec<Finding>| {
        let excerpt = if line == 0 {
            String::new()
        } else {
            raw_lines.get(line - 1).map_or("", |l| l.trim()).to_string()
        };
        let allowed = allow.covers(rule_id, rel, &excerpt);
        out.push(Finding {
            rule: rule_id,
            path: rel.to_string(),
            line,
            excerpt,
            allowed,
        });
    };

    // L001 / L007: crate-root attributes. main.rs of a binary crate is a
    // crate root too, but only when it has no sibling lib.rs feeding it —
    // we keep it simple and require the attributes in lib.rs only, plus
    // main.rs when the crate has no lib.rs (not the case anywhere here).
    if rel.ends_with("/src/lib.rs") {
        if !lines.iter().any(|l| l.contains("#![forbid(unsafe_code)]")) {
            push("L001", 0, out);
        }
        if !lines.iter().any(|l| l.contains("#![warn(missing_docs)]")) {
            push("L007", 0, out);
        }
    }

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let test_line = in_test.get(idx).copied().unwrap_or(false);

        // L002: wall clock / OS randomness anywhere but the sanctioned
        // ambient-state crates.
        if !ambient_ok
            && (has_ident(line, "Instant")
                || has_ident(line, "SystemTime")
                || has_ident(line, "thread_rng"))
        {
            push("L002", lineno, out);
        }

        // L003: hash collections anywhere but bench (tests included —
        // even a test iterating a HashMap can flake a golden).
        if !is_bench && (has_ident(line, "HashMap") || has_ident(line, "HashSet")) {
            push("L003", lineno, out);
        }

        // L004: panicking accessors in library code. The required open
        // paren keeps `unwrap_or`/`unwrap_or_else` out of scope. The
        // harness crates are excepted: bench treats sim errors as
        // fatal by design, and the farm's expects are fixed-width slice
        // conversions behind the store's own length checks.
        if !is_bench
            && crate_name != "farm"
            && !test_line
            && (line.contains(".unwrap(") || line.contains(".expect("))
        {
            push("L004", lineno, out);
        }

        // L005: every observer emission in the simulation crates must sit
        // inside an `enabled()` guard; we accept the guard anywhere in
        // the preceding window (same fn in practice).
        if matches!(crate_name, "core" | "sim" | "cache" | "mem")
            && line.contains(".emit(")
            && !test_line
        {
            let lo = idx.saturating_sub(12);
            let guarded = lines[lo..=idx].iter().any(|l| l.contains("enabled()"));
            if !guarded {
                push("L005", lineno, out);
            }
        }

        // L008: environment reads outside the ambient-state crates.
        // `env::var` covers `var`, `var_os` and `std::env::`-qualified
        // forms; `env!`/`option_env!` compile-time macros don't match.
        // Tests excepted (they set what they read).
        if !ambient_ok && !test_line && line.contains("env::var") {
            push("L008", lineno, out);
        }

        // L009: no sockets anywhere. `std::net` catches qualified forms
        // and `use` lines; the type idents catch `use`d handles. Tests
        // excepted (a unit test may bind an ephemeral loopback port).
        if !test_line
            && (line.contains("std::net")
                || has_ident(line, "TcpListener")
                || has_ident(line, "TcpStream")
                || has_ident(line, "UdpSocket"))
        {
            push("L009", lineno, out);
        }

        // L006: f32 anywhere in timing crates; float->int `as` casts
        // without an explicit rounding call on the same line.
        if timing && !test_line {
            if has_ident(line, "f32") {
                push("L006", lineno, out);
            } else if has_float_literal(line) || has_ident(line, "f64") {
                let lossy_cast = [
                    " as Ps",
                    " as Pj",
                    " as u64",
                    " as u32",
                    " as i64",
                    " as usize",
                ]
                .iter()
                .any(|c| line.contains(c));
                let rounded = [".round()", ".ceil()", ".floor()", ".trunc()"]
                    .iter()
                    .any(|r| line.contains(r));
                if lossy_cast && !rounded {
                    push("L006", lineno, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow::Allowlist;

    fn run(crate_name: &str, rel: &str, text: &str) -> Vec<Finding> {
        let mut allow = Allowlist::default();
        let mut out = Vec::new();
        lint_file(crate_name, rel, text, &mut allow, &mut out);
        out
    }

    #[test]
    fn catalogue_ids_are_unique_and_ordered() {
        for w in RULES.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        assert!(RULES.len() >= 6, "issue demands at least 6 rules");
    }

    #[test]
    fn crate_lists_name_existing_crates() {
        // crates/verify -> crates
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        for name in DETERMINISTIC_CRATES.iter().chain(TIMING_CRATES) {
            assert!(
                crates.join(name).join("Cargo.toml").is_file(),
                "`{name}` names no crate under crates/"
            );
        }
    }

    #[test]
    fn json_output_is_well_formed_enough() {
        let rep = LintReport {
            findings: run("core", "crates/core/src/x.rs", "use std::time::Instant;\n"),
            ..LintReport::default()
        };
        let json = rep.to_json();
        assert!(json.starts_with('['));
        assert!(json.contains("\"rule\":\"L002\""));
        assert!(json.contains("\"allowed\":false"));
    }
}
