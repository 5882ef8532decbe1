//! Fixture-driven coverage of every lint rule: each rule has a fixture
//! that must trigger it and a twin that must stay clean. The fixtures
//! live under `tests/fixtures/` (outside the `crates/*/src` walk, so
//! they never pollute a real lint run) and are linted in-memory via
//! `lint_file`.

use ehsim_verify::allow::Allowlist;
use ehsim_verify::lint::{lint_file, Finding};

/// Lint a fixture as if it lived at `crates/<crate>/src/<name>`.
fn lint(crate_name: &str, virtual_path: &str, text: &str) -> Vec<Finding> {
    let mut allow = Allowlist::default();
    let mut out = Vec::new();
    let rel = format!("crates/{crate_name}/src/{virtual_path}");
    lint_file(crate_name, &rel, text, &mut allow, &mut out);
    out
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn l001_l007_crate_root_attributes() {
    let bad = lint("core", "lib.rs", include_str!("fixtures/root_bad.rs"));
    assert_eq!(rules_of(&bad), ["L001", "L007"]);
    let good = lint("core", "lib.rs", include_str!("fixtures/root_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // Non-root files are not required to carry the attributes.
    let non_root = lint("core", "util.rs", include_str!("fixtures/root_bad.rs"));
    assert!(non_root.is_empty(), "{non_root:?}");
}

#[test]
fn l002_wall_clock_and_randomness() {
    let bad = lint(
        "core",
        "time.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    assert_eq!(rules_of(&bad), ["L002"; 5], "{bad:?}");
    let good = lint(
        "core",
        "time.rs",
        include_str!("fixtures/determinism_good.rs"),
    );
    assert!(
        good.is_empty(),
        "comments/strings/superstrings must not trip: {good:?}"
    );
    // Crates outside the original deterministic set are in scope too
    // (the rule is deny-everywhere now): hwcost trips like core does.
    let hwcost = lint(
        "hwcost",
        "time.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    assert_eq!(rules_of(&hwcost), ["L002"; 5], "{hwcost:?}");
    // Only the ambient-state crates are exempt; the farm (a result
    // store handed its directory by bench) is not.
    for exempt in ["bench", "cli"] {
        let ok = lint(
            exempt,
            "time.rs",
            include_str!("fixtures/determinism_bad.rs"),
        );
        assert!(ok.is_empty(), "{exempt}: {ok:?}");
    }
    let farm = lint(
        "farm",
        "time.rs",
        include_str!("fixtures/determinism_bad.rs"),
    );
    assert_eq!(rules_of(&farm), ["L002"; 5], "{farm:?}");
}

#[test]
fn l003_hash_collections() {
    let bad = lint("obs", "tally.rs", include_str!("fixtures/hash_bad.rs"));
    assert_eq!(rules_of(&bad), ["L003"; 3], "{bad:?}");
    let good = lint("obs", "tally.rs", include_str!("fixtures/hash_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // bench is the one crate allowed to use hash collections.
    let bench = lint("bench", "tally.rs", include_str!("fixtures/hash_bad.rs"));
    assert!(bench.is_empty(), "{bench:?}");
}

#[test]
fn l004_library_panics() {
    let bad = lint("cache", "first.rs", include_str!("fixtures/panic_bad.rs"));
    assert_eq!(rules_of(&bad), ["L004"; 2], "{bad:?}");
    let good = lint("cache", "first.rs", include_str!("fixtures/panic_good.rs"));
    assert!(
        good.is_empty(),
        "cfg(test) + unwrap_or must not trip: {good:?}"
    );
}

#[test]
fn l005_unguarded_emission() {
    let bad = lint("sim", "rec.rs", include_str!("fixtures/emit_bad.rs"));
    assert_eq!(rules_of(&bad), ["L005"], "{bad:?}");
    let good = lint("sim", "rec.rs", include_str!("fixtures/emit_good.rs"));
    assert!(good.is_empty(), "{good:?}");
    // Outside the simulation crates the rule does not apply.
    let other = lint("workloads", "rec.rs", include_str!("fixtures/emit_bad.rs"));
    assert!(other.is_empty(), "{other:?}");
}

#[test]
fn l006_float_precision() {
    let bad = lint("energy", "seg.rs", include_str!("fixtures/float_bad.rs"));
    assert_eq!(rules_of(&bad), ["L006"; 2], "{bad:?}");
    let good = lint("energy", "seg.rs", include_str!("fixtures/float_good.rs"));
    assert!(
        good.is_empty(),
        "rounded casts and div_ceil must not trip: {good:?}"
    );
    // Non-timing crates may cast freely.
    let free = lint("workloads", "seg.rs", include_str!("fixtures/float_bad.rs"));
    assert!(free.is_empty(), "{free:?}");
}

#[test]
fn l008_environment_knobs() {
    let bad = lint("sim", "knobs.rs", include_str!("fixtures/env_bad.rs"));
    assert_eq!(rules_of(&bad), ["L008"; 3], "{bad:?}");
    let good = lint("sim", "knobs.rs", include_str!("fixtures/env_good.rs"));
    assert!(
        good.is_empty(),
        "comments/strings/macros/tests must not trip: {good:?}"
    );
    // bench and cli are the sanctioned homes for environment knobs;
    // the farm's store directory is handed in by bench's executor.
    for exempt in ["bench", "cli"] {
        let ok = lint(exempt, "knobs.rs", include_str!("fixtures/env_bad.rs"));
        assert!(ok.is_empty(), "{exempt}: {ok:?}");
    }
    let farm = lint("farm", "knobs.rs", include_str!("fixtures/env_bad.rs"));
    assert_eq!(rules_of(&farm), ["L008"; 3], "{farm:?}");
}

#[test]
fn l009_sockets() {
    let bad = lint("sim", "srv.rs", include_str!("fixtures/net_bad.rs"));
    assert_eq!(rules_of(&bad), ["L009"; 4], "{bad:?}");
    let good = lint("sim", "srv.rs", include_str!("fixtures/net_good.rs"));
    assert!(
        good.is_empty(),
        "comments/strings/superstrings/tests must not trip: {good:?}"
    );
    // No crate is exempt, not even the ambient-state ones.
    for krate in ["bench", "cli", "farm"] {
        let found = lint(krate, "srv.rs", include_str!("fixtures/net_bad.rs"));
        assert_eq!(rules_of(&found), ["L009"; 4], "{krate}: {found:?}");
    }
}

#[test]
fn allowlisted_findings_are_reported_but_not_denied() {
    let toml = r#"
[[allow]]
rule = "L004"
path = "crates/cache/src/first.rs"
contains = "expect(\"non-empty\")"
why = "fixture: expect on a slice the caller guarantees non-empty"
"#;
    let mut allow = Allowlist::parse(toml).expect("valid allowlist");
    let mut out = Vec::new();
    lint_file(
        "cache",
        "crates/cache/src/first.rs",
        include_str!("fixtures/panic_bad.rs"),
        &mut allow,
        &mut out,
    );
    let denied: Vec<_> = out.iter().filter(|f| !f.allowed).collect();
    let allowed: Vec<_> = out.iter().filter(|f| f.allowed).collect();
    assert_eq!(denied.len(), 1, "the unwrap stays denied: {out:?}");
    assert_eq!(allowed.len(), 1, "the expect is covered: {out:?}");
    assert!(allow.unused().is_empty());
}
