//! `ehsim-verify` CLI: `lint` and `model-check` subcommands.
//!
//! Exit codes: 0 = clean / invariants hold, 1 = findings or a
//! counterexample, 2 = usage or I/O error.

use ehsim_obs::MetricsRegistry;
use ehsim_verify::allow::Allowlist;
use ehsim_verify::engine::{explore, Limits, Outcome};
use ehsim_verify::lint::{lint_workspace, RULES};
use ehsim_verify::model::{Mutation, WriteBackModel};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
ehsim-verify: workspace invariant linter + bounded model checker

USAGE:
  ehsim-verify lint [--root DIR] [--json] [--warn]
  ehsim-verify model-check [--depth N] [--max-states N] [--smoke]
                           [--mutant NAME] [--json]
  ehsim-verify rules

lint options:
  --root DIR    workspace root (default: nearest dir with verify-allow.toml
                or a crates/ folder, searching upward from .)
  --json        machine-readable findings on stdout
  --warn        report findings but always exit 0 (deny is the default)

model-check options (the §5 write-back protocol model):
  --depth N       BFS depth bound (default 12)
  --max-states N  distinct-state budget (default 1000000)
  --smoke         CI preset: --depth 8 --max-states 150000; cannot be
                  combined with --depth or --max-states
  --json          machine-readable run summary on stdout
  --mutant NAME   inject a protocol bug and expect a counterexample:
                  skip-jit-flush | skip-stale-drop | overfill-queue |
                  skip-min-recompute | lower-threshold | free-slot-at-issue
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    match cmd.as_str() {
        "lint" => cmd_lint(&args[1..]),
        "model-check" => cmd_model_check(&args[1..]),
        "rules" => {
            for r in RULES {
                println!("{}  {} — {}", r.id, r.summary, r.rationale);
            }
            ExitCode::SUCCESS
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("ehsim-verify: unknown subcommand `{other}`\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut warn = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage_err("--root needs a value"),
            },
            "--json" => json = true,
            "--warn" => warn = true,
            other => return usage_err(&format!("unknown lint flag `{other}`")),
        }
    }
    let root = match root.map_or_else(find_root, Ok) {
        Ok(r) => r,
        Err(e) => return io_err(&e),
    };
    let mut allow = match Allowlist::load(&root) {
        Ok(a) => a,
        Err(e) => return io_err(&e),
    };
    let report = match lint_workspace(&root, &mut allow) {
        Ok(r) => r,
        Err(e) => return io_err(&e),
    };
    if json {
        print!("{}", report.to_json());
    } else {
        for f in report.denied() {
            println!("{f}");
        }
        let denied = report.denied().count();
        let allowed = report.findings.len() - denied;
        println!(
            "ehsim-verify lint: {} files, {denied} finding(s), {allowed} allowlisted",
            report.files
        );
        for stale in &report.stale_allows {
            println!("stale allowlist entry (matches nothing): {stale}");
        }
    }
    if warn || !report.is_dirty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_model_check(args: &[String]) -> ExitCode {
    let mut depth: Option<usize> = None;
    let mut max_states: Option<usize> = None;
    let mut smoke = false;
    let mut mutation: Option<Mutation> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => depth = Some(n),
                None => return usage_err("--depth needs an integer"),
            },
            "--max-states" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => max_states = Some(n),
                None => return usage_err("--max-states needs an integer"),
            },
            "--smoke" => smoke = true,
            "--json" => json = true,
            "--mutant" => {
                let Some(name) = it.next() else {
                    return usage_err("--mutant needs a name");
                };
                mutation = match name.as_str() {
                    "skip-jit-flush" => Some(Mutation::SkipJitFlush),
                    "skip-stale-drop" => Some(Mutation::SkipStaleDrop),
                    "overfill-queue" => Some(Mutation::OverfillQueue),
                    "skip-min-recompute" => Some(Mutation::SkipMinRecompute),
                    "lower-threshold" => Some(Mutation::LowerThresholdMidInterval),
                    "free-slot-at-issue" => Some(Mutation::FreeSlotAtIssue),
                    other => return usage_err(&format!("unknown mutant `{other}`")),
                };
            }
            other => return usage_err(&format!("unknown model-check flag `{other}`")),
        }
    }
    let limits = if smoke {
        if depth.is_some() || max_states.is_some() {
            return usage_err("--smoke is a fixed budget; drop --depth/--max-states");
        }
        Limits::new(8, 150_000)
    } else {
        Limits::new(depth.unwrap_or(12), max_states.unwrap_or(1_000_000))
    };
    let model = WriteBackModel { mutation };
    let out = explore(&model, limits);
    if json {
        let mut reg = run_summary(&out);
        if let Some(m) = mutation {
            reg.set_text("mutant", &format!("{m:?}"));
        }
        println!("{}", reg.to_json(""));
    } else {
        println!(
            "ehsim-verify model-check: {} states, {} transitions, depth {}, {} dedup hits{}{}",
            out.states,
            out.transitions,
            out.max_depth,
            out.dedup_hits,
            if out.truncated { " (budget hit)" } else { "" },
            match mutation {
                Some(m) => format!(" [mutant {m:?}]"),
                None => String::new(),
            },
        );
    }
    report_verdict(&out, mutation.map(|m| format!("{m:?}")), json)
}

/// Builds the machine-readable run summary for a model-check outcome.
fn run_summary(out: &Outcome) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    reg.set_text("model", "writeback");
    reg.set_counter("states", out.states as u64);
    reg.set_counter("transitions", out.transitions as u64);
    reg.set_counter("dedup_hits", out.dedup_hits as u64);
    reg.set_counter("depth_reached", out.max_depth as u64);
    reg.set_flag("truncated", out.truncated);
    reg.set_flag("holds", out.holds());
    reg
}

/// Prints the verdict (and counterexample, if any) and maps it to an
/// exit code: faithful+holds and mutant+refuted succeed, everything
/// else fails.
fn report_verdict(out: &Outcome, mutant: Option<String>, json: bool) -> ExitCode {
    match (&out.violation, mutant) {
        (None, None) => {
            if !json {
                println!("all invariants hold on every explored state");
            }
            ExitCode::SUCCESS
        }
        (Some(v), None) => {
            print!("{v}");
            ExitCode::FAILURE
        }
        (Some(v), Some(m)) => {
            println!("mutant {m} refuted, as expected:");
            print!("{v}");
            ExitCode::SUCCESS
        }
        (None, Some(m)) => {
            println!("mutant {m} survived the bounded search — invariant lacks teeth here");
            ExitCode::FAILURE
        }
    }
}

/// Search upward from the current directory for the workspace root:
/// the nearest ancestor holding `verify-allow.toml` or a `crates/` dir.
fn find_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("getcwd: {e}"))?;
    loop {
        if dir.join("verify-allow.toml").is_file() || dir.join("crates").is_dir() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(
                "no workspace root found (run from inside the repo or pass --root)".to_string(),
            );
        }
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("ehsim-verify: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn io_err(msg: &str) -> ExitCode {
    eprintln!("ehsim-verify: {msg}");
    ExitCode::from(2)
}
