//! `ehsim-verify` CLI: the `model-check` subcommand.
//!
//! Exit codes: 0 = invariants hold (or a mutant was refuted), 1 = a
//! counterexample (or a surviving mutant), 2 = usage error.

use ehsim_obs::MetricsRegistry;
use ehsim_verify::engine::{explore, Limits, Outcome};
use ehsim_verify::model::{Mutation, WriteBackModel};
use std::process::ExitCode;

const USAGE: &str = "\
ehsim-verify: bounded model checker for the §5 write-back protocol

USAGE:
  ehsim-verify model-check [--depth N] [--max-states N] [--smoke]
                           [--mutant NAME] [--json]

model-check options:
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
        "model-check" => cmd_model_check(&args[1..]),
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

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("ehsim-verify: {msg}\n");
    eprint!("{USAGE}");
    ExitCode::from(2)
}
