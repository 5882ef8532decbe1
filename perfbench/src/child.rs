//! The batch processes. Every timed batch runs in a fresh process, so
//! the sweep executor's process-wide memo and trace caches start empty
//! exactly as they do for a user's run. A batch reports back on stdout
//! in lines starting with [`TAG`]; everything else on stdout (the
//! figure tables the harness mirrors there) is ignored.

use crate::checks::{self, Fnv, Power};
use ehsim::SimConfig;
use ehsim_bench::{exec, figures};
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;
use std::time::Instant;

/// Prefix of every line a batch process reports.
pub const TAG: &str = "@perfbench";

/// Counter deltas of one call into the sweep executor.
fn delta(before: &exec::ExecStats, after: &exec::ExecStats) -> [u64; 4] {
    [
        after.sims_run - before.sims_run,
        after.memo_hits - before.memo_hits,
        after.traces_recorded - before.traces_recorded,
        after.simulated_instructions - before.simulated_instructions,
    ]
}

/// Times `f` and reports it as one executor call named `name`.
fn call<R>(origin: Instant, name: &str, f: impl FnOnce() -> R) -> R {
    let before = exec::stats();
    let start = origin.elapsed().as_nanos();
    let r = f();
    let end = origin.elapsed().as_nanos();
    let d = delta(&before, &exec::stats());
    println!(
        "{TAG} call {name} {start} {end} {} {} {} {}",
        d[0], d[1], d[2], d[3]
    );
    r
}

/// Peak resident set of this process, in KiB (0 where unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// The 17 paper tables at Small scale, in one process. Reports a digest
/// of every table, then the kernel checksums of the NVSRAM(ideal) suite,
/// which Fig 4 already simulated.
fn figures_small(origin: Instant) {
    let mut h = Fnv::default();
    for (name, figure) in figures::ALL {
        let table = call(origin, name, || figure(Scale::Small));
        h.str(name);
        h.str(table.contents());
    }
    println!("{TAG} digest {:016x}", h.0);
    let base = exec::run_suites(&[SimConfig::nvsram()], Scale::Small);
    for r in base.iter().flatten() {
        println!("{TAG} ck {} {}", r.workload, r.checksum);
    }
}

/// The Fig 4 job set at Default scale through `exec::run_suites`.
/// Reports the report digest, every kernel checksum and the
/// gmean(Total) speedup of each design vs NVSRAM(ideal).
fn suite(origin: Instant, kind: TraceKind, seed: u64) {
    let power = Power::for_seed(kind, seed);
    let cfgs = checks::suite_configs(&power);
    let suites = call(origin, "run_suites", || {
        exec::run_suites(&cfgs, Scale::Default)
    });
    let mut h = Fnv::default();
    for r in suites.iter().flatten() {
        checks::digest_report(&mut h, r);
        println!("{TAG} ck {} {}", r.workload, r.checksum);
    }
    println!("{TAG} digest {:016x}", h.0);
    let base = &suites[0];
    for reports in &suites[1..] {
        let g = ehsim::gmean(reports.iter().zip(base).map(|(r, b)| r.speedup_vs(b)))
            .unwrap_or(f64::NAN);
        println!("{TAG} gmean {} {}", reports[0].design, g);
    }
}

/// Entry point for `--child <mode> [args]`.
pub fn main(args: &[String]) -> Result<(), String> {
    let origin = Instant::now();
    match args {
        [mode] if mode == "figures" => figures_small(origin),
        [mode, kind, seed] if mode == "suite" => {
            let kind = match kind.as_str() {
                "none" => TraceKind::None,
                "rf3" => TraceKind::Rf3,
                other => return Err(format!("unknown suite trace `{other}`")),
            };
            let seed = seed.parse().map_err(|e| format!("bad seed: {e}"))?;
            suite(origin, kind, seed);
        }
        [mode] if mode == "noop" => return Ok(()),
        other => return Err(format!("unknown child mode {other:?}")),
    }
    println!("{TAG} rss {}", peak_rss_kb());
    Ok(())
}
