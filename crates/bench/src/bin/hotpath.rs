//! Per-layer hot-path microbenchmark: raw simulated-instruction
//! throughput of the per-access / per-retire path, per cache design.
//!
//! Unlike `BENCH_sweep.json` (which times the whole figure suite through
//! the memoized sweep engine), this binary drives [`ehsim::Machine`]
//! directly with a fixed, deterministic load/store/compute mix and
//! reports instructions per wall-clock second — the quantity the
//! tentpole optimisations (SoA tag array, O(1) settlement, incremental
//! consistency checking) are meant to move. Two scenarios per design:
//!
//! * `no-failure` — no harvesting trace, so `settle()` never runs the
//!   outage protocol: this isolates the per-access cache path plus the
//!   energy-metering fixed costs.
//! * `tr.1(RF)` — the paper's Power Trace 1 with real outages: this
//!   additionally exercises charge integration, the voltage monitor,
//!   checkpoints and recharge.
//!
//! Timing uses `std::time::Instant` directly; each scenario takes the
//! best of `REPS` repetitions to suppress scheduler noise. Results go
//! to `BENCH_hotpath.json`. If the environment
//! variable `EHSIM_HOTPATH_BASELINE_IPS` holds the aggregate
//! instructions/sec of a previous run (the pre-PR baseline), the JSON
//! also records it and the resulting speedup. If
//! `EHSIM_HOTPATH_BASELINE_JSON` points at a `BENCH_hotpath.json`
//! produced by the *baseline* binary, each scenario additionally
//! records its own baseline throughput and speedup, plus their
//! geometric mean — the per-layer comparison (an aggregate over wall
//! time is dominated by the slowest scenarios, which are bound by the
//! byte-identity contract on the settlement numerics, so it understates
//! gains in the layers this benchmark exists to watch).
//!
//! Two auxiliary sections ride along, both excluded from the
//! aggregate: `recording_observer` (what full event capture costs) and
//! `recording_emit` (the recording observer's per-event emit cost).
//!
//! `--smoke` shrinks the iteration counts to a few milliseconds total
//! for CI smoke runs (throughput numbers are then meaningless; the run
//! only proves the harness executes).

use ehsim::{Machine, ObserverBox, SimConfig};
use ehsim_bench::telemetry;
use ehsim_energy::{Rail, TraceKind};
use ehsim_mem::{Bus, Ps};
use ehsim_obs::{Event, ObsCounters, ObsHistograms, Observer as _, Phase, Recorder};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Bytes of simulated memory; also the address space of the access mix.
const MEM_BYTES: u32 = 64 * 1024;

/// Per-iteration cost of [`drive`]: 8 stores + 8 loads + 64 compute.
const INSTR_PER_ITER: u64 = 80;

/// A deterministic load/store/compute mix over a working set larger than
/// the cache, so fills, write-backs and evictions all stay hot. The LCG
/// is fixed — every run issues the identical access sequence.
fn drive(m: &mut Machine, iters: u32) -> u64 {
    let mut x = 0x9e37_79b9u32;
    for _ in 0..iters {
        for j in 0..8u32 {
            let addr = (x.wrapping_add(j.wrapping_mul(0x61c8_8647)) >> 7) % (MEM_BYTES / 4) * 4;
            m.store_u32(addr, x ^ j);
            black_box(m.load_u32(addr));
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        }
        m.compute(64);
    }
    m.instructions()
}

struct Scenario {
    design: &'static str,
    trace: &'static str,
    instructions: u64,
    best_wall_s: f64,
    ips: f64,
}

/// Per-scenario throughput extracted from a previous run's JSON
/// (written by this same binary — one scenario object per line, so a
/// line scan suffices and no JSON dependency is needed).
fn parse_baseline_scenarios(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (Some(design), Some(trace), Some(ips)) = (
            field_str(line, "\"design\": \""),
            field_str(line, "\"trace\": \""),
            field_num(line, "\"instructions_per_second\": "),
        ) else {
            continue;
        };
        out.push((design, trace, ips));
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn run_scenario(cfg: &SimConfig, iters: u32, reps: u32) -> (u64, f64) {
    // Warm-up pass (not timed): page in code and trace storage.
    let mut warm = Machine::new(cfg, MEM_BYTES);
    drive(&mut warm, (iters / 8).max(1));
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..reps {
        let mut m = Machine::new(cfg, MEM_BYTES);
        let t0 = Instant::now();
        instructions = drive(&mut m, iters);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
    }
    (instructions, best)
}

/// Like [`run_scenario`] but with the recording observer attached:
/// measures what enabling full event capture costs on the same drive
/// mix. Also returns the recorded event count of the final repetition,
/// to put the cost in events/iteration terms.
fn run_recording_scenario(cfg: &SimConfig, iters: u32, reps: u32) -> (u64, f64, usize) {
    let mut warm = Machine::with_observer(cfg, MEM_BYTES, ObserverBox::recording());
    drive(&mut warm, (iters / 8).max(1));
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    let mut events = 0;
    for _ in 0..reps {
        let mut m = Machine::with_observer(cfg, MEM_BYTES, ObserverBox::recording());
        let t0 = Instant::now();
        instructions = drive(&mut m, iters);
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        let end = m.now();
        events = m.take_observer().into_trace(end).events.len();
    }
    (instructions, best, events)
}

/// Entries per seed-replica arena chunk — the same constant the live
/// [`Recorder`] uses, so both paths seal chunks at identical points.
const SEED_ARENA_CHUNK: usize = 32 * 1024;

/// Replica of the seed `Recorder`'s emit path: the chunk list probed
/// through `last()`/`last_mut()` on **every** event (an `Option`
/// round-trip and a double indirection the arena-head mitigation
/// removed). Kept here verbatim so the mitigation's before/after runs
/// same-window, in one binary, forever — not against a number measured
/// on some other day's machine state.
#[derive(Default)]
struct SeedRecorder {
    chunks: Vec<Vec<(Ps, Event)>>,
    counters: ObsCounters,
    histograms: ObsHistograms,
    ended: bool,
}

impl SeedRecorder {
    fn event(&mut self, at: Ps, ev: Event) {
        seed_tally(&mut self.counters, &mut self.histograms, at, &ev);
        if matches!(ev, Event::RunEnd) {
            self.ended = true;
        }
        if self
            .chunks
            .last()
            .is_none_or(|c| c.len() == SEED_ARENA_CHUNK)
        {
            self.chunks.push(Vec::with_capacity(SEED_ARENA_CHUNK));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push((at, ev));
        }
    }

    fn events_len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }
}

/// The tally a recording observer folds per event (replicated over the
/// public counter/histogram fields; `ehsim_obs` keeps its own private).
fn seed_tally(counters: &mut ObsCounters, histograms: &mut ObsHistograms, at: Ps, ev: &Event) {
    match *ev {
        Event::PowerOn { .. } => counters.power_ons += 1,
        Event::OutageBegin { on_ps, .. } => {
            counters.outages += 1;
            histograms.outage_interval_ps.record(on_ps);
        }
        Event::CheckpointBegin { .. } => counters.checkpoints += 1,
        Event::CheckpointEnd { flushed_lines } => {
            histograms.dirty_at_checkpoint.record(flushed_lines);
        }
        Event::Reconfigure { .. } => counters.reconfigurations += 1,
        Event::DynRaise { .. } => counters.dyn_raises += 1,
        Event::DqEnqueue { .. } => counters.dq_enqueues += 1,
        Event::DqAck { .. } => counters.dq_acks += 1,
        Event::DqStall { .. } => counters.dq_stalls += 1,
        Event::DqStaleDrop { dropped } => counters.stale_drops += dropped as u64,
        Event::WritebackIssued { ack_at, .. } => {
            counters.writebacks_issued += 1;
            histograms
                .writeback_latency_ps
                .record(ack_at.saturating_sub(at));
        }
        Event::VoltageCross { .. } => counters.voltage_crossings += 1,
        Event::VoltageSample { .. } => counters.voltage_samples += 1,
        Event::EnergySample { .. } => counters.energy_samples += 1,
        Event::InitialThresholds { .. }
        | Event::PowerOff
        | Event::RestoreBegin
        | Event::RestoreEnd
        | Event::RunEnd => {}
    }
}

/// One row of the per-event-kind emit-cost section.
struct EmitRow {
    kind: &'static str,
    events: u32,
    ns_seed: f64,
    ns_arena: f64,
    speedup: f64,
}

/// Measures the recording-observer emit path per event kind, pairing
/// the live arena-head [`Recorder`] against the [`SeedRecorder`]
/// replica inside the same window. `n` is large enough to cross many
/// arena-chunk boundaries, so chunk turnover is priced in; the tally
/// and the timeline append are both on the measured path, exactly as a
/// real recording run pays them.
fn run_emit_section(n: u32, reps: u32) -> Vec<EmitRow> {
    let kinds: [(&'static str, Event); 10] = [
        ("power-on", Event::PowerOn { interval: 3 }),
        (
            "outage-begin",
            Event::OutageBegin {
                on_ps: 12_345,
                voltage: 2.71,
            },
        ),
        (
            "checkpoint-begin",
            Event::CheckpointBegin { dirty_lines: 7 },
        ),
        ("checkpoint-end", Event::CheckpointEnd { flushed_lines: 5 }),
        ("dq-enqueue", Event::DqEnqueue { base: 0x40 }),
        ("dq-ack", Event::DqAck { base: 0x40 }),
        ("dq-stall", Event::DqStall { until: 99_999 }),
        (
            "writeback-issued",
            Event::WritebackIssued {
                base: 0x80,
                ack_at: 77_777,
            },
        ),
        (
            "voltage-cross",
            Event::VoltageCross {
                rail: Rail::Vbackup,
                rising: false,
            },
        ),
        (
            "energy-sample",
            Event::EnergySample {
                harvested_pj: 1.5,
                consumed_pj: 1.25,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (kind, ev) in kinds {
        let mut best_arena = f64::INFINITY;
        let mut best_seed = f64::INFINITY;
        for _ in 0..reps {
            // Paired within the repetition: arena then seed under the
            // same scheduler/frequency conditions.
            {
                let _t = telemetry::scope(Phase::ObserverEmit);
                let mut r = Recorder::default();
                let t0 = Instant::now();
                for i in 0..n {
                    // black_box keeps the constant event kind from
                    // being const-propagated into either emit path
                    // (which would fold the tally match away and time
                    // an unrealistically specialised loop).
                    r.event(Ps::from(i), black_box(ev));
                }
                let dt = t0.elapsed().as_secs_f64();
                telemetry::profiler().add_ops(Phase::ObserverEmit, u64::from(n));
                assert_eq!(r.events_len(), n as usize);
                black_box(&r);
                best_arena = best_arena.min(dt);
            }
            {
                let mut s = SeedRecorder::default();
                let t0 = Instant::now();
                for i in 0..n {
                    s.event(Ps::from(i), black_box(ev));
                }
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(s.events_len(), n as usize);
                black_box(&s);
                best_seed = best_seed.min(dt);
            }
        }
        let ns_arena = best_arena * 1e9 / f64::from(n);
        let ns_seed = best_seed * 1e9 / f64::from(n);
        let speedup = ns_seed / ns_arena;
        eprintln!(
            "hotpath: emit {kind:<17} {ns_seed:>7.2} ns/event seed, {ns_arena:>7.2} arena \
             ({speedup:.2}x)"
        );
        rows.push(EmitRow {
            kind,
            events: n,
            ns_seed,
            ns_arena,
            speedup,
        });
    }
    rows
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    telemetry::enable();
    let (iters, mut reps) = if smoke { (200, 1) } else { (40_000, 3) };
    // More repetitions make the per-scenario best-of robust against
    // multi-second throughput drift on shared machines.
    if let Some(r) = std::env::var("EHSIM_HOTPATH_REPS")
        .ok()
        .and_then(|v| v.parse::<u32>().ok())
    {
        reps = r.max(1);
    }

    let mut scenarios = Vec::new();
    for cfg in SimConfig::all_designs() {
        for trace in [TraceKind::None, TraceKind::Rf1] {
            let cfg = cfg.clone().with_trace(trace);
            let design = cfg.design.label();
            let (instructions, wall) = run_scenario(&cfg, iters, reps);
            let ips = instructions as f64 / wall;
            eprintln!(
                "hotpath: {design:>9} / {:<10} {ips:>12.0} instr/s",
                trace.label()
            );
            scenarios.push(Scenario {
                design,
                trace: trace.label(),
                instructions,
                best_wall_s: wall,
                ips,
            });
        }
    }

    // Recording-observer overhead: the WL-Cache scenarios once more
    // with full event capture attached. Kept out of the aggregate —
    // this section quantifies the cost of *observing*, not the hot
    // path itself (which ships with the no-op observer).
    let mut recording = Vec::new();
    for trace in [TraceKind::None, TraceKind::Rf1] {
        let cfg = SimConfig::wl_cache().with_trace(trace);
        let design = cfg.design.label();
        let (instructions, wall, events) = run_recording_scenario(&cfg, iters, reps);
        let ips = instructions as f64 / wall;
        let noop_ips = scenarios
            .iter()
            .find(|s| s.design == design && s.trace == trace.label())
            .map(|s| s.ips)
            .unwrap_or(ips);
        let slowdown_pct = (noop_ips / ips - 1.0) * 100.0;
        eprintln!(
            "hotpath: {design:>9} / {:<10} {ips:>12.0} instr/s recording \
             ({events} events, {slowdown_pct:+.1} % vs no-op)",
            trace.label()
        );
        recording.push((design, trace.label(), events, ips, slowdown_pct));
    }

    // Per-event-kind emit cost: the recording observer's emit path
    // (tally + arena append) driven directly, paired same-window
    // against the seed chunk-list replica. Excluded from the
    // aggregate like the other auxiliary sections.
    let emit_n: u32 = if smoke { 4_096 } else { 256 * 1024 };
    let emit_rows = run_emit_section(emit_n, reps);

    let total_instr: u64 = scenarios.iter().map(|s| s.instructions).sum();
    let total_wall: f64 = scenarios.iter().map(|s| s.best_wall_s).sum();
    let aggregate = total_instr as f64 / total_wall;

    let baseline = std::env::var("EHSIM_HOTPATH_BASELINE_IPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok());
    let baseline_scenarios = std::env::var("EHSIM_HOTPATH_BASELINE_JSON")
        .ok()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .map(|t| parse_baseline_scenarios(&t))
        .filter(|v| !v.is_empty());
    let scenario_base = |s: &Scenario| -> Option<f64> {
        baseline_scenarios
            .as_ref()?
            .iter()
            .find_map(|(d, t, ips)| (d == s.design && t == s.trace).then_some(*ips))
    };

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"hotpath\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"iters_per_scenario\": {iters},");
    let _ = writeln!(json, "  \"instructions_per_iter\": {INSTR_PER_ITER},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(
        json,
        "  \"meta\": {},",
        telemetry::meta_json("  ", if smoke { "smoke" } else { "full" })
    );
    json.push_str("  \"scenarios\": [\n");
    for (i, s) in scenarios.iter().enumerate() {
        let sep = if i + 1 == scenarios.len() { "" } else { "," };
        let base_fields = match scenario_base(s) {
            Some(b) => format!(
                ", \"baseline_instructions_per_second\": {b:.1}, \"speedup\": {:.3}",
                s.ips / b
            ),
            None => String::new(),
        };
        let _ = writeln!(
            json,
            "    {{\"design\": \"{}\", \"trace\": \"{}\", \"instructions\": {}, \"best_wall_s\": {:.6}, \"instructions_per_second\": {:.1}{base_fields}}}{sep}",
            s.design, s.trace, s.instructions, s.best_wall_s, s.ips
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"recording_observer\": [\n");
    for (i, (design, trace, events, ips, slowdown)) in recording.iter().enumerate() {
        let sep = if i + 1 == recording.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"observed_design\": \"{design}\", \"observed_trace\": \"{trace}\", \"events\": {events}, \"ips_recording\": {ips:.1}, \"slowdown_vs_noop_pct\": {slowdown:.1}}}{sep}",
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"recording_emit\": [\n");
    for (i, r) in emit_rows.iter().enumerate() {
        let sep = if i + 1 == emit_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"kind\": \"{}\", \"events_per_rep\": {}, \"ns_per_event_seed\": {:.2}, \"ns_per_event_arena\": {:.2}, \"speedup\": {:.3}}}{sep}",
            r.kind, r.events, r.ns_seed, r.ns_arena, r.speedup
        );
    }
    json.push_str("  ],\n");
    if !emit_rows.is_empty() {
        let g =
            (emit_rows.iter().map(|r| r.speedup.ln()).sum::<f64>() / emit_rows.len() as f64).exp();
        let _ = writeln!(json, "  \"recording_emit_geomean_speedup\": {g:.3},");
        println!("hotpath: recording-emit geomean {g:.2}x vs seed path (same window)");
    }
    let speedups: Vec<f64> = scenarios
        .iter()
        .filter_map(|s| scenario_base(s).map(|b| s.ips / b))
        .collect();
    if !speedups.is_empty() {
        let geomean = (speedups.iter().map(|r| r.ln()).sum::<f64>() / speedups.len() as f64).exp();
        let _ = writeln!(json, "  \"geomean_speedup_vs_baseline\": {geomean:.3},");
        println!("hotpath: per-scenario geomean speedup {geomean:.2}x");
    }
    let _ = writeln!(json, "  \"total_instructions\": {total_instr},");
    let _ = writeln!(json, "  \"total_wall_s\": {total_wall:.6},");
    if let Some(base) = baseline {
        let _ = writeln!(
            json,
            "  \"aggregate_instructions_per_second\": {aggregate:.1},"
        );
        let _ = writeln!(json, "  \"baseline_instructions_per_second\": {base:.1},");
        let _ = writeln!(json, "  \"speedup_vs_baseline\": {:.3}", aggregate / base);
    } else {
        let _ = writeln!(
            json,
            "  \"aggregate_instructions_per_second\": {aggregate:.1}"
        );
    }
    json.push_str("}\n");

    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    println!("hotpath: aggregate {aggregate:.0} instr/s -> BENCH_hotpath.json");
    if let Some(base) = baseline {
        println!("hotpath: speedup vs baseline {:.2}x", aggregate / base);
    }
}
