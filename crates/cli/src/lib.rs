//! Command-line driver for the WL-Cache energy-harvesting simulator.
//!
//! ```text
//! ehsim-cli run --workload sha --design wl --trace rf1 --verify
//! ehsim-cli compare --workload qsort --trace rf2
//! ehsim-cli list
//! ```
//!
//! The argument parser is hand-rolled (the workspace keeps its
//! dependency set to the offline-approved crates) and exposed from this
//! library so it can be unit-tested; `src/main.rs` is a thin shell.

mod plot;
mod profile;

use ehsim::{DesignKind, Report, SimConfig, Simulator};
use ehsim_bench::{exec, figures, telemetry};
use ehsim_cache::{CacheGeometry, ReplacementPolicy, TagArray};
use ehsim_energy::{Capacitor, TraceKind};
use ehsim_mem::Workload;
use ehsim_obs::RunTrace;
use ehsim_workloads::{all23, Scale};
use std::fmt::Write as _;
use std::path::Path;
use wl_cache::{AdaptationMode, DqPolicy, Thresholds};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one workload under one configuration.
    Run(RunOptions),
    /// Run one workload under every design and print a comparison.
    Compare(RunOptions),
    /// List available workloads, designs and traces.
    List,
    /// Structurally validate a Chrome trace JSON written by
    /// `--trace-out`.
    ValidateTrace(String),
    /// Diff two JSONL event captures (first diverging power-on
    /// interval).
    DiffTraces(String, String),
    /// Run one workload with voltage sampling and export the capacitor
    /// trajectory as TSV and/or SVG.
    VoltagePlot(PlotOptions),
    /// Regenerate paper figures through the shared sweep executor, with
    /// an optional per-sim progress stream.
    Sweep(SweepOptions),
    /// Load a progress stream (JSONL) and render the per-design table.
    ProfileSweep(ProfileSweepOptions),
    /// Run one workload with full recording and export the DirtyQueue
    /// occupancy over time as TSV and/or SVG.
    DqPlot(PlotOptions),
    /// Run one workload with full recording and export per-interval
    /// harvested/consumed energy as TSV and/or SVG.
    EnergyPlot(PlotOptions),
    /// Print usage.
    Help,
}

/// Options for `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOptions {
    /// Figure/table names to regenerate (empty means all of them).
    pub figures: Vec<String>,
    /// Workload scale for the sweep.
    pub scale: Scale,
    /// Stream one JSONL heartbeat per completed simulation (after the
    /// sweep metadata line) to this path.
    pub progress_out: Option<String>,
}

/// Options for `profile-sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSweepOptions {
    /// Input progress-stream path (JSONL; `sweep --progress-out` or
    /// `EHSIM_PROGRESS`).
    pub input: String,
    /// Write the per-design heartbeat aggregation as TSV here.
    pub design_out: Option<String>,
}

/// Options for `voltage-plot`: a normal run plus export destinations.
#[derive(Debug, Clone, PartialEq)]
pub struct PlotOptions {
    /// The run to sample (workload/design/trace flags as for `run`).
    pub run: RunOptions,
    /// Write the trajectory as two-column TSV here.
    pub tsv_out: Option<String>,
    /// Write the trajectory as a self-contained SVG chart here.
    pub svg_out: Option<String>,
}

/// Options shared by `run` and `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Workload label (paper figure name, e.g. `sha`).
    pub workload: String,
    /// Design selector (ignored by `compare`).
    pub design: String,
    /// Trace selector.
    pub trace: String,
    /// Path to a recorded trace file (overrides `trace`).
    pub trace_file: Option<String>,
    /// Workload scale.
    pub scale: Scale,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Set associativity.
    pub ways: u32,
    /// WL-Cache maxline (static configurations).
    pub maxline: Option<usize>,
    /// WL-Cache DirtyQueue replacement policy (default FIFO).
    pub dq_policy: Option<DqPolicy>,
    /// WL-Cache adaptation mode (default adaptive).
    pub adaptation: Option<AdaptationMode>,
    /// Cache replacement policy.
    pub cache_policy: ReplacementPolicy,
    /// Capacitor size in µF.
    pub capacitor_uf: f64,
    /// Verify crash consistency at every checkpoint.
    pub verify: bool,
    /// Write a Chrome `trace_event` JSON timeline here (`run` only).
    pub trace_out: Option<String>,
    /// Write per-power-interval metrics TSV here (`run` only).
    pub metrics_out: Option<String>,
    /// Stream events incrementally as JSON-lines to this path
    /// (`run` only; constant memory, unlike `--trace-out`).
    pub stream_out: Option<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            workload: "sha".into(),
            design: "wl".into(),
            trace: "none".into(),
            trace_file: None,
            scale: Scale::Default,
            cache_bytes: 1024,
            ways: 2,
            maxline: None,
            dq_policy: None,
            adaptation: None,
            cache_policy: ReplacementPolicy::Lru,
            capacitor_uf: 1.0,
            verify: false,
            trace_out: None,
            metrics_out: None,
            stream_out: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
ehsim-cli — WL-Cache energy-harvesting simulator

USAGE:
  ehsim-cli run     --workload <name> [--design <d>] [--trace <t>] [options]
  ehsim-cli compare --workload <name> [--trace <t>] [options]
  ehsim-cli voltage-plot --workload <name> [--tsv-out <p>] [--svg-out <p>] [options]
  ehsim-cli diff-traces <a.jsonl> <b.jsonl>
  ehsim-cli validate-trace <path>
  ehsim-cli sweep [--figure <f>]... [--scale <s>] [--progress-out <p.jsonl>]
  ehsim-cli profile-sweep <progress.jsonl> [--design-out <p>]
  ehsim-cli dq-plot --workload <name> [--tsv-out <p>] [--svg-out <p>] [options]
  ehsim-cli energy-plot --workload <name> [--tsv-out <p>] [--svg-out <p>] [options]
  ehsim-cli list
  ehsim-cli help

OPTIONS:
  --workload <name>     one of the 23 paper kernels (see `list`)
  --design <d>          wl | wl-dyn | nvsram | wt | nvcache | replay | wbuf
  --trace <t>           none | rf1 | rf2 | rf3 | solar | thermal
  --trace-file <path>   recorded trace file (duration_us power_uw lines)
  --scale <s>           small | default          (default: default)
  --cache <bytes>       cache size               (default: 1024)
  --ways <n>            associativity            (default: 2)
  --maxline <n>         static WL maxline 1..8   (default: adaptive)
  --dq-policy <p>       fifo | lru               (default: fifo)
  --adaptation <a>      static | adaptive | dynamic
  --cache-policy <p>    lru | fifo               (default: lru)
  --capacitor-uf <f>    capacitor size in uF     (default: 1.0)
  --verify              oracle-check every checkpoint
  --trace-out <path>    write a Chrome trace_event JSON timeline
                        (open in chrome://tracing or ui.perfetto.dev)
  --metrics-out <path>  write per-power-interval metrics as TSV
  --stream-out <path>   stream events as JSON-lines while running
                        (constant memory; the one capture format that
                        diff-traces loads; --trace-out and
                        --metrics-out are then derived from it)
  --tsv-out <path>      voltage-plot/dq-plot/energy-plot: write the
                        series as TSV
  --svg-out <path>      voltage-plot/dq-plot/energy-plot: write the
                        series as a self-contained SVG chart
  --figure <f>          sweep: one figure/table name (repeatable;
                        default: all of them — see DESIGN.md §3)
  --progress-out <path> sweep: stream one JSONL heartbeat per completed
                        simulation, after a metadata line
  --design-out <path>   profile-sweep: write the per-design table as TSV

`--maxline`, `--adaptation` and `--dq-policy` configure WL-Cache:
`wl` takes all three (a maxline makes it static, so `--adaptation`
may then only be `static`), `wl-dyn` takes `--dq-policy`, and the
other designs take none. `run` and the plot verbs reject a flag their
design does not take; `compare` applies each to the rows that take it.

`diff-traces` takes two JSONL event captures (`run --stream-out`) and
reports the first diverging power-on interval. Chrome JSON
(`--trace-out`) and the metrics TSV (`--metrics-out`) are write-only
exports.

`sweep` regenerates `results/*.tsv` (`results/small/*.tsv` at
`--scale small`) through the shared executor; `profile-sweep` turns
the progress stream back into the per-design table of heartbeat
times. Telemetry only observes:
the TSVs are byte-identical with or without it. With
`EHSIM_RESULT_STORE=<dir>` set, every executed simulation's report
persists to a content-addressed on-disk store, so a later sweep — even
after `kill -9` — loads it instead of re-simulating, and the summary
gains a `store` hits/misses/rejects line. Stored results are
byte-identical to direct execution.
";

/// The `sweep` summary's result-store line (printed only when
/// `EHSIM_RESULT_STORE` is set).
fn store_summary(st: &exec::ExecStats) -> String {
    format!(
        "store         {} hits / {} misses / {} rejects\n",
        st.store_hits, st.store_misses, st.store_rejects
    )
}

/// Parses a command line (without the binary name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, flags or
/// values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "validate-trace" => match args.get(1) {
            Some(path) => Ok(Command::ValidateTrace(path.clone())),
            None => Err("validate-trace needs a file path".into()),
        },
        "diff-traces" => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => Ok(Command::DiffTraces(a.clone(), b.clone())),
            _ => Err("diff-traces needs two trace paths".into()),
        },
        "sweep" => {
            let mut opt = SweepOptions {
                figures: Vec::new(),
                scale: Scale::Default,
                progress_out: None,
            };
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--figure" => opt.figures.push(value("--figure")?),
                    "--all" => opt.figures.clear(),
                    "--scale" => {
                        opt.scale = match value("--scale")?.as_str() {
                            "small" => Scale::Small,
                            "default" => Scale::Default,
                            other => return Err(format!("unknown scale '{other}'")),
                        }
                    }
                    "--progress-out" => opt.progress_out = Some(value("--progress-out")?),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            Ok(Command::Sweep(opt))
        }
        "profile-sweep" => {
            let Some(input) = args.get(1) else {
                return Err("profile-sweep needs a progress-stream path (JSONL)".into());
            };
            let mut opt = ProfileSweepOptions {
                input: input.clone(),
                design_out: None,
            };
            let mut it = args[2..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--design-out" => opt.design_out = Some(value("--design-out")?),
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            Ok(Command::ProfileSweep(opt))
        }
        "run" | "compare" | "voltage-plot" | "dq-plot" | "energy-plot" => {
            let mut opt = RunOptions::default();
            let is_plot = matches!(cmd.as_str(), "voltage-plot" | "dq-plot" | "energy-plot");
            let mut tsv_out = None;
            let mut svg_out = None;
            let mut it = args[1..].iter();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--workload" => opt.workload = value("--workload")?,
                    "--design" => opt.design = value("--design")?,
                    "--trace" => opt.trace = value("--trace")?,
                    "--trace-file" => opt.trace_file = Some(value("--trace-file")?),
                    "--scale" => {
                        opt.scale = match value("--scale")?.as_str() {
                            "small" => Scale::Small,
                            "default" => Scale::Default,
                            other => return Err(format!("unknown scale '{other}'")),
                        }
                    }
                    "--cache" => {
                        opt.cache_bytes = value("--cache")?
                            .parse()
                            .map_err(|e| format!("--cache: {e}"))?
                    }
                    "--ways" => {
                        opt.ways = value("--ways")?
                            .parse()
                            .map_err(|e| format!("--ways: {e}"))?
                    }
                    "--maxline" => {
                        opt.maxline = Some(
                            value("--maxline")?
                                .parse()
                                .map_err(|e| format!("--maxline: {e}"))?,
                        )
                    }
                    "--dq-policy" => {
                        opt.dq_policy = Some(match value("--dq-policy")?.as_str() {
                            "fifo" => DqPolicy::Fifo,
                            "lru" => DqPolicy::Lru,
                            other => return Err(format!("unknown DQ policy '{other}'")),
                        })
                    }
                    "--adaptation" => {
                        opt.adaptation = Some(match value("--adaptation")?.as_str() {
                            "static" => AdaptationMode::Static,
                            "adaptive" => AdaptationMode::Adaptive,
                            "dynamic" => AdaptationMode::Dynamic,
                            other => return Err(format!("unknown adaptation '{other}'")),
                        })
                    }
                    "--cache-policy" => {
                        opt.cache_policy = match value("--cache-policy")?.as_str() {
                            "lru" => ReplacementPolicy::Lru,
                            "fifo" => ReplacementPolicy::Fifo,
                            other => return Err(format!("unknown cache policy '{other}'")),
                        }
                    }
                    "--capacitor-uf" => {
                        opt.capacitor_uf = value("--capacitor-uf")?
                            .parse()
                            .map_err(|e| format!("--capacitor-uf: {e}"))?
                    }
                    "--verify" => opt.verify = true,
                    "--trace-out" => opt.trace_out = Some(value("--trace-out")?),
                    "--metrics-out" => opt.metrics_out = Some(value("--metrics-out")?),
                    "--stream-out" => opt.stream_out = Some(value("--stream-out")?),
                    "--tsv-out" if is_plot => {
                        tsv_out = Some(value("--tsv-out")?);
                    }
                    "--svg-out" if is_plot => {
                        svg_out = Some(value("--svg-out")?);
                    }
                    other => return Err(format!("unknown flag '{other}'")),
                }
            }
            match cmd.as_str() {
                "run" => Ok(Command::Run(opt)),
                "compare" => Ok(Command::Compare(opt)),
                plot => {
                    let p = PlotOptions {
                        run: opt,
                        tsv_out,
                        svg_out,
                    };
                    Ok(match plot {
                        "dq-plot" => Command::DqPlot(p),
                        "energy-plot" => Command::EnergyPlot(p),
                        _ => Command::VoltagePlot(p),
                    })
                }
            }
        }
        other => Err(format!("unknown command '{other}' (try `help`)")),
    }
}

/// Resolves a trace selector.
///
/// # Errors
///
/// Returns a message listing the valid selectors.
pub fn trace_of(name: &str) -> Result<TraceKind, String> {
    Ok(match name {
        "none" => TraceKind::None,
        "rf1" => TraceKind::Rf1,
        "rf2" => TraceKind::Rf2,
        "rf3" => TraceKind::Rf3,
        "solar" => TraceKind::Solar,
        "thermal" => TraceKind::Thermal,
        other => {
            return Err(format!(
                "unknown trace '{other}' (none|rf1|rf2|rf3|solar|thermal)"
            ))
        }
    })
}

/// Which of the WL-Cache flags `--maxline`, `--adaptation` and
/// `--dq-policy` `design` takes, in that order: `wl` takes all three,
/// `wl-dyn` the DQ policy only, every other design none. [`config_of`]
/// rejects a flag its design does not take, and `compare` drops it from
/// the rows that do not.
fn wl_flags(design: &str) -> [bool; 3] {
    match design {
        "wl" => [true; 3],
        "wl-dyn" => [false, false, true],
        _ => [false; 3],
    }
}

/// Builds the [`SimConfig`] described by `opt`.
///
/// # Errors
///
/// Returns a message for unknown designs/traces, a WL-Cache flag the
/// design would ignore (see `wl_flags`; a maxline also fixes a static
/// WL-Cache), invalid thresholds, a cache layout the tag array cannot
/// hold, or a capacitance that is not positive and finite.
pub fn config_of(opt: &RunOptions) -> Result<SimConfig, String> {
    let dq_policy = opt.dq_policy.unwrap_or_default();
    let design = match opt.design.as_str() {
        "wl" => {
            let (thresholds, adaptation) = match (opt.maxline, opt.adaptation) {
                (None, adaptation) => (Thresholds::paper_default(), adaptation.unwrap_or_default()),
                (Some(m), None | Some(AdaptationMode::Static)) => (
                    Thresholds::with_maxline(8, m).map_err(|e| e.to_string())?,
                    AdaptationMode::Static,
                ),
                (Some(_), Some(a)) => {
                    return Err(format!(
                        "--adaptation {}: --maxline fixes a static WL-Cache",
                        a.label()
                    ))
                }
            };
            DesignKind::Wl {
                thresholds,
                dq_policy,
                adaptation,
            }
        }
        "wl-dyn" => DesignKind::Wl {
            thresholds: Thresholds::paper_default(),
            dq_policy,
            adaptation: AdaptationMode::Dynamic,
        },
        "nvsram" => DesignKind::NvSram,
        "wt" => DesignKind::VCacheWt,
        "nvcache" => DesignKind::NvCacheWb,
        "replay" => DesignKind::Replay { region_instrs: 64 },
        "wbuf" => DesignKind::WBuf { capacity: 6 },
        other => return Err(format!("unknown design '{other}'")),
    };
    let given = [
        ("--maxline", opt.maxline.is_some()),
        ("--adaptation", opt.adaptation.is_some()),
        ("--dq-policy", opt.dq_policy.is_some()),
    ];
    for ((flag, given), takes) in given.into_iter().zip(wl_flags(&opt.design)) {
        if given && !takes {
            return Err(format!("{flag} does not apply to --design {}", opt.design));
        }
    }
    let geometry = CacheGeometry::try_new(opt.cache_bytes, opt.ways, 64)
        .and_then(|g| TagArray::check(g).map(|()| g))
        .map_err(|e| format!("--cache {} --ways {}: {e}", opt.cache_bytes, opt.ways))?;
    Capacitor::check_capacitance(opt.capacitor_uf * 1e-6)
        .map_err(|e| format!("--capacitor-uf {}: {e}", opt.capacitor_uf))?;
    let mut cfg = SimConfig::wl_cache();
    cfg.design = design;
    cfg.geometry = geometry;
    cfg.cache_policy = opt.cache_policy;
    cfg = cfg
        .with_trace(trace_of(&opt.trace)?)
        .with_capacitor_uf(opt.capacitor_uf);
    if let Some(path) = &opt.trace_file {
        let trace =
            ehsim_energy::load_trace(path).map_err(|e| format!("--trace-file {path}: {e}"))?;
        cfg = cfg.with_custom_trace(trace);
    }
    if opt.verify {
        cfg = cfg.with_verify();
    }
    Ok(cfg)
}

/// `compare`'s rows: every design, each with the WL-Cache flags of
/// `opt` that it takes (`wl_flags`).
///
/// # Errors
///
/// Returns [`config_of`]'s message for the first row it rejects.
fn compare_configs(opt: &RunOptions) -> Result<Vec<SimConfig>, String> {
    let designs = ["nvsram", "nvcache", "wt", "replay", "wl", "wl-dyn", "wbuf"];
    designs
        .into_iter()
        .map(|d| {
            let [maxline, adaptation, dq_policy] = wl_flags(d);
            config_of(&RunOptions {
                design: d.into(),
                maxline: opt.maxline.filter(|_| maxline),
                adaptation: opt.adaptation.filter(|_| adaptation),
                dq_policy: opt.dq_policy.filter(|_| dq_policy),
                ..opt.clone()
            })
        })
        .collect()
}

/// Finds a workload by its figure label.
///
/// # Errors
///
/// Returns a message listing valid names.
pub fn workload_of(name: &str, scale: Scale) -> Result<Box<dyn Workload>, String> {
    all23(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| {
            let names: Vec<String> = all23(Scale::Small)
                .iter()
                .map(|w| w.name().to_string())
                .collect();
            format!("unknown workload '{name}'; one of: {}", names.join(", "))
        })
}

/// Renders one report as a human-readable block.
pub fn render_report(r: &Report) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "workload      {}", r.workload);
    let _ = writeln!(s, "design        {}", r.design);
    let _ = writeln!(s, "trace         {}", r.trace);
    let _ = writeln!(s, "time          {:.3} ms", r.total_seconds() * 1e3);
    let _ = writeln!(
        s,
        "  on / off    {:.3} / {:.3} ms",
        r.on_time_ps as f64 / 1e9,
        r.off_time_ps as f64 / 1e9
    );
    let _ = writeln!(s, "outages       {}", r.outages);
    let _ = writeln!(s, "instructions  {}", r.instructions);
    let _ = writeln!(s, "hit rate      {:.2} %", r.cache.hit_rate() * 100.0);
    let _ = writeln!(s, "NVM writes    {} B", r.cache.nvm_write_bytes);
    let _ = writeln!(s, "energy        {:.2} uJ", r.energy.total() / 1e6);
    let _ = writeln!(s, "checksum      {:#018x}", r.checksum);
    if let Some(wl) = &r.wl {
        let _ = writeln!(
            s,
            "WL            maxline {}..{}, {} reconfigs, {} stalls \
             ({:.3} % of total time, {:.3} % of on-time)",
            wl.maxline_min,
            wl.maxline_max,
            wl.reconfigurations,
            wl.stalls,
            wl.stall_fraction * 100.0,
            wl.stall_fraction_on * 100.0
        );
    }
    s
}

/// Runs `opt` with the full recording observer, so the plot series the
/// caller derives reconcile bit-for-bit with the live recorder's
/// counters.
fn recorded_run(opt: &RunOptions) -> Result<(Report, RunTrace), String> {
    let cfg = config_of(opt)?;
    let w = workload_of(&opt.workload, opt.scale)?;
    Simulator::new(cfg)
        .run_traced(w.as_ref())
        .map_err(|e| e.to_string())
}

/// Writes `run`'s `--trace-out`/`--metrics-out` exports of `trace`,
/// appending one summary line per file to `s`.
fn write_exports(
    opt: &RunOptions,
    r: &Report,
    trace: &RunTrace,
    s: &mut String,
) -> Result<(), String> {
    if let Some(path) = &opt.trace_out {
        let name = format!("{} / {} / {}", r.workload, r.design, r.trace);
        std::fs::write(path, trace.chrome_trace(&name))
            .map_err(|e| format!("--trace-out {path}: {e}"))?;
        let _ = writeln!(s, "trace         {path} ({} events)", trace.events.len());
    }
    if let Some(path) = &opt.metrics_out {
        std::fs::write(path, trace.interval_metrics_tsv())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
        let _ = writeln!(s, "metrics       {path}");
    }
    Ok(())
}

/// Executes a parsed command, returning the text to print.
///
/// # Errors
///
/// Returns a message for configuration or simulation failures.
pub fn execute(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::List => {
            let mut s = String::from("workloads:\n");
            for w in all23(Scale::Small) {
                let _ = writeln!(s, "  {}", w.name());
            }
            s.push_str("designs:\n  wl wl-dyn nvsram wt nvcache replay wbuf\n");
            s.push_str("traces:\n  none rf1 rf2 rf3 solar thermal\n");
            Ok(s)
        }
        Command::ValidateTrace(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let check = ehsim_obs::validate_chrome_trace(&text)
                .map_err(|e| format!("{path}: invalid trace: {e}"))?;
            Ok(format!(
                "{path}: valid ({} events: {} spans, {} slices, {} instants, {} counter samples)\n",
                check.events, check.spans, check.complete, check.instants, check.counters
            ))
        }
        Command::Run(opt) => {
            let cfg = config_of(opt)?;
            let w = workload_of(&opt.workload, opt.scale)?;
            let sim = Simulator::new(cfg);
            if let Some(stream_path) = &opt.stream_out {
                let obs = ehsim_obs::StreamingObserver::to_path(std::path::Path::new(stream_path))
                    .map_err(|e| format!("--stream-out {stream_path}: {e}"))?;
                let stats = obs.stats_handle();
                let (r, _machine) = sim
                    .run_with(w.as_ref(), ehsim_obs::ObserverBox::custom(obs))
                    .map_err(|e| e.to_string())?;
                let mut s = render_report(&r);
                let snap = stats
                    .lock()
                    .map_err(|_| "stream stats poisoned".to_string())?
                    .clone();
                if let Some(err) = &snap.io_error {
                    return Err(format!("--stream-out {stream_path}: {err}"));
                }
                let _ = writeln!(
                    s,
                    "stream        {stream_path} ({} events, peak buffer {})",
                    snap.events, snap.peak_buffered
                );
                // Chrome/TSV exports are derived from the streamed
                // capture itself, proving the JSONL is self-sufficient.
                if opt.trace_out.is_some() || opt.metrics_out.is_some() {
                    let trace = RunTrace::load(stream_path)?;
                    write_exports(opt, &r, &trace, &mut s)?;
                }
                return Ok(s);
            }
            let observe = opt.trace_out.is_some() || opt.metrics_out.is_some();
            if !observe {
                let r = sim.run(w.as_ref()).map_err(|e| e.to_string())?;
                return Ok(render_report(&r));
            }
            let (r, trace) = sim.run_traced(w.as_ref()).map_err(|e| e.to_string())?;
            let mut s = render_report(&r);
            write_exports(opt, &r, &trace, &mut s)?;
            Ok(s)
        }
        Command::DiffTraces(a_path, b_path) => {
            let a = RunTrace::load(a_path)?;
            let b = RunTrace::load(b_path)?;
            let report = ehsim_obs::diff_runs(&a, a_path, &b, b_path);
            Ok(ehsim_obs::render_diff(&report, &a, &b))
        }
        Command::VoltagePlot(plot) => {
            let opt = &plot.run;
            let cfg = config_of(opt)?;
            let w = workload_of(&opt.workload, opt.scale)?;
            let (r, mut machine) = Simulator::new(cfg)
                .run_with(w.as_ref(), ehsim_obs::ObserverBox::recording_sampled())
                .map_err(|e| e.to_string())?;
            let th = machine.voltage_thresholds();
            let rails = [
                (th.v_on, "Von"),
                (th.v_backup, "Vbackup"),
                (th.v_min, "Vmin"),
            ];
            let end = machine.now();
            let trace = machine.take_observer().into_trace(end);
            let series = trace.voltage_series();
            let mut s = render_report(&r);
            let _ = writeln!(s, "samples       {} voltage points", series.len());
            if let Some(path) = &plot.tsv_out {
                std::fs::write(path, plot::voltage_tsv(&series))
                    .map_err(|e| format!("--tsv-out {path}: {e}"))?;
                let _ = writeln!(s, "voltage tsv   {path}");
            }
            if let Some(path) = &plot.svg_out {
                let title = format!(
                    "{} / {} / {} — capacitor voltage",
                    r.workload, r.design, r.trace
                );
                std::fs::write(path, plot::voltage_svg(&series, &title, &rails))
                    .map_err(|e| format!("--svg-out {path}: {e}"))?;
                let _ = writeln!(s, "voltage svg   {path}");
            }
            Ok(s)
        }
        Command::Sweep(opt) => {
            let mut chosen: Vec<(&str, figures::FigureFn)> = Vec::new();
            if opt.figures.is_empty() {
                chosen.extend(figures::ALL.iter().copied());
            } else {
                for name in &opt.figures {
                    let Some(&entry) = figures::ALL.iter().find(|(n, _)| n == name) else {
                        let names: Vec<&str> = figures::ALL.iter().map(|&(n, _)| n).collect();
                        return Err(format!(
                            "unknown figure '{name}'; one of: {}",
                            names.join(", ")
                        ));
                    };
                    chosen.push(entry);
                }
            }
            if let Some(path) = &opt.progress_out {
                telemetry::init_progress_path(Path::new(path))
                    .map_err(|e| format!("--progress-out {path}: {e}"))?;
            }
            let run = figures::sweep(&chosen, opt.scale);
            let mut s = String::new();
            let _ = writeln!(
                s,
                "figures       {} regenerated under {}/",
                chosen.len(),
                figures::results_dir(opt.scale)
            );
            let _ = writeln!(s, "wall          {:.3} s", run.wall_ns as f64 / 1e9);
            let _ = writeln!(
                s,
                "sims          {} run, {} memoized",
                run.stats.sims_run, run.stats.memo_hits
            );
            if exec::result_store_enabled() {
                s.push_str(&store_summary(&run.stats));
            }
            if let Some(path) = &opt.progress_out {
                let _ = writeln!(s, "progress      {path} (read back with `profile-sweep`)");
            }
            Ok(s)
        }
        Command::ProfileSweep(ps) => {
            let log = profile::load_progress_log(&ps.input)?;
            let mut s = String::new();
            if let Some(meta) = &log.meta {
                let _ = writeln!(
                    s,
                    "meta          {} host cores, {} jobs, engine {}, rev {}, scale {}",
                    meta.host_cores, meta.jobs, meta.engine, meta.git_rev, meta.scale
                );
            }
            let _ = writeln!(
                s,
                "heartbeats    {} sims ({} unparseable lines skipped)",
                log.heartbeats.len(),
                log.skipped
            );
            s.push('\n');
            s.push_str(&profile::design_table_tsv(&log));
            if let Some(path) = &ps.design_out {
                std::fs::write(path, profile::design_table_tsv(&log))
                    .map_err(|e| format!("--design-out {path}: {e}"))?;
                let _ = writeln!(s, "design tsv    {path}");
            }
            Ok(s)
        }
        Command::DqPlot(plot) => {
            let (r, run) = recorded_run(&plot.run)?;
            let series = ehsim_obs::dq_occupancy(&run);
            let c = &run.counters;
            let expected = c.dq_enqueues as i64 - c.dq_acks as i64 - c.stale_drops as i64;
            let final_depth = series.last().map(|&(_, d)| d).unwrap_or(0);
            if final_depth != expected {
                return Err(format!(
                    "occupancy series diverges from recorder tallies: \
                     final depth {final_depth}, counters say {expected}"
                ));
            }
            let mut s = render_report(&r);
            let _ = writeln!(
                s,
                "dq series     {} points, final depth {final_depth} \
                 (reconciled with recorder counters)",
                series.len()
            );
            if let Some(path) = &plot.tsv_out {
                std::fs::write(path, plot::dq_occupancy_tsv(&series))
                    .map_err(|e| format!("--tsv-out {path}: {e}"))?;
                let _ = writeln!(s, "dq tsv        {path}");
            }
            if let Some(path) = &plot.svg_out {
                let title = format!(
                    "{} / {} / {} — DirtyQueue occupancy",
                    r.workload, r.design, r.trace
                );
                std::fs::write(path, plot::dq_occupancy_svg(&series, &title))
                    .map_err(|e| format!("--svg-out {path}: {e}"))?;
                let _ = writeln!(s, "dq svg        {path}");
            }
            Ok(s)
        }
        Command::EnergyPlot(plot) => {
            let (r, run) = recorded_run(&plot.run)?;
            let series = ehsim_obs::energy_series(&run);
            let mut s = render_report(&r);
            let _ = writeln!(
                s,
                "energy series {} power-on intervals with exact pJ deltas",
                series.len()
            );
            if let Some(path) = &plot.tsv_out {
                std::fs::write(path, plot::energy_tsv(&series))
                    .map_err(|e| format!("--tsv-out {path}: {e}"))?;
                let _ = writeln!(s, "energy tsv    {path}");
            }
            if let Some(path) = &plot.svg_out {
                let title = format!(
                    "{} / {} / {} — per-interval energy",
                    r.workload, r.design, r.trace
                );
                std::fs::write(path, plot::energy_svg(&series, &title))
                    .map_err(|e| format!("--svg-out {path}: {e}"))?;
                let _ = writeln!(s, "energy svg    {path}");
            }
            Ok(s)
        }
        Command::Compare(opt) => {
            let w = workload_of(&opt.workload, opt.scale)?;
            let mut s = format!(
                "{:<15} {:>10} {:>8} {:>9} {:>11}\n",
                "design", "time(ms)", "outages", "hit(%)", "energy(uJ)"
            );
            for cfg in compare_configs(opt)? {
                let r = Simulator::new(cfg)
                    .run(w.as_ref())
                    .map_err(|e| e.to_string())?;
                let _ = writeln!(
                    s,
                    "{:<15} {:>10.3} {:>8} {:>9.2} {:>11.2}",
                    r.design,
                    r.total_seconds() * 1e3,
                    r.outages,
                    r.cache.hit_rate() * 100.0,
                    r.energy.total() / 1e6
                );
            }
            Ok(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&argv(
            "run --workload qsort --design nvsram --trace rf2 --cache 2048 \
             --ways 4 --capacitor-uf 0.5 --verify --scale small",
        ))
        .unwrap();
        let Command::Run(opt) = cmd else {
            panic!("expected run");
        };
        assert_eq!(opt.workload, "qsort");
        assert_eq!(opt.design, "nvsram");
        assert_eq!(opt.cache_bytes, 2048);
        assert_eq!(opt.ways, 4);
        assert_eq!(opt.capacitor_uf, 0.5);
        assert!(opt.verify);
        assert_eq!(opt.scale, Scale::Small);
    }

    #[test]
    fn rejects_unknown_flags_and_commands() {
        assert!(parse(&argv("run --bogus 1")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --cache")).is_err());
    }

    #[test]
    fn maxline_implies_static() {
        let Command::Run(opt) = parse(&argv("run --maxline 4")).unwrap() else {
            panic!()
        };
        let cfg = config_of(&opt).unwrap();
        match cfg.design {
            DesignKind::Wl {
                thresholds,
                adaptation,
                ..
            } => {
                assert_eq!(thresholds.maxline(), 4);
                assert_eq!(adaptation, AdaptationMode::Static);
            }
            _ => panic!("expected WL"),
        }
    }

    /// `run` and the plot verbs reject a WL-Cache flag their design
    /// would ignore, naming it; `compare` keeps what a row takes. Only
    /// `parse` and `config_of` run, so nothing is simulated.
    #[test]
    fn wl_flags_a_design_ignores_are_errors() {
        for (flags, needle) in [
            ("--design nvsram --maxline 3", "--maxline"),
            ("--design wt --adaptation dynamic", "--adaptation"),
            ("--design replay --dq-policy lru", "--dq-policy"),
            ("--design wl-dyn --maxline 3", "--maxline"),
            ("--design wl-dyn --adaptation static", "--adaptation"),
            (
                "--design wl --maxline 3 --adaptation adaptive",
                "--adaptation",
            ),
        ] {
            for verb in ["run", "voltage-plot", "dq-plot", "energy-plot"] {
                let line = format!("{verb} --workload sha --scale small {flags}");
                let opt = match parse(&argv(&line)).unwrap() {
                    Command::Run(opt) => opt,
                    Command::VoltagePlot(p) | Command::DqPlot(p) | Command::EnergyPlot(p) => p.run,
                    other => panic!("{line}: {other:?}"),
                };
                let err = config_of(&opt).expect_err(&line);
                assert!(err.contains(needle), "{line}: {err}");
            }
        }
        for flags in [
            "--design wl --maxline 3 --adaptation static --dq-policy lru",
            "--design wl --adaptation dynamic",
            "--design wl-dyn --dq-policy lru",
            "--design nvsram",
        ] {
            let line = format!("run --workload sha {flags}");
            let Command::Run(opt) = parse(&argv(&line)).unwrap() else {
                panic!("expected run");
            };
            assert!(config_of(&opt).is_ok(), "{line}");
        }
        let compare = |flags: &str| {
            let line = format!("compare --workload sha {flags}");
            let Command::Compare(opt) = parse(&argv(&line)).unwrap() else {
                panic!("expected compare");
            };
            compare_configs(&opt)
        };
        let rows = compare("--maxline 3 --dq-policy lru").unwrap();
        let wl: Vec<_> = rows
            .iter()
            .filter_map(|cfg| match cfg.design {
                DesignKind::Wl {
                    thresholds,
                    dq_policy,
                    adaptation,
                } => Some((thresholds.maxline(), dq_policy, adaptation)),
                _ => None,
            })
            .collect();
        assert_eq!(
            wl,
            [
                (3, DqPolicy::Lru, AdaptationMode::Static),
                (6, DqPolicy::Lru, AdaptationMode::Dynamic)
            ]
        );
        let err = compare("--maxline 3 --adaptation adaptive").unwrap_err();
        assert!(err.contains("--adaptation"), "{err}");
    }

    #[test]
    fn all_designs_resolve() {
        for d in ["wl", "wl-dyn", "nvsram", "wt", "nvcache", "replay", "wbuf"] {
            let opt = RunOptions {
                design: d.into(),
                ..Default::default()
            };
            assert!(config_of(&opt).is_ok(), "{d}");
        }
        let opt = RunOptions {
            design: "bogus".into(),
            ..Default::default()
        };
        assert!(config_of(&opt).is_err());
    }

    /// Cache and capacitor flags no machine can be built from are
    /// errors that name the flag, not panics. Only `config_of` runs, so
    /// no cache is allocated.
    #[test]
    fn invalid_cache_and_capacitor_flags_are_errors() {
        for (flags, needle) in [
            ("--ways 3", "multiple of ways * line_bytes"),
            ("--cache 1000", "multiple of ways * line_bytes"),
            (
                "--cache 4294967232 --ways 1",
                "set count must be a power of two",
            ),
            ("--ways 128 --cache 8192", "at most 64 ways"),
            ("--ways 0", "at least one way"),
            ("--ways 4294967295", "overflow 32 bits"),
            ("--capacitor-uf 0", "positive and finite"),
            ("--capacitor-uf -1", "positive and finite"),
            ("--capacitor-uf nan", "positive and finite"),
            ("--capacitor-uf inf", "positive and finite"),
        ] {
            let line = format!("run --workload sha --scale small {flags}");
            let Command::Run(opt) = parse(&argv(&line)).unwrap() else {
                panic!("expected run");
            };
            let err = config_of(&opt).expect_err(flags);
            let flag = flags.split_whitespace().next().unwrap();
            assert!(err.contains(flag), "{flags}: {err}");
            assert!(err.contains(needle), "{flags}: {err}");
        }
    }

    #[test]
    fn workload_lookup_by_figure_label() {
        assert!(workload_of("FFT_i", Scale::Small).is_ok());
        assert!(workload_of("nope", Scale::Small).is_err());
    }

    #[test]
    fn run_command_executes_end_to_end() {
        let cmd = parse(&argv("run --workload sha --scale small --trace rf1")).unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("checksum"), "{out}");
        assert!(out.contains("WL"), "{out}");
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse(&argv(
            "run --workload sha --trace-out /tmp/t.json --metrics-out /tmp/m.tsv",
        ))
        .unwrap();
        let Command::Run(opt) = cmd else {
            panic!("expected run");
        };
        assert_eq!(opt.trace_out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(opt.metrics_out.as_deref(), Some("/tmp/m.tsv"));
        assert!(parse(&argv("run --trace-out")).is_err());
    }

    #[test]
    fn run_with_trace_out_writes_valid_chrome_trace() {
        let dir = std::env::temp_dir();
        let trace_path = dir.join("ehsim_cli_test_trace.json");
        let metrics_path = dir.join("ehsim_cli_test_metrics.tsv");
        let cmd = parse(&argv(&format!(
            "run --workload sha --scale small --trace rf1 --trace-out {} --metrics-out {}",
            trace_path.display(),
            metrics_path.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("trace"), "{out}");
        let json = std::fs::read_to_string(&trace_path).unwrap();
        let check = ehsim_obs::validate_chrome_trace(&json).unwrap();
        assert!(check.events > 0);
        let tsv = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(tsv.starts_with("interval\t"), "{tsv}");
        // The validate-trace subcommand accepts what run just wrote.
        let out = execute(&Command::ValidateTrace(trace_path.display().to_string())).unwrap();
        assert!(out.contains("valid ("), "{out}");
        assert!(execute(&Command::ValidateTrace("/nonexistent.json".into())).is_err());
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&metrics_path);
    }

    #[test]
    fn parses_analysis_subcommands() {
        assert_eq!(
            parse(&argv("diff-traces a.json b.jsonl")).unwrap(),
            Command::DiffTraces("a.json".into(), "b.jsonl".into())
        );
        assert!(parse(&argv("diff-traces only-one")).is_err());
        let Command::VoltagePlot(plot) = parse(&argv(
            "voltage-plot --workload sha --trace rf1 --tsv-out v.tsv --svg-out v.svg",
        ))
        .unwrap() else {
            panic!("expected voltage-plot");
        };
        assert_eq!(plot.run.workload, "sha");
        assert_eq!(plot.tsv_out.as_deref(), Some("v.tsv"));
        assert_eq!(plot.svg_out.as_deref(), Some("v.svg"));
        // --tsv-out is voltage-plot-only.
        assert!(parse(&argv("run --tsv-out x.tsv")).is_err());
        let Command::Run(opt) = parse(&argv("run --stream-out t.jsonl")).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(opt.stream_out.as_deref(), Some("t.jsonl"));
    }

    #[test]
    fn stream_out_diff_and_convert_round_trip() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("ehsim_cli_test_stream.jsonl");
        let json = dir.join("ehsim_cli_test_stream.json");
        let cmd = parse(&argv(&format!(
            "run --workload sha --scale small --trace rf1 --stream-out {} --trace-out {}",
            jsonl.display(),
            json.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("stream"), "{out}");
        // A streamed run reports the same numbers as a plain run.
        let plain = execute(&parse(&argv("run --workload sha --scale small --trace rf1")).unwrap())
            .unwrap();
        for line in plain.lines() {
            assert!(out.contains(line), "missing line {line:?} in {out}");
        }
        // Self-diff of the streamed capture reports no divergence.
        let diff = execute(&Command::DiffTraces(
            jsonl.display().to_string(),
            jsonl.display().to_string(),
        ))
        .unwrap();
        assert!(diff.contains("no divergence"), "{diff}");
        // The Chrome JSON derived from the streamed capture validates.
        let check = execute(&Command::ValidateTrace(json.display().to_string())).unwrap();
        assert!(check.contains("valid ("), "{check}");
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(&json);
    }

    /// Chrome JSON and the metrics TSV are write-only exports:
    /// `diff-traces` refuses them and says where a capture comes from.
    #[test]
    fn exports_do_not_load_as_captures() {
        let dir = std::env::temp_dir();
        let json = dir.join("ehsim_cli_test_export.json");
        let tsv = dir.join("ehsim_cli_test_export.tsv");
        let cmd = parse(&argv(&format!(
            "run --workload sha --scale small --trace rf1 --trace-out {} --metrics-out {}",
            json.display(),
            tsv.display()
        )))
        .unwrap();
        execute(&cmd).unwrap();
        let expect_refusal = |err: String| {
            for needle in ["only JSONL captures load", "--stream-out"] {
                assert!(err.contains(needle), "{needle:?} missing from {err}");
            }
        };
        let (json, tsv) = (json.display().to_string(), tsv.display().to_string());
        expect_refusal(execute(&Command::DiffTraces(json.clone(), json.clone())).unwrap_err());
        expect_refusal(execute(&Command::DiffTraces(tsv.clone(), tsv.clone())).unwrap_err());
        for p in [&json, &tsv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn voltage_plot_writes_tsv_and_svg() {
        let dir = std::env::temp_dir();
        let tsv = dir.join("ehsim_cli_test_v.tsv");
        let svg = dir.join("ehsim_cli_test_v.svg");
        let cmd = parse(&argv(&format!(
            "voltage-plot --workload sha --scale small --trace rf1 --tsv-out {} --svg-out {}",
            tsv.display(),
            svg.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("voltage tsv"), "{out}");
        let tsv_text = std::fs::read_to_string(&tsv).unwrap();
        assert!(tsv_text.starts_with("t_ps\tvolts\n"), "{tsv_text}");
        assert!(
            tsv_text.lines().count() > 2,
            "sampled trajectory is non-trivial"
        );
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg "));
        assert!(svg_text.contains("Vbackup"), "rails overlaid");
        let _ = std::fs::remove_file(&tsv);
        let _ = std::fs::remove_file(&svg);
    }

    #[test]
    fn parses_telemetry_subcommands() {
        let Command::Sweep(opt) = parse(&argv(
            "sweep --figure fig04 --figure table1 --scale small --progress-out p.jsonl",
        ))
        .unwrap() else {
            panic!("expected sweep");
        };
        assert_eq!(opt.figures, vec!["fig04".to_string(), "table1".to_string()]);
        assert_eq!(opt.scale, Scale::Small);
        assert_eq!(opt.progress_out.as_deref(), Some("p.jsonl"));
        // Bare `sweep` (or `sweep --all`) selects every figure.
        let Command::Sweep(opt) = parse(&argv("sweep --all")).unwrap() else {
            panic!("expected sweep");
        };
        assert!(opt.figures.is_empty());
        assert!(parse(&argv("sweep --progress-out")).is_err());
        // The summary's result-store line.
        let st = exec::ExecStats {
            sims_run: 0,
            memo_hits: 0,
            simulated_instructions: 0,
            traces_recorded: 0,
            store_hits: 12,
            store_misses: 3,
            store_rejects: 1,
            lockstep_fallbacks: 0,
            lockstep_followers: 0,
            residency_followers: 0,
            settle_windows: 0,
        };
        assert_eq!(
            store_summary(&st),
            "store         12 hits / 3 misses / 1 rejects\n"
        );

        let Command::ProfileSweep(ps) =
            parse(&argv("profile-sweep p.jsonl --design-out d.tsv")).unwrap()
        else {
            panic!("expected profile-sweep");
        };
        assert_eq!(ps.input, "p.jsonl");
        assert_eq!(ps.design_out.as_deref(), Some("d.tsv"));
        assert!(parse(&argv("profile-sweep")).is_err());
        for retired in ["--tsv-out", "--svg-out"] {
            let line = format!("profile-sweep p.jsonl {retired} x");
            assert!(parse(&argv(&line)).is_err(), "{retired}");
        }

        let Command::DqPlot(plot) = parse(&argv(
            "dq-plot --workload sha --trace rf1 --tsv-out d.tsv --svg-out d.svg",
        ))
        .unwrap() else {
            panic!("expected dq-plot");
        };
        assert_eq!(plot.run.workload, "sha");
        assert_eq!(plot.tsv_out.as_deref(), Some("d.tsv"));
        let Command::EnergyPlot(plot) =
            parse(&argv("energy-plot --workload sha --svg-out e.svg")).unwrap()
        else {
            panic!("expected energy-plot");
        };
        assert_eq!(plot.svg_out.as_deref(), Some("e.svg"));
    }

    #[test]
    fn sweep_rejects_unknown_figures() {
        let cmd = parse(&argv("sweep --figure nonesuch")).unwrap();
        let err = execute(&cmd).unwrap_err();
        assert!(err.contains("unknown figure 'nonesuch'"), "{err}");
        assert!(err.contains("fig04"), "error lists valid names: {err}");
    }

    #[test]
    fn profile_sweep_renders_progress_stream() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("ehsim_cli_test_progress.jsonl");
        let tsv = dir.join("ehsim_cli_test_designs.tsv");
        let stream = "{\"kind\":\"meta\",\"host_cores\":4,\"jobs\":2,\"engine\":\"replay\",\
                      \"git_rev\":\"abc123\",\"scale\":\"small\"}\n\
                      {\"kind\":\"sim\",\"ordinal\":1,\"design\":\"WL-Cache\",\
                      \"trace\":\"tr.1(RF)\",\"workload\":\"sha\",\"engine\":\"replay\",\
                      \"elapsed_ns\":2000000,\"outages\":3,\"instructions\":100000,\
                      \"instr_per_s\":50000000}\n\
                      {\"kind\":\"profile\",\"wall_ns\":10000000,\"attributed_pct\":96.5,\
                      \"phases\":[{\"phase\":\"replay\",\"total_ns\":8000000,\
                      \"self_ns\":7000000,\"count\":2,\"ops\":0}],\"metrics\":{}}\n";
        std::fs::write(&jsonl, stream).unwrap();
        let cmd = parse(&argv(&format!(
            "profile-sweep {} --design-out {}",
            jsonl.display(),
            tsv.display()
        )))
        .unwrap();
        let out = execute(&cmd).unwrap();
        assert!(out.contains("engine replay"), "{out}");
        assert!(
            out.contains("1 sims (1 unparseable lines skipped)"),
            "{out}"
        );
        assert!(out.contains("WL-Cache\t1"), "{out}");
        let tsv_text = std::fs::read_to_string(&tsv).unwrap();
        assert!(tsv_text.starts_with("design\t"), "{tsv_text}");
        assert!(execute(&parse(&argv("profile-sweep /nonexistent.jsonl")).unwrap()).is_err());
        for p in [&jsonl, &tsv] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn dq_and_energy_plots_write_tsv_and_svg() {
        let dir = std::env::temp_dir();
        let dq_tsv = dir.join("ehsim_cli_test_dq.tsv");
        let dq_svg = dir.join("ehsim_cli_test_dq.svg");
        let out = execute(
            &parse(&argv(&format!(
                "dq-plot --workload sha --scale small --trace rf1 --tsv-out {} --svg-out {}",
                dq_tsv.display(),
                dq_svg.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(
            out.contains("reconciled with recorder counters"),
            "series cross-checked against tallies: {out}"
        );
        let tsv_text = std::fs::read_to_string(&dq_tsv).unwrap();
        assert!(tsv_text.starts_with("t_ps\tdepth\n"), "{tsv_text}");
        let svg_text = std::fs::read_to_string(&dq_svg).unwrap();
        assert!(svg_text.starts_with("<svg "), "{svg_text}");
        assert!(svg_text.contains("DirtyQueue occupancy"), "{svg_text}");

        let en_tsv = dir.join("ehsim_cli_test_energy.tsv");
        let en_svg = dir.join("ehsim_cli_test_energy.svg");
        let out = execute(
            &parse(&argv(&format!(
                "energy-plot --workload sha --scale small --trace rf1 --tsv-out {} --svg-out {}",
                en_tsv.display(),
                en_svg.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("energy series"), "{out}");
        let tsv_text = std::fs::read_to_string(&en_tsv).unwrap();
        assert!(tsv_text.starts_with("interval\t"), "{tsv_text}");
        let svg_text = std::fs::read_to_string(&en_svg).unwrap();
        assert!(svg_text.contains("harvested"), "{svg_text}");
        for p in [&dq_tsv, &dq_svg, &en_tsv, &en_svg] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn list_names_everything() {
        let out = execute(&Command::List).unwrap();
        assert!(out.contains("adpcmdecode"));
        assert!(out.contains("wbuf"));
        assert!(out.contains("thermal"));
    }
}
