//! Command-line driver for the WL-Cache energy-harvesting simulator.
//!
//! ```text
//! ehsim-cli run --workload sha --design wl --trace rf1 --verify
//! ehsim-cli compare --workload qsort --trace rf2
//! ehsim-cli list
//! ```
//!
//! [`VERBS`] and [`OPTIONS`] say which arguments each verb takes;
//! [`parse`] walks the command line against them, and [`usage`] is
//! rendered from them. The parser is hand-rolled (the workspace keeps
//! its dependency set to the offline-approved crates) and exposed from
//! this library so it can be tested; `src/main.rs` is a thin shell.

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
    /// Design selector (`run` and the plot verbs).
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

/// Every verb with its positional arguments, in usage order.
pub const VERBS: &[(&str, &[&str])] = &[
    ("run", &[]),
    ("compare", &[]),
    ("voltage-plot", &[]),
    ("dq-plot", &[]),
    ("energy-plot", &[]),
    ("diff-traces", &["<a.jsonl>", "<b.jsonl>"]),
    ("validate-trace", &["<path>"]),
    ("sweep", &[]),
    ("profile-sweep", &["<progress.jsonl>"]),
    ("list", &[]),
    ("help", &[]),
];

/// The verbs that simulate one workload.
const SIM: &[&str] = &["run", "compare", "voltage-plot", "dq-plot", "energy-plot"];

/// One option: its name, its value placeholder (empty for a switch)
/// and its help.
pub type Opt = (&'static str, &'static str, &'static str);

/// Every option, grouped by the verbs that take it. [`parse`] accepts
/// an option on its group's verbs and rejects it on every other, and
/// [`usage`] prints the groups in this order.
pub const OPTIONS: &[(&[&str], &[Opt])] = &[
    (
        &[
            "run",
            "compare",
            "voltage-plot",
            "dq-plot",
            "energy-plot",
            "sweep",
        ],
        &[("--scale", "<s>", "small | default (default: default)")],
    ),
    (
        SIM,
        &[
            ("--workload", "<name>", "one of the 23 kernels (see `list`)"),
            ("--trace", "<t>", "power trace (see `list`; default: none)"),
            ("--trace-file", "<path>", "`duration_us power_uw` lines"),
            ("--cache", "<bytes>", "cache size (default: 1024)"),
            ("--ways", "<n>", "associativity (default: 2)"),
            ("--maxline", "<n>", "static WL maxline, 1..8"),
            ("--dq-policy", "<p>", "fifo | lru (default: fifo)"),
            ("--adaptation", "<a>", "static | adaptive | dynamic"),
            ("--cache-policy", "<p>", "lru | fifo (default: lru)"),
            ("--capacitor-uf", "<f>", "capacitance in uF (default: 1.0)"),
            ("--verify", "", "oracle-check every checkpoint"),
        ],
    ),
    (
        &["run", "voltage-plot", "dq-plot", "energy-plot"],
        &[("--design", "<d>", "cache design (see `list`; default: wl)")],
    ),
    (
        &["run"],
        &[
            ("--trace-out", "<path>", "Chrome trace_event JSON timeline"),
            ("--metrics-out", "<path>", "per-power-interval metrics TSV"),
            ("--stream-out", "<path>", "JSONL capture (constant memory)"),
        ],
    ),
    (
        &["voltage-plot", "dq-plot", "energy-plot"],
        &[
            ("--tsv-out", "<path>", "the series as TSV"),
            ("--svg-out", "<path>", "the series as an SVG chart"),
        ],
    ),
    (
        &["sweep"],
        &[
            ("--figure", "<f>", "one table, repeatable (default: all)"),
            ("--progress-out", "<path>", "JSONL heartbeat per simulation"),
        ],
    ),
    (
        &["profile-sweep"],
        &[("--design-out", "<path>", "the per-design table as TSV")],
    ),
];

/// Usage text after the verbs and options.
const NOTES: &str = "
`diff-traces` reports the first diverging power-on interval of two
`--stream-out` captures. `--trace-out` (for chrome://tracing or
ui.perfetto.dev) and `--metrics-out` are write-only exports.

`sweep` regenerates `results/*.tsv` (`results/small/*.tsv` at
`--scale small`), one table per `--figure` (see DESIGN.md §3), and
`profile-sweep` turns its progress stream into a per-design table of
heartbeat times. Telemetry only observes. With
`EHSIM_RESULT_STORE=<dir>` set, each simulated report persists in a
content-addressed store, so a later sweep, even after `kill -9`, loads
it instead of re-simulating, and the summary gains a `store`
hits/misses/rejects line.
";

/// Usage text: every verb, then every option under the verbs that
/// take it.
pub fn usage() -> String {
    let mut s = String::from("ehsim-cli — WL-Cache energy-harvesting simulator\n\nUSAGE:\n");
    for &(verb, args) in VERBS {
        let options = OPTIONS.iter().any(|(verbs, _)| verbs.contains(&verb));
        let tail = if options { " [options]" } else { "" };
        let _ = writeln!(
            s,
            "  ehsim-cli {}{tail}",
            [&[verb], args].concat().join(" ")
        );
    }
    for &(verbs, rows) in OPTIONS {
        let _ = writeln!(s, "\nOPTIONS of {}:", verbs.join(", "));
        for &(name, value, help) in rows {
            let _ = writeln!(s, "  {:<22}{help}", format!("{name} {value}"));
        }
    }
    s.push_str("\nWL-Cache options by design (the others take none; `compare` gives\n");
    s.push_str("each row those it takes, and a maxline makes `wl` static):\n");
    for &(name, (_, takes)) in DESIGNS.iter().filter(|(_, (_, takes))| !takes.is_empty()) {
        let _ = writeln!(s, "  --design {name:<12}{}", takes.join(" "));
    }
    s + NOTES
}

/// The `sweep` summary's result-store line (printed only when
/// `EHSIM_RESULT_STORE` is set).
fn store_summary(st: &exec::ExecStats) -> String {
    format!(
        "store         {} hits / {} misses / {} rejects\n",
        st.store_hits, st.store_misses, st.store_rejects
    )
}

/// Where [`parse`] stores each option; the verb's command takes its
/// part at the end.
#[derive(Default)]
struct Parsed {
    run: RunOptions,
    tsv_out: Option<String>,
    svg_out: Option<String>,
    figures: Vec<String>,
    progress_out: Option<String>,
    design_out: Option<String>,
}

/// Stores `value` of the option `name` in `p`.
fn set(p: &mut Parsed, name: &str, value: &str) -> Result<(), String> {
    let (run, v) = (&mut p.run, value.to_string());
    match name {
        "--scale" => run.scale = *pick(name, value, SCALES)?,
        "--workload" => run.workload = v,
        "--trace" => run.trace = v,
        "--trace-file" => run.trace_file = Some(v),
        "--cache" => run.cache_bytes = number(name, value)?,
        "--ways" => run.ways = number(name, value)?,
        "--maxline" => run.maxline = Some(number(name, value)?),
        "--dq-policy" => run.dq_policy = Some(*pick(name, value, DQ_POLICIES)?),
        "--adaptation" => run.adaptation = Some(*pick(name, value, ADAPTATIONS)?),
        "--cache-policy" => run.cache_policy = *pick(name, value, CACHE_POLICIES)?,
        "--capacitor-uf" => run.capacitor_uf = number(name, value)?,
        "--verify" => run.verify = true,
        "--design" => run.design = v,
        "--trace-out" => run.trace_out = Some(v),
        "--metrics-out" => run.metrics_out = Some(v),
        "--stream-out" => run.stream_out = Some(v),
        "--tsv-out" => p.tsv_out = Some(v),
        "--svg-out" => p.svg_out = Some(v),
        "--figure" => p.figures.push(v),
        "--progress-out" => p.progress_out = Some(v),
        "--design-out" => p.design_out = Some(v),
        other => return Err(format!("unknown flag '{other}'")),
    }
    Ok(())
}

/// Parses a numeric option value.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

/// The value named `name` in `table`.
///
/// # Errors
///
/// Returns a message naming `flag` and every valid name.
fn pick<'a, T>(flag: &str, name: &str, table: &'a [(&str, T)]) -> Result<&'a T, String> {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, value)| value)
        .ok_or_else(|| {
            format!(
                "{flag}: unknown value '{name}'; one of: {}",
                names(table, ", ")
            )
        })
}

/// The names of `table`, joined by `sep`.
fn names<T>(table: &[(&str, T)], sep: &str) -> String {
    let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    names.join(sep)
}

const SCALES: &[(&str, Scale)] = &[("small", Scale::Small), ("default", Scale::Default)];
const DQ_POLICIES: &[(&str, DqPolicy)] = &[("fifo", DqPolicy::Fifo), ("lru", DqPolicy::Lru)];
const ADAPTATIONS: &[(&str, AdaptationMode)] = &[
    ("static", AdaptationMode::Static),
    ("adaptive", AdaptationMode::Adaptive),
    ("dynamic", AdaptationMode::Dynamic),
];
const CACHE_POLICIES: &[(&str, ReplacementPolicy)] = &[
    ("lru", ReplacementPolicy::Lru),
    ("fifo", ReplacementPolicy::Fifo),
];
const TRACES: &[(&str, TraceKind)] = &[
    ("none", TraceKind::None),
    ("rf1", TraceKind::Rf1),
    ("rf2", TraceKind::Rf2),
    ("rf3", TraceKind::Rf3),
    ("solar", TraceKind::Solar),
    ("thermal", TraceKind::Thermal),
];

/// The WL-Cache options, in the order `config_of` checks them.
const WL_FLAGS: [&str; 3] = ["--maxline", "--adaptation", "--dq-policy"];

/// A design's constructor and the [`WL_FLAGS`] it takes.
type Design = (fn() -> SimConfig, &'static [&'static str]);

/// Every `--design`, in `compare`'s row order. `config_of` rejects a
/// WL-Cache flag its design does not take, and `compare` drops it from
/// the rows that do not.
const DESIGNS: &[(&str, Design)] = &[
    ("nvsram", (SimConfig::nvsram, &[])),
    ("nvcache", (SimConfig::nvcache_wb, &[])),
    ("wt", (SimConfig::vcache_wt, &[])),
    ("replay", (SimConfig::replay, &[])),
    ("wl", (SimConfig::wl_cache, &WL_FLAGS)),
    ("wl-dyn", (SimConfig::wl_cache_dyn, &["--dq-policy"])),
    ("wbuf", (SimConfig::write_buffer, &[])),
];

/// Parses a command line (without the binary name) against [`VERBS`]
/// and [`OPTIONS`].
///
/// # Errors
///
/// Returns a human-readable message for an unknown command or flag, an
/// option the verb does not take, a missing or extra positional
/// argument, or a value the option cannot hold.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let verb = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => "help",
        Some(verb) => verb,
    };
    let Some(&(_, wants)) = VERBS.iter().find(|&&(name, _)| name == verb) else {
        return Err(format!("unknown command '{verb}' (try `help`)"));
    };
    let mut p = Parsed::default();
    let mut positional = Vec::new();
    let mut it = args.iter().skip(1);
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg.clone());
            continue;
        }
        let Some((verbs, placeholder)) = OPTIONS.iter().find_map(|&(verbs, rows)| {
            let row = rows.iter().find(|&&(name, ..)| name == arg);
            row.map(|&(_, placeholder, _)| (verbs, placeholder))
        }) else {
            return Err(format!("unknown flag '{arg}'"));
        };
        if !verbs.contains(&verb) {
            return Err(format!("{verb} does not take {arg}"));
        }
        let value = if placeholder.is_empty() {
            ""
        } else {
            it.next().ok_or_else(|| format!("{arg} needs a value"))?
        };
        set(&mut p, arg, value)?;
    }
    if let Some(extra) = positional.get(wants.len()) {
        return Err(format!("unexpected argument '{extra}' to {verb}"));
    }
    if let Some(missing) = wants.get(positional.len()) {
        return Err(format!("{verb} needs {missing}"));
    }
    let mut positional = positional.into_iter();
    let mut next = || positional.next().unwrap_or_default();
    let plot = |p: Parsed| PlotOptions {
        run: p.run,
        tsv_out: p.tsv_out,
        svg_out: p.svg_out,
    };
    Ok(match verb {
        "run" => Command::Run(p.run),
        "compare" => Command::Compare(p.run),
        "voltage-plot" => Command::VoltagePlot(plot(p)),
        "dq-plot" => Command::DqPlot(plot(p)),
        "energy-plot" => Command::EnergyPlot(plot(p)),
        "diff-traces" => Command::DiffTraces(next(), next()),
        "validate-trace" => Command::ValidateTrace(next()),
        "sweep" => Command::Sweep(SweepOptions {
            figures: p.figures,
            scale: p.run.scale,
            progress_out: p.progress_out,
        }),
        "profile-sweep" => Command::ProfileSweep(ProfileSweepOptions {
            input: next(),
            design_out: p.design_out,
        }),
        "list" => Command::List,
        _ => Command::Help,
    })
}

/// Builds the [`SimConfig`] described by `opt`.
///
/// # Errors
///
/// Returns a message for unknown designs/traces, a WL-Cache flag the
/// design would ignore (see `DESIGNS`; a maxline also fixes a static
/// WL-Cache), invalid thresholds, a cache layout the tag array cannot
/// hold, or a capacitance that is not positive and finite.
pub fn config_of(opt: &RunOptions) -> Result<SimConfig, String> {
    let &(base, takes) = pick("--design", &opt.design, DESIGNS)?;
    let given = [
        opt.maxline.is_some(),
        opt.adaptation.is_some(),
        opt.dq_policy.is_some(),
    ];
    for (flag, given) in WL_FLAGS.into_iter().zip(given) {
        if given && !takes.contains(&flag) {
            return Err(format!("{flag} does not apply to --design {}", opt.design));
        }
    }
    let mut cfg = base();
    if let DesignKind::Wl {
        thresholds,
        dq_policy,
        adaptation,
    } = &mut cfg.design
    {
        *dq_policy = opt.dq_policy.unwrap_or(*dq_policy);
        *adaptation = opt.adaptation.unwrap_or(*adaptation);
        if let Some(m) = opt.maxline {
            if let Some(a) = opt.adaptation.filter(|&a| a != AdaptationMode::Static) {
                return Err(format!(
                    "--adaptation {}: --maxline fixes a static WL-Cache",
                    a.label()
                ));
            }
            *thresholds = Thresholds::with_maxline(8, m).map_err(|e| e.to_string())?;
            *adaptation = AdaptationMode::Static;
        }
    }
    cfg.geometry = CacheGeometry::try_new(opt.cache_bytes, opt.ways, 64)
        .and_then(|g| TagArray::check(g).map(|()| g))
        .map_err(|e| format!("--cache {} --ways {}: {e}", opt.cache_bytes, opt.ways))?;
    Capacitor::check_capacitance(opt.capacitor_uf * 1e-6)
        .map_err(|e| format!("--capacitor-uf {}: {e}", opt.capacitor_uf))?;
    cfg.cache_policy = opt.cache_policy;
    cfg = cfg
        .with_trace(*pick("--trace", &opt.trace, TRACES)?)
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
/// `opt` that it takes.
///
/// # Errors
///
/// Returns [`config_of`]'s message for the first row it rejects.
fn compare_configs(opt: &RunOptions) -> Result<Vec<SimConfig>, String> {
    DESIGNS
        .iter()
        .map(|&(design, (_, takes))| {
            let [maxline, adaptation, dq_policy] = WL_FLAGS.map(|f| takes.contains(&f));
            config_of(&RunOptions {
                design: design.into(),
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

/// Writes a plot verb's series to its `--tsv-out` and `--svg-out`, as
/// `tsv` and `svg` render it (the chart titled with the run and
/// `what`), and notes each file under `label` in `s`.
fn write_plot(
    plot: &PlotOptions,
    r: &Report,
    (label, what): (&str, &str),
    tsv: impl FnOnce() -> String,
    svg: impl FnOnce(&str) -> String,
    s: &mut String,
) -> Result<(), String> {
    if let Some(path) = &plot.tsv_out {
        std::fs::write(path, tsv()).map_err(|e| format!("--tsv-out {path}: {e}"))?;
        let _ = writeln!(s, "{:<14}{path}", format!("{label} tsv"));
    }
    if let Some(path) = &plot.svg_out {
        let title = format!("{} / {} / {} — {what}", r.workload, r.design, r.trace);
        std::fs::write(path, svg(&title)).map_err(|e| format!("--svg-out {path}: {e}"))?;
        let _ = writeln!(s, "{:<14}{path}", format!("{label} svg"));
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
        Command::Help => Ok(usage()),
        Command::List => {
            let mut s = String::from("workloads:\n");
            for w in all23(Scale::Small) {
                let _ = writeln!(s, "  {}", w.name());
            }
            let _ = writeln!(s, "designs:\n  {}", names(DESIGNS, " "));
            let _ = writeln!(s, "traces:\n  {}", names(TRACES, " "));
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
            write_plot(
                plot,
                &r,
                ("voltage", "capacitor voltage"),
                || plot::voltage_tsv(&series),
                |title| plot::voltage_svg(&series, title, &rails),
                &mut s,
            )?;
            Ok(s)
        }
        Command::Sweep(opt) => {
            let mut chosen = Vec::new();
            for name in &opt.figures {
                chosen.push((name.as_str(), *pick("--figure", name, figures::ALL)?));
            }
            if chosen.is_empty() {
                chosen = figures::ALL.to_vec();
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
            write_plot(
                plot,
                &r,
                ("dq", "DirtyQueue occupancy"),
                || plot::dq_occupancy_tsv(&series),
                |title| plot::dq_occupancy_svg(&series, title),
                &mut s,
            )?;
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
            write_plot(
                plot,
                &r,
                ("energy", "per-interval energy"),
                || plot::energy_tsv(&series),
                |title| plot::energy_svg(&series, title),
                &mut s,
            )?;
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
        // Bare `sweep` selects every figure; `--all` is no flag.
        let Command::Sweep(opt) = parse(&argv("sweep")).unwrap() else {
            panic!("expected sweep");
        };
        assert!(opt.figures.is_empty());
        assert!(parse(&argv("sweep --all")).is_err());
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
        assert!(err.contains("--figure: unknown value 'nonesuch'"), "{err}");
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
