//! Host-time benchmark of the WL-Cache simulator.
//!
//! ```text
//! perfbench --workload <figures-small|suite-nofail|suite-rf3|all>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed batch that runs in a fresh process, again
//! and again for about `--seconds`; the end-to-end metrics are medians
//! over those batches. `--trace 1` adds the per-layer passes of
//! [`layers`] and writes the recorded spans to
//! `.bench_out/spans-<workload>-seed<N>.jsonl`. Every batch is checked
//! (digests, kernel checksums, the committed Fig 4 table); the last line
//! of stdout is one JSON object, and any failed check makes the exit
//! code non-zero. See `perfbench/README.md` for the workloads and the
//! metric-to-layer map.

#![forbid(unsafe_code)]

mod checks;
mod child;
mod layers;
mod spans;
mod stats;

use checks::Power;
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;
use layers::Metric;
use spans::Spans;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Set-up runs at least this many times in one invocation, and again
/// until [`SETUP_MIN_S`] has passed; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// See [`SETUP_REPEATS`]: a set-up of a few milliseconds is repeated
/// enough times for its median to settle.
const SETUP_MIN_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    FiguresSmall,
    SuiteNofail,
    SuiteRf3,
}

const WORKLOADS: [(&str, Workload); 3] = [
    ("figures-small", Workload::FiguresSmall),
    ("suite-nofail", Workload::SuiteNofail),
    ("suite-rf3", Workload::SuiteRf3),
];

impl Workload {
    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |(n, _)| n)
    }

    fn scale(self) -> Scale {
        match self {
            Workload::FiguresSmall => Scale::Small,
            Workload::SuiteNofail | Workload::SuiteRf3 => Scale::Default,
        }
    }

    /// Arguments of the batch process.
    fn child_args(self, seed: u64) -> Vec<String> {
        let suite = |kind: &str| vec!["suite".into(), kind.into(), seed.to_string()];
        match self {
            Workload::FiguresSmall => vec!["figures".into()],
            Workload::SuiteNofail => suite("none"),
            Workload::SuiteRf3 => suite("rf3"),
        }
    }

    /// The report/table digest every batch must reproduce, where pinned.
    fn pinned_digest(self, seed: u64) -> Option<u64> {
        match self {
            Workload::FiguresSmall => Some(checks::FIGURES_SMALL_DIGEST),
            Workload::SuiteNofail => Some(checks::SUITE_NOFAIL_DIGEST),
            Workload::SuiteRf3 => {
                (seed == checks::DEFAULT_SEED).then_some(checks::SUITE_RF3_DIGEST)
            }
        }
    }

    /// The power input of the traced per-layer job list: the suites'
    /// own trace; tr.1 (the trace most figures use) for the Small sweep.
    fn layer_power(self, seed: u64) -> (Power, TraceKind) {
        let kind = match self {
            Workload::FiguresSmall => TraceKind::Rf1,
            Workload::SuiteNofail => TraceKind::None,
            Workload::SuiteRf3 => TraceKind::Rf3,
        };
        (Power::for_seed(kind, seed), kind)
    }
}

/// One call into the sweep executor, as a batch process reported it.
#[derive(Debug, Clone)]
struct Call {
    name: String,
    start_ns: u64,
    end_ns: u64,
    /// sims run, memo hits, traces recorded, instructions.
    d: [u64; 4],
}

/// One finished batch process.
#[derive(Debug, Default)]
struct Batch {
    wall_s: f64,
    calls: Vec<Call>,
    digest: Option<u64>,
    cks: Vec<(String, u64)>,
    gmeans: Vec<(String, f64)>,
    rss_kb: u64,
}

impl Batch {
    fn total(&self, i: usize) -> u64 {
        self.calls.iter().map(|c| c.d[i]).sum()
    }

    fn attempted(&self) -> u64 {
        self.total(0) + self.total(1)
    }

    fn parse(stdout: &str, wall_s: f64) -> Result<Batch, String> {
        let mut b = Batch {
            wall_s,
            ..Batch::default()
        };
        let bad = |l: &str| format!("malformed batch line `{l}`");
        for line in stdout.lines() {
            let Some(rest) = line.strip_prefix(child::TAG) else {
                continue;
            };
            let f: Vec<&str> = rest.split_whitespace().collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| bad(line))
            };
            match f.first().copied() {
                Some("call") => {
                    let mut d = [0; 4];
                    for (k, slot) in d.iter_mut().enumerate() {
                        *slot = num(4 + k)?;
                    }
                    b.calls.push(Call {
                        name: f.get(1).ok_or_else(|| bad(line))?.to_string(),
                        start_ns: num(2)?,
                        end_ns: num(3)?,
                        d,
                    });
                }
                Some("digest") => {
                    let v = f.get(1).ok_or_else(|| bad(line))?;
                    b.digest = Some(u64::from_str_radix(v, 16).map_err(|_| bad(line))?);
                }
                Some("ck") => b
                    .cks
                    .push((f.get(1).ok_or_else(|| bad(line))?.to_string(), num(2)?)),
                Some("gmean") => {
                    let v = f
                        .get(2)
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| bad(line))?;
                    b.gmeans
                        .push((f.get(1).ok_or_else(|| bad(line))?.to_string(), v));
                }
                Some("rss") => b.rss_kb = num(1)?,
                _ => return Err(bad(line)),
            }
        }
        if b.digest.is_none() || b.calls.is_empty() {
            return Err("batch process reported no result".into());
        }
        Ok(b)
    }
}

/// Pass/fail accounting: sims attempted and sims that failed a check.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, n: u64, note: String) {
        self.failed += n.max(1);
        self.notes.push(note);
    }
}

/// Everything one invocation shares.
struct Ctx {
    exe: PathBuf,
    work: PathBuf,
    jobs: usize,
    seed: u64,
    spans: Spans,
    tally: Tally,
    batch_no: u64,
}

impl Ctx {
    /// Runs one batch process and parses its report. The wall time runs
    /// from spawn to exit.
    fn batch(&mut self, args: &[String]) -> Result<Batch, String> {
        self.batch_no += 1;
        let job = self.batch_no;
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--child").args(args).current_dir(&self.work);
        for (k, _) in std::env::vars_os() {
            if k.to_string_lossy().starts_with("EHSIM_") {
                cmd.env_remove(k);
            }
        }
        cmd.env("EHSIM_JOBS", self.jobs.to_string());
        let span = self.spans.open("batch", job);
        let spawn_ns = self.spans.now_ns();
        let t = Instant::now();
        let out = cmd.output().map_err(|e| format!("spawn failed: {e}"))?;
        let wall_s = t.elapsed().as_secs_f64();
        if !out.status.success() {
            self.spans.close(span);
            let err = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = err.lines().rev().take(5).collect();
            return Err(format!("batch process failed ({}): {:?}", out.status, tail));
        }
        let b = Batch::parse(&String::from_utf8_lossy(&out.stdout), wall_s)?;
        for c in &b.calls {
            let name = format!("exec.{}", c.name);
            self.spans
                .add(&name, spawn_ns + c.start_ns, spawn_ns + c.end_ns, job);
        }
        self.spans.close(span);
        Ok(b)
    }
}

/// What a batch must reproduce.
struct Expect<'a> {
    digest: Option<u64>,
    goldens: &'a [(String, u64)],
    /// suite-nofail: the gmean(Total) column of `results/fig04.tsv`.
    fig04: Option<&'a [(String, String)]>,
}

/// Checks one batch and adds it to the tally.
fn check(tally: &mut Tally, b: &Batch, e: &Expect<'_>) {
    let attempted = b.attempted();
    tally.attempted += attempted;
    if let Some(want) = e.digest {
        if b.digest != Some(want) {
            tally.fail(
                attempted,
                format!("digest {:016x?} != pinned {want:016x}", b.digest),
            );
        }
    }
    let bad = checks::checksum_mismatches(&b.cks, e.goldens);
    if bad > 0 || b.cks.is_empty() {
        tally.fail(
            bad,
            format!("{bad} kernel checksums differ from the goldens"),
        );
    }
    if let Some(fig04) = e.fig04 {
        for (design, g) in &b.gmeans {
            let want = fig04.iter().find(|(d, _)| d == design).map(|(_, v)| v);
            if want != Some(&format!("{g:.3}")) {
                tally.fail(
                    23,
                    format!("{design} gmean(Total) {g:.3} != results/fig04.tsv {want:?}"),
                );
            }
        }
    }
}

/// A workload's metrics and its printed-only lines.
struct Outcome {
    metrics: Vec<Metric>,
    info: Vec<String>,
}

fn median(xs: &[f64]) -> f64 {
    stats::median(xs).unwrap_or(0.0)
}

fn run_workload(w: Workload, ctx: &mut Ctx, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let seed = ctx.seed;
    let mut info = Vec::new();
    let args = w.child_args(seed);

    // Set-up: the functional goldens and the committed Fig 4 table.
    let fig04 = if w == Workload::SuiteNofail {
        let text = std::fs::read_to_string("results/fig04.tsv")
            .map_err(|e| format!("results/fig04.tsv: {e}"))?;
        Some(checks::tsv_gmeans(&text))
    } else {
        None
    };
    let mut setups = Vec::new();
    let mut goldens = Vec::new();
    let setup_span = ctx.spans.open("setup", 0);
    let setup_t = Instant::now();
    while setups.len() < SETUP_REPEATS || setup_t.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t = Instant::now();
        goldens = ctx
            .spans
            .time("setup.goldens", 0, || checks::goldens(w.scale()));
        setups.push(t.elapsed().as_secs_f64());
    }
    ctx.spans.close(setup_span);

    // The timed region: fresh-process batches until the next one would
    // overrun `seconds` (at least one; two when tracing, to compare).
    let expect = Expect {
        digest: w.pinned_digest(seed),
        goldens: &goldens,
        fig04: fig04.as_deref(),
    };
    let min_batches = if trace { 2 } else { 1 };
    let mut batches: Vec<(Batch, bool)> = Vec::new();
    let t0 = Instant::now();
    loop {
        // When tracing, half the batches run with span recording off, for
        // the overhead comparison, in on-off-off-on order so that a steady
        // drift in host speed does not land on one side.
        let spans_on = trace && matches!(batches.len() % 4, 0 | 3);
        ctx.spans.set_enabled(spans_on);
        let res = ctx.batch(&args);
        ctx.spans.set_enabled(trace);
        let b = res?;
        check(&mut ctx.tally, &b, &expect);
        batches.push((b, spans_on));
        let walls: Vec<f64> = batches.iter().map(|(b, _)| b.wall_s).collect();
        let elapsed = t0.elapsed().as_secs_f64();
        if batches.len() >= min_batches && elapsed + median(&walls) > seconds {
            break;
        }
    }

    let walls: Vec<f64> = batches.iter().map(|(b, _)| b.wall_s).collect();
    let ips: Vec<f64> = batches
        .iter()
        .map(|(b, _)| b.total(3) as f64 / b.wall_s)
        .collect();
    let rss: Vec<f64> = batches
        .iter()
        .map(|(b, _)| b.rss_kb as f64 / 1024.0)
        .collect();
    let mut metrics: Vec<Metric> = vec![
        ("wall_s".into(), median(&walls), "s"),
        ("sim_ips".into(), median(&ips), "instr/s"),
        ("setup_s".into(), median(&setups), "s"),
        ("peak_rss_mb".into(), median(&rss), "MiB"),
    ];
    let tail = stats::tail(&walls).ok_or("no batches")?;
    info.push(format!(
        "batches {} (wall p50 {:.6} s, p{} {:.6} s over {} samples), jobs {}",
        walls.len(),
        median(&walls),
        tail.pct,
        tail.value,
        tail.n,
        ctx.jobs
    ));
    if let Some(fig04) = &fig04 {
        // paper_gap from the gmeans exactly as the table prints them.
        let last = &batches[batches.len() - 1].0;
        let rounded: Vec<(String, f64)> = last
            .gmeans
            .iter()
            .map(|(d, g)| (d.clone(), format!("{g:.3}").parse().unwrap_or(0.0)))
            .collect();
        let table: Vec<(String, f64)> = fig04
            .iter()
            .filter_map(|(d, v)| Some((d.clone(), v.parse().ok()?)))
            .collect();
        match (checks::paper_gap(&rounded), checks::paper_gap(&table)) {
            (Some(gap), Some(by_hand)) if gap == by_hand => {
                info.push(format!("paper_gap {gap:.6} ln (mean |ln(sim/paper)|, 4 designs; equals results/fig04.tsv)"));
            }
            other => ctx
                .tally
                .fail(1, format!("paper_gap mismatch (run, table) = {other:?}")),
        }
    }

    if trace {
        let (power, key_kind) = w.layer_power(seed);
        let cfgs = checks::suite_configs(&power);
        let exe = ctx.exe.clone();
        let work = ctx.work.clone();
        let input = layers::Input {
            scale: w.scale(),
            power: &power,
            key_kind,
            seed,
            cfgs,
            work: &work,
            exe: &exe,
        };
        let layers = layers::measure(&input, &mut ctx.spans)?;
        let rejects = layers
            .metrics
            .iter()
            .find(|(name, _, _)| name == "farm.rejects")
            .map_or(0.0, |m| m.1);
        if rejects > 0.0 {
            ctx.tally
                .fail(rejects as u64, format!("{rejects} result-store rejects"));
        }
        // Serial replay must reproduce the parallel batch bit for bit.
        if matches!(w, Workload::SuiteNofail | Workload::SuiteRf3) {
            let got = batches[0].0.digest;
            if got != Some(layers.replay_digest) {
                ctx.tally.fail(
                    1,
                    format!(
                        "serial replay digest {:016x} != batch {got:016x?}",
                        layers.replay_digest
                    ),
                );
            }
        }
        let first = &batches[0].0;
        let (sims, memo, traces) = (first.total(0), first.total(1), first.total(2));
        let mut per: Vec<Metric> = vec![
            ("exec.sims_run".into(), sims as f64, "count"),
            ("exec.memo_hits".into(), memo as f64, "count"),
            (
                "exec.memo_hit_ratio".into(),
                memo as f64 / (sims + memo).max(1) as f64,
                "ratio",
            ),
            ("exec.traces_recorded".into(), traces as f64, "count"),
        ];
        per.extend(layers.metrics);
        per.push(("batch.ms_tail".into(), tail.value * 1e3, "ms"));
        per.push(("batch.tail_pct".into(), tail.pct, "pct"));
        per.push(("batch.samples".into(), tail.n as f64, "count"));
        let on: Vec<f64> = batches.iter().filter(|b| b.1).map(|b| b.0.wall_s).collect();
        let off: Vec<f64> = batches
            .iter()
            .filter(|b| !b.1)
            .map(|b| b.0.wall_s)
            .collect();
        per.push((
            "trace.overhead_pct".into(),
            (median(&on) / median(&off) - 1.0) * 100.0,
            "%",
        ));
        metrics = per;
    }
    Ok(Outcome { metrics, info })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: checks::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> Result<String, String> {
    let mut parts = Vec::new();
    for (name, v, unit) in metrics {
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(a: &Args) -> Result<bool, String> {
    stats::self_test().map_err(|e| format!("statistics self-test failed: {e}"))?;
    let selected: Vec<Workload> = if a.workload == "all" {
        WORKLOADS.iter().map(|(_, w)| *w).collect()
    } else {
        let w = WORKLOADS
            .iter()
            .find(|(n, _)| *n == a.workload)
            .ok_or_else(|| format!("unknown workload {}", a.workload))?;
        vec![w.1]
    };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!(
        "run-{}-seed{}-{}",
        a.workload,
        a.seed,
        std::process::id()
    ));
    let work = std::fs::create_dir_all(&work)
        .and_then(|()| std::fs::canonicalize(&work))
        .map_err(|e| format!("{}: {e}", work.display()))?;
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2);
    let mut ctx = Ctx {
        exe,
        work: work.clone(),
        jobs,
        seed: a.seed,
        spans: Spans::new(a.trace),
        tally: Tally::default(),
        batch_no: 0,
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} jobs {} (nproc {})",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        jobs,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut all: Vec<Metric> = Vec::new();
    let mut result = Ok(());
    for w in &selected {
        match run_workload(*w, &mut ctx, a.seconds, a.trace) {
            Ok(o) => {
                for line in &o.info {
                    println!("{}: {line}", w.name());
                }
                for (name, v, unit) in o.metrics {
                    println!("{}: {name} = {v} {unit}", w.name());
                    let name = if selected.len() > 1 {
                        format!("{}.{name}", w.name())
                    } else {
                        name
                    };
                    all.push((name, v, unit));
                }
            }
            Err(e) => {
                result = Err(format!("{}: {e}", w.name()));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&work);
    result?;
    if a.trace {
        for (name, (n, total, own)) in ctx.spans.summary() {
            println!(
                "span {name}: n={n} total={:.6} s self={:.6} s",
                total as f64 / 1e9,
                own as f64 / 1e9
            );
        }
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", a.workload, a.seed));
        let run_id = format!("{}-seed{}-{}", a.workload, a.seed, std::process::id());
        std::fs::write(&path, ctx.spans.to_jsonl(&run_id))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let t = &ctx.tally;
    for n in &t.notes {
        println!("CHECK FAILED: {n}");
    }
    let failed = t.failed.min(t.attempted.max(1));
    let correct = failed == 0;
    println!(
        "fail_frac {} ({} failed of {} attempted sims)",
        failed as f64 / t.attempted.max(1) as f64,
        failed,
        t.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        t.attempted.max(1),
        json_metrics(&all)?
    );
    Ok(correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--child") {
        if let Err(e) = child::main(&argv[1..]) {
            eprintln!("perfbench child: {e}");
            std::process::exit(2);
        }
        return;
    }
    let code = match parse_args(&argv).and_then(|a| run(&a)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
