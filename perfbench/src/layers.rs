//! Per-layer measurements for the traced run, taken outside-in: each
//! pass times the benchmark's own calls into one layer's public
//! functions (recording, power-trace build, machine construction, serial
//! replay, the bare cache designs, the result store, process spawn), so
//! nothing inside the program changes.

use crate::checks::{Fnv, Power};
use crate::spans::Spans;
use crate::stats;
use ehsim::{BusOp, BusTrace, Machine, ObserverBox, Report, SimConfig, Simulator};
use ehsim_cache::{CacheDesign, CacheStats, MemCtx};
use ehsim_energy::{EnergyMeter, TraceKind};
use ehsim_farm::{LoadOutcome, ResultStore};
use ehsim_mem::{FunctionalMem, NvmPort};
use ehsim_workloads::Scale;
use std::path::Path;
use std::time::Instant;

/// One named metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// What one traced pass runs over: every design of `cfgs` on every
/// kernel of the suite at `scale`.
pub struct Input<'a> {
    /// Kernel scale.
    pub scale: Scale,
    /// Power input of the job list.
    pub power: &'a Power,
    /// The trace kind the result-store keys use (seeded traces have no
    /// key of their own, so their jobs are stored under this kind).
    pub key_kind: TraceKind,
    /// Benchmark seed (rebuilds a seeded trace for the build timing).
    pub seed: u64,
    /// The job list's designs.
    pub cfgs: Vec<SimConfig>,
    /// Scratch directory for the result-store pass.
    pub work: &'a Path,
    /// This executable, for the spawn-floor measurement.
    pub exe: &'a Path,
}

/// Results of the per-layer passes.
pub struct Layers {
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Digest of the serially replayed reports, in design-major order
    /// (comparable with a batch's report digest over the same job set).
    pub replay_digest: u64,
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Metric-name suffix for a design label.
fn design_key(label: &str) -> String {
    match label {
        "NVSRAM(ideal)" => "nvsram".to_string(),
        other => other.to_ascii_lowercase(),
    }
}

/// Drives `trace`'s loads and stores through a fresh copy of `cfg`'s
/// cache design with a bare [`MemCtx`]: no capacitor, no settlement, no
/// outages. Compute ops only advance the clock. Returns (seconds,
/// accesses).
fn bare_cache(cfg: &SimConfig, trace: &BusTrace, spans: &mut Spans, job: u64) -> (f64, u64) {
    let machine = Machine::new(cfg, trace.mem_bytes());
    let mut design = machine.design().clone();
    let line = cfg.geometry.line_bytes();
    let size = trace.mem_bytes().max(line).div_ceil(line) * line;
    let mut port = NvmPort::new();
    let mut nvm = FunctionalMem::new(size);
    let mut meter = EnergyMeter::new();
    let mut cstats = CacheStats::new();
    let mut obs = ObserverBox::Noop;
    let ppc = cfg.cpu.ps_per_cycle;
    let span = spans.open("cache.bare", job);
    let t = Instant::now();
    let mut now = 0;
    for op in trace.cursor() {
        let mut ctx = MemCtx {
            now,
            port: &mut port,
            timing: &cfg.nvm_timing,
            energy: &cfg.nvm_energy,
            nvm: &mut nvm,
            meter: &mut meter,
            stats: &mut cstats,
            cap_voltage: 3.5,
            obs: &mut obs,
        };
        now = match op {
            BusOp::Load { addr, size } => design.load(&mut ctx, addr, size).0.max(now + ppc),
            BusOp::Store { addr, size } => design.store(&mut ctx, addr, size, 0).max(now + ppc),
            BusOp::Compute { cycles } => now + cycles * ppc,
        };
    }
    let secs = t.elapsed().as_secs_f64();
    spans.close(span);
    (secs, cstats.accesses())
}

/// Runs every pass. An error is a failed simulation or a result-store
/// round trip that did not return the saved report.
pub fn measure(inp: &Input<'_>, spans: &mut Spans) -> Result<Layers, String> {
    let mut m: Vec<Metric> = Vec::new();
    let top = spans.open("layers", 0);

    // ehsim-workloads + ehsim-mem::record: one recording per kernel.
    let kernels = spans.time("workloads.build", 0, || ehsim_workloads::all23(inp.scale));
    let mut traces = Vec::with_capacity(kernels.len());
    let t = Instant::now();
    for (i, w) in kernels.iter().enumerate() {
        traces.push(spans.time("mem.record", i as u64 + 1, || BusTrace::record(w.as_ref())));
    }
    let record_s = t.elapsed().as_secs_f64();
    let ops: u64 = traces.iter().map(BusTrace::ops).sum();
    let bytes: usize = traces.iter().map(BusTrace::encoded_len).sum();
    m.push(("record.s".into(), record_s, "s"));
    m.push(("record.ops".into(), ops as f64, "count"));
    m.push(("record.bytes".into(), bytes as f64, "B"));
    m.push(("record.ns_per_op".into(), record_s * 1e9 / ops as f64, "ns"));

    // ehsim-energy: building the power trace a machine runs on.
    let builds: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let trace = spans.time("energy.trace_build", 0, || inp.power.build(inp.seed));
            let d = us(t.elapsed());
            drop(trace);
            d
        })
        .collect();
    m.push((
        "energy.trace_build_us".into(),
        stats::median(&builds).unwrap_or(0.0),
        "us",
    ));

    // ehsim: per-sim fixed cost of constructing a machine.
    let mut news = Vec::new();
    for cfg in &inp.cfgs {
        for tr in &traces {
            let t = Instant::now();
            let machine = spans.time("sim.machine_new", 0, || Machine::new(cfg, tr.mem_bytes()));
            news.push(us(t.elapsed()));
            drop(machine);
        }
    }
    m.push((
        "sim.machine_new_us".into(),
        stats::median(&news).unwrap_or(0.0),
        "us",
    ));

    // ehsim: serial replay of the whole job list.
    let mut sim_ms = Vec::new();
    let mut reports: Vec<(usize, usize, Report)> = Vec::new();
    let (mut settles, mut outages, mut instrs) = (0u64, 0u64, 0u64);
    let mut cache = CacheStats::new();
    let (mut dq_stalls, mut dq_stall_ps, mut wl_time_ps) = (0u64, 0u64, 0u64);
    let mut digest = Fnv::default();
    let replay_t = Instant::now();
    for (d, cfg) in inp.cfgs.iter().enumerate() {
        for (w, tr) in traces.iter().enumerate() {
            let job = (d * traces.len() + w) as u64 + 1;
            let t = Instant::now();
            let out = spans.time("sim.replay", job, || {
                Simulator::new(cfg.clone()).replay_with(tr, ObserverBox::Noop)
            });
            sim_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let (report, machine) = out.map_err(|e| {
                format!("{} / {} replay failed: {e}", cfg.design.label(), tr.name())
            })?;
            settles += machine.settle_windows();
            outages += report.outages;
            instrs += report.instructions;
            let c = &report.cache;
            cache.loads += c.loads;
            cache.stores += c.stores;
            cache.load_hits += c.load_hits;
            cache.store_hits += c.store_hits;
            cache.nvm_write_bytes += c.nvm_write_bytes;
            cache.nvm_read_bytes += c.nvm_read_bytes;
            cache.async_writebacks += c.async_writebacks;
            if let Some(wl) = &report.wl {
                dq_stalls += wl.stalls;
                dq_stall_ps += wl.stall_ps;
                wl_time_ps += report.total_time_ps;
            }
            crate::checks::digest_report(&mut digest, &report);
            reports.push((d, w, report));
        }
    }
    let replay_s = replay_t.elapsed().as_secs_f64();
    let tail = stats::tail(&sim_ms).ok_or("no simulations")?;
    m.push(("sim.replay_s".into(), replay_s, "s"));
    m.push((
        "sim.ms_p50".into(),
        stats::median(&sim_ms).unwrap_or(0.0),
        "ms",
    ));
    m.push(("sim.ms_tail".into(), tail.value, "ms"));
    m.push(("sim.ms_tail_pct".into(), tail.pct, "pct"));
    m.push(("sim.samples".into(), tail.n as f64, "count"));
    m.push((
        "sim.ns_per_instr".into(),
        replay_s * 1e9 / instrs.max(1) as f64,
        "ns",
    ));
    m.push(("energy.settle_windows".into(), settles as f64, "count"));
    m.push(("energy.outages".into(), outages as f64, "count"));
    m.push(("cache.accesses".into(), cache.accesses() as f64, "count"));
    m.push(("cache.hit_ratio".into(), cache.hit_rate(), "ratio"));
    m.push(("dq.stalls".into(), dq_stalls as f64, "count"));
    m.push((
        "dq.stall_frac".into(),
        dq_stall_ps as f64 / wl_time_ps.max(1) as f64,
        "ratio",
    ));
    m.push(("nvm.write_bytes".into(), cache.nvm_write_bytes as f64, "B"));
    m.push(("nvm.read_bytes".into(), cache.nvm_read_bytes as f64, "B"));
    m.push((
        "nvm.async_writebacks".into(),
        cache.async_writebacks as f64,
        "count",
    ));

    // ehsim-cache / wl-cache / NVM port: the same ops through the bare
    // designs.
    let mut bare_total = 0.0;
    for (d, cfg) in inp.cfgs.iter().enumerate() {
        let (mut secs, mut accesses) = (0.0, 0u64);
        for (w, tr) in traces.iter().enumerate() {
            let job = (d * traces.len() + w) as u64 + 1;
            let (s, a) = bare_cache(cfg, tr, spans, job);
            secs += s;
            accesses += a;
        }
        bare_total += secs;
        m.push((
            format!("cache.ns_per_access.{}", design_key(cfg.design.label())),
            secs * 1e9 / accesses.max(1) as f64,
            "ns",
        ));
    }
    m.push(("cache.bare_s".into(), bare_total, "s"));
    // Derived estimate: replay time the bare designs do not account for,
    // per settlement window.
    m.push((
        "energy.ns_per_settle".into(),
        (replay_s - bare_total) * 1e9 / settles.max(1) as f64,
        "ns",
    ));

    // ehsim-farm: key, save and load of every replayed report.
    let store_dir = inp.work.join("layer-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ResultStore::open(&store_dir);
    let (mut keys, mut saves, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let mut rejects = 0u64;
    for (d, w, report) in &reports {
        let job = (d * traces.len() + w) as u64 + 1;
        let mut key_cfg = inp.cfgs[*d].clone();
        key_cfg.custom_trace = None;
        key_cfg.trace = inp.key_kind;
        let t = Instant::now();
        let key = spans.time("farm.key", job, || {
            ehsim_farm::sim_key(&key_cfg, *w, inp.scale)
        });
        keys.push(us(t.elapsed()));
        let key = key.ok_or("no result-store key for a built-in trace")?;
        // The store refuses a report labelled with a seeded trace; file
        // it under the key's trace, as the key itself is.
        let mut report = report.clone();
        report.trace = inp.key_kind.label();
        let t = Instant::now();
        spans
            .time("farm.save", job, || store.save(&key, &report))
            .map_err(|e| format!("result store save failed: {e}"))?;
        saves.push(us(t.elapsed()));
        let t = Instant::now();
        let loaded = spans.time("farm.load", job, || store.load(&key));
        loads.push(us(t.elapsed()));
        match loaded {
            LoadOutcome::Hit(r) if *r == report => {}
            LoadOutcome::Hit(_) => return Err("result store returned a different report".into()),
            LoadOutcome::Miss => return Err("result store lost a saved report".into()),
            LoadOutcome::Reject(_) => rejects += 1,
        }
    }
    let (mut entries, mut disk) = (0u64, 0u64);
    if let Ok(dir) = std::fs::read_dir(&store_dir) {
        for e in dir.flatten() {
            entries += 1;
            disk += e.metadata().map(|md| md.len()).unwrap_or(0);
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    for (name, xs) in [
        ("farm.key_us", &keys),
        ("farm.save_us", &saves),
        ("farm.load_us", &loads),
    ] {
        m.push((name.into(), stats::median(xs).unwrap_or(0.0), "us"));
    }
    m.push(("farm.entries".into(), entries as f64, "count"));
    m.push(("farm.bytes".into(), disk as f64, "B"));
    m.push(("farm.rejects".into(), rejects as f64, "count"));

    // The floor under every fresh-process batch: a spawn that does nothing.
    let mut spawns = Vec::new();
    for i in 0..21 {
        let t = Instant::now();
        let status = spans.time("proc.spawn", i + 1, || {
            std::process::Command::new(inp.exe)
                .args(["--child", "noop"])
                .status()
        });
        spawns.push(t.elapsed().as_secs_f64() * 1e3);
        if !status.map(|s| s.success()).unwrap_or(false) {
            return Err("no-op child failed".into());
        }
    }
    m.push((
        "proc.spawn_ms".into(),
        stats::median(&spawns).unwrap_or(0.0),
        "ms",
    ));

    spans.close(top);
    Ok(Layers {
        metrics: m,
        replay_digest: digest.0,
    })
}
