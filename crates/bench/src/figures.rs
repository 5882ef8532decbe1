//! One function per paper figure/table, all driven by the parallel
//! sweep executor in [`crate::exec`].
//!
//! Each function assembles its whole simulation demand as a single
//! batch up front — so independent configurations run concurrently and
//! repeated ones (the `NVSRAM(ideal)` baselines) hit the memo cache —
//! and then reduces the reports into a [`Table`]. Functions return the
//! table *without* saving it; [`sweep`] saves it (`ablation_wbuf` calls
//! [`Table::save`]). Everything is parameterized by [`Scale`] so the
//! pinned-golden tests can run the same code at `Small`.

use crate::exec::{self, Job};
use crate::{f3, gmean, telemetry, with_gmeans, workload_labels, Table};
use ehsim::{Report, SimConfig};
use ehsim_cache::{CacheGeometry, ReplacementPolicy};
use ehsim_energy::{EnergyCategory, EnergyMeter, TraceKind, VoltageThresholds};
use ehsim_workloads::Scale;
use std::sync::Arc;

/// Per-application speedup header: design + 23 workloads + gmeans.
fn speedup_header(first: &str) -> Vec<String> {
    let mut header = vec![first.to_string()];
    header.extend(workload_labels());
    header.extend(
        ["gmean(Media)", "gmean(Mi)", "gmean(Total)"]
            .iter()
            .map(|s| s.to_string()),
    );
    header
}

fn speedups(reports: &[Arc<Report>], base: &[Arc<Report>]) -> Vec<f64> {
    reports
        .iter()
        .zip(base)
        .map(|(r, b)| r.speedup_vs(b))
        .collect()
}

fn suite_gmean(reports: &[Arc<Report>], base: &[Arc<Report>]) -> f64 {
    gmean(reports.iter().zip(base).map(|(r, b)| r.speedup_vs(b))).expect("non-empty suite")
}

/// Fig 4/5/6 core: per-application speedup of each design relative to
/// NVSRAM(ideal) under `trace`, with the paper's per-suite gmeans.
pub fn speedup(trace: TraceKind, scale: Scale) -> Table {
    let mut cfgs = vec![SimConfig::nvsram().with_trace(trace)];
    cfgs.extend(
        SimConfig::all_designs()
            .into_iter()
            .map(|c| c.with_trace(trace)),
    );
    let suites = exec::run_suites(&cfgs, scale);
    let (base, designs) = suites.split_first().expect("baseline suite");

    let mut t = Table::new();
    t.row(speedup_header("design"));
    for (cfg, reports) in cfgs[1..].iter().zip(designs) {
        let mut row = vec![cfg.design.label().to_string()];
        row.extend(with_gmeans(&speedups(reports, base)).iter().map(|v| f3(*v)));
        t.row(row);
    }
    t
}

/// Fig 11/12 core: adaptive vs best-static WL-Cache (per cache
/// replacement policy) relative to NVSRAM(ideal) under `trace`.
pub fn adaptive(trace: TraceKind, scale: Scale) -> Table {
    const MAXLINES: [usize; 4] = [2, 4, 6, 8];
    let policies = [ReplacementPolicy::Lru, ReplacementPolicy::Fifo];
    let mut cfgs = vec![SimConfig::nvsram().with_trace(trace)];
    for policy in policies {
        for maxline in MAXLINES {
            cfgs.push(
                SimConfig::wl_cache_static(maxline)
                    .with_cache_policy(policy)
                    .with_trace(trace),
            );
        }
        cfgs.push(
            SimConfig::wl_cache()
                .with_cache_policy(policy)
                .with_trace(trace),
        );
    }
    let suites = exec::run_suites(&cfgs, scale);
    let base = &suites[0];

    let mut t = Table::new();
    t.row(speedup_header("config"));
    let mut ix = 1;
    for policy in policies {
        // Best static: per application, the best of maxline 2/4/6/8
        // (exactly how the paper picks "Best" from the Fig 9 sweep).
        let mut best = vec![f64::MIN; base.len()];
        for _ in MAXLINES {
            for (slot, s) in best.iter_mut().zip(speedups(&suites[ix], base)) {
                *slot = slot.max(s);
            }
            ix += 1;
        }
        let mut row = vec![format!("{}(Best)", policy.label())];
        row.extend(with_gmeans(&best).iter().map(|v| f3(*v)));
        t.row(row);

        let mut row = vec![format!("{}(Adap)", policy.label())];
        row.extend(
            with_gmeans(&speedups(&suites[ix], base))
                .iter()
                .map(|v| f3(*v)),
        );
        ix += 1;
        t.row(row);
    }
    t
}

/// Fig 4: no power failure.
pub fn fig04(scale: Scale) -> Table {
    speedup(TraceKind::None, scale)
}

/// Fig 5: Power Trace 1.
pub fn fig05(scale: Scale) -> Table {
    speedup(TraceKind::Rf1, scale)
}

/// Fig 6: Power Trace 2.
pub fn fig06(scale: Scale) -> Table {
    speedup(TraceKind::Rf2, scale)
}

/// Fig 7: normalized NVM write-traffic increase of WL-Cache compared
/// to NVSRAM(ideal) under Power Trace 1.
pub fn fig07(scale: Scale) -> Table {
    let cfgs = [
        SimConfig::nvsram().with_trace(TraceKind::Rf1),
        SimConfig::wl_cache().with_trace(TraceKind::Rf1),
    ];
    let suites = exec::run_suites(&cfgs, scale);
    let (base, wl) = (&suites[0], &suites[1]);
    let ratios: Vec<f64> = wl
        .iter()
        .zip(base)
        .map(|(w, b)| w.nvm_write_bytes() as f64 / b.nvm_write_bytes() as f64)
        .collect();
    let mut t = Table::new();
    t.row(["app", "write-traffic ratio (WL / NVSRAM)"]);
    for (name, r) in workload_labels().iter().zip(with_gmeans(&ratios)) {
        t.row([name.clone(), f3(r)]);
    }
    let g = with_gmeans(&ratios);
    t.row(["gmean(Media)".to_string(), f3(g[23])]);
    t.row(["gmean(Mi)".to_string(), f3(g[24])]);
    t.row(["gmean(Total)".to_string(), f3(g[25])]);
    t
}

/// Fig 8(a): DQ-FIFO vs DQ-LRU DirtyQueue replacement, suite gmean.
pub fn fig08a(scale: Scale) -> Table {
    use wl_cache::DqPolicy;
    let traces = [TraceKind::None, TraceKind::Rf1, TraceKind::Rf2];
    let policies = [DqPolicy::Fifo, DqPolicy::Lru];
    let mut cfgs = Vec::new();
    for trace in traces {
        cfgs.push(SimConfig::nvsram().with_trace(trace));
        for policy in policies {
            cfgs.push(
                SimConfig::wl_cache()
                    .with_dq_policy(policy)
                    .with_trace(trace),
            );
        }
    }
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row(["scenario", "DQ-FIFO", "DQ-LRU"]);
    for (ti, trace) in traces.iter().enumerate() {
        let base = &suites[ti * 3];
        let mut cells = vec![trace.label().to_string()];
        for pi in 0..policies.len() {
            cells.push(f3(suite_gmean(&suites[ti * 3 + 1 + pi], base)));
        }
        t.row(cells);
    }
    t
}

/// Fig 8(b): set associativity (direct-mapped / 2-way / 4-way), suite
/// gmean.
pub fn fig08b(scale: Scale) -> Table {
    let traces = [TraceKind::None, TraceKind::Rf1, TraceKind::Rf2];
    let ways_list = [1u32, 2, 4];
    let mut cfgs = Vec::new();
    for trace in traces {
        cfgs.push(SimConfig::nvsram().with_trace(trace));
        for ways in ways_list {
            let geom = CacheGeometry::new(1024, ways, 64);
            cfgs.push(SimConfig::wl_cache().with_geometry(geom).with_trace(trace));
        }
    }
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row(["scenario", "D-Map.", "2-Way", "4-Way"]);
    for (ti, trace) in traces.iter().enumerate() {
        let base = &suites[ti * 4];
        let mut cells = vec![trace.label().to_string()];
        for wi in 0..ways_list.len() {
            cells.push(f3(suite_gmean(&suites[ti * 4 + 1 + wi], base)));
        }
        t.row(cells);
    }
    t
}

/// Fig 9: per-application sensitivity to maxline (2/4/6/8) and cache
/// replacement policy (FIFO vs LRU), normalized to NVSRAM(ideal),
/// Power Trace 1.
pub fn fig09(scale: Scale) -> Table {
    const MAXLINES: [usize; 4] = [2, 4, 6, 8];
    let policies = [ReplacementPolicy::Fifo, ReplacementPolicy::Lru];
    let names: Vec<String> = ehsim_workloads::all23(scale)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let count = names.len();
    let base_cfg = SimConfig::nvsram().with_trace(TraceKind::Rf1);
    let mut jobs: Vec<Job> = (0..count)
        .map(|w| Job::new(base_cfg.clone(), w, scale))
        .collect();
    for w in 0..count {
        for maxline in MAXLINES {
            for policy in policies {
                let cfg = SimConfig::wl_cache_static(maxline)
                    .with_cache_policy(policy)
                    .with_trace(TraceKind::Rf1);
                jobs.push(Job::new(cfg, w, scale));
            }
        }
    }
    let reports = exec::run_batch(&jobs);
    let (base, rest) = reports.split_at(count);

    let mut t = Table::new();
    t.row(["app", "maxline", "FIFO", "LRU", "NVSRAM(ideal)"]);
    let mut ix = 0;
    for (w, name) in names.iter().enumerate() {
        for maxline in MAXLINES {
            let mut cells = vec![name.clone(), maxline.to_string()];
            for _ in policies {
                cells.push(f3(rest[ix].speedup_vs(&base[w])));
                ix += 1;
            }
            cells.push("1.000".into());
            t.row(cells);
        }
    }
    t
}

/// Fig 10(a): speedup vs NVSRAM(ideal) while sweeping the cache size
/// from 128 B to 4 kB, Power Trace 1, suite gmean.
pub fn fig10a(scale: Scale) -> Table {
    let sizes = [128u32, 256, 512, 1024, 2048, 4096];
    let designs = [
        SimConfig::nvsram(),
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::wl_cache(),
    ];
    // The 1 kB NVSRAM is the common baseline so the sweep shows both
    // effects the paper reports: absolute speedup growing with size and
    // the WL/NVSRAM gap narrowing as the cache shrinks.
    let mut cfgs = vec![SimConfig::nvsram().with_trace(TraceKind::Rf1)];
    for size in sizes {
        let geom = CacheGeometry::new(size, 2, 64);
        for cfg in &designs {
            cfgs.push(cfg.clone().with_geometry(geom).with_trace(TraceKind::Rf1));
        }
    }
    let suites = exec::run_suites(&cfgs, scale);
    let base = &suites[0];
    let mut t = Table::new();
    t.row([
        "size(B)",
        "NVSRAM(ideal)",
        "VCache-WT",
        "ReplayCache",
        "WL-Cache",
    ]);
    for (si, size) in sizes.iter().enumerate() {
        let mut cells = vec![size.to_string()];
        for di in 0..designs.len() {
            cells.push(f3(suite_gmean(&suites[1 + si * designs.len() + di], base)));
        }
        t.row(cells);
    }
    t
}

/// Fig 10(b): execution time (seconds) while sweeping the capacitor
/// size from 100 nF to 1 mF, Power Trace 1, suite mean.
pub fn fig10b(scale: Scale) -> Table {
    let ufs = [0.1, 0.344, 1.0, 10.0, 100.0, 500.0, 1000.0];
    let designs = [
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::nvsram(),
        SimConfig::wl_cache(),
    ];
    let mut cfgs = Vec::new();
    for &uf in &ufs {
        for cfg in &designs {
            cfgs.push(cfg.clone().with_capacitor_uf(uf).with_trace(TraceKind::Rf1));
        }
    }
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row([
        "capacitor(uF)",
        "VCache-WT",
        "ReplayCache",
        "NVSRAM(ideal)",
        "WL-Cache",
    ]);
    for (ui, uf) in ufs.iter().enumerate() {
        let mut cells = vec![format!("{uf}")];
        for di in 0..designs.len() {
            let reports = &suites[ui * designs.len() + di];
            let mean: f64 =
                reports.iter().map(|r| r.total_seconds()).sum::<f64>() / reports.len() as f64;
            cells.push(format!("{mean:.4}"));
        }
        t.row(cells);
    }
    t
}

/// Fig 13(a): speedup vs NVSRAM(ideal) across power traces
/// (tr1/tr2/tr3/solar/thermal), including WL-Cache(dyn), suite gmean.
pub fn fig13a(scale: Scale) -> Table {
    let traces = [
        TraceKind::Rf1,
        TraceKind::Rf2,
        TraceKind::Rf3,
        TraceKind::Solar,
        TraceKind::Thermal,
    ];
    let designs = [
        SimConfig::nvsram(),
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::wl_cache(),
        SimConfig::wl_cache_dyn(),
    ];
    let mut cfgs = Vec::new();
    for trace in traces {
        for cfg in &designs {
            cfgs.push(cfg.clone().with_trace(trace));
        }
    }
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row([
        "trace",
        "NVSRAM(ideal)",
        "VCache-WT",
        "ReplayCache",
        "WL-Cache",
        "WL-Cache(dyn)",
    ]);
    for (ti, trace) in traces.iter().enumerate() {
        // The first design of each trace block *is* the baseline.
        let base = &suites[ti * designs.len()];
        let mut cells = vec![trace.label().to_string()];
        for di in 0..designs.len() {
            cells.push(f3(suite_gmean(&suites[ti * designs.len() + di], base)));
        }
        t.row(cells);
    }
    t
}

/// Fig 13(b): energy-consumption breakdown (cache read/write, memory
/// read/write, compute) per design under Power Trace 1, normalized to
/// NVSRAM(ideal)'s total, suite sum.
pub fn fig13b(scale: Scale) -> Table {
    let designs = [
        SimConfig::nvcache_wb(),
        SimConfig::vcache_wt(),
        SimConfig::nvsram(),
        SimConfig::wl_cache(),
    ];
    let labels: Vec<String> = designs
        .iter()
        .map(|c| c.design.label().to_string())
        .collect();
    let cfgs: Vec<SimConfig> = designs
        .iter()
        .map(|c| c.clone().with_trace(TraceKind::Rf1))
        .collect();
    let suites = exec::run_suites(&cfgs, scale);
    let totals: Vec<(String, EnergyMeter)> = labels
        .into_iter()
        .zip(&suites)
        .map(|(label, reports)| {
            let sum = reports
                .iter()
                .fold(EnergyMeter::new(), |acc, r| acc.merged(&r.energy));
            (label, sum)
        })
        .collect();
    let nvsram_total = totals
        .iter()
        .find(|(l, _)| l == "NVSRAM(ideal)")
        .expect("baseline present")
        .1
        .total();

    let mut t = Table::new();
    let mut header = vec!["design".to_string()];
    header.extend(EnergyCategory::ALL.iter().map(|c| c.label().to_string()));
    header.push("total(%)".into());
    t.row(header);
    for (label, m) in &totals {
        let mut cells = vec![label.clone()];
        for c in EnergyCategory::ALL {
            cells.push(format!("{:.1}", m.get(c) / nvsram_total * 100.0));
        }
        cells.push(format!("{:.1}", m.total() / nvsram_total * 100.0));
        t.row(cells);
    }
    t
}

/// §6.6 statistics for WL-Cache (adaptive, FIFO DirtyQueue) on Power
/// Traces 1 and 2.
pub fn stats66(scale: Scale) -> Table {
    let traces = [TraceKind::Rf1, TraceKind::Rf2];
    let cfgs: Vec<SimConfig> = traces
        .iter()
        .map(|&trace| SimConfig::wl_cache().with_trace(trace))
        .collect();
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row([
        "trace",
        "reconfigs(mean)",
        "maxline-min",
        "maxline-max",
        "pred-accuracy",
        "dirty/interval",
        "writebacks/interval",
        "stall(%)",
        "outages(mean)",
    ]);
    for (trace, reports) in traces.iter().zip(&suites) {
        let n = reports.len() as f64;
        let wl: Vec<_> = reports.iter().filter_map(|r| r.wl.as_ref()).collect();
        let reconf: f64 = wl.iter().map(|w| w.reconfigurations as f64).sum::<f64>() / n;
        let mmin = wl.iter().map(|w| w.maxline_min).min().unwrap();
        let mmax = wl.iter().map(|w| w.maxline_max).max().unwrap();
        let accs: Vec<f64> = wl.iter().filter_map(|w| w.prediction_accuracy).collect();
        let acc = if accs.is_empty() {
            f64::NAN
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        };
        let dirty: f64 = wl.iter().map(|w| w.avg_dirty_at_checkpoint).sum::<f64>() / n;
        let wb: f64 = wl.iter().map(|w| w.avg_cleanings_per_interval).sum::<f64>() / n;
        let stall: f64 = wl.iter().map(|w| w.stall_fraction).sum::<f64>() / n * 100.0;
        let outs: f64 = reports.iter().map(|r| r.outages as f64).sum::<f64>() / n;
        t.row([
            trace.label().to_string(),
            format!("{reconf:.1}"),
            mmin.to_string(),
            mmax.to_string(),
            format!("{:.1}%", acc * 100.0),
            format!("{dirty:.1}"),
            format!("{wb:.1}"),
            format!("{stall:.3}"),
            format!("{outs:.1}"),
        ]);
    }
    t
}

/// Ablation (§3.3): WL-Cache vs the rejected write-buffer alternative,
/// plus the hardware-cost comparison from CACTI-lite.
pub fn ablation_wbuf(scale: Scale) -> Table {
    use ehsim_hwcost::{dirty_queue_spec, estimate, write_buffer_spec};
    let traces = [TraceKind::None, TraceKind::Rf1];
    let mut cfgs = Vec::new();
    for trace in traces {
        cfgs.push(SimConfig::nvsram().with_trace(trace));
        cfgs.push(SimConfig::wl_cache().with_trace(trace));
        cfgs.push(SimConfig::write_buffer().with_trace(trace));
    }
    let suites = exec::run_suites(&cfgs, scale);
    let mut t = Table::new();
    t.row(["scenario", "WL-Cache", "WBuf-Cache"]);
    for (ti, trace) in traces.iter().enumerate() {
        let base = &suites[ti * 3];
        let mut cells = vec![trace.label().to_string()];
        for di in 0..2 {
            cells.push(f3(suite_gmean(&suites[ti * 3 + 1 + di], base)));
        }
        t.row(cells);
    }
    let dq = estimate(&dirty_queue_spec(8, 32));
    let wb = estimate(&write_buffer_spec(6, 64, 32));
    t.row([
        "area (mm^2)".to_string(),
        format!("{:.5}", dq.area_mm2),
        format!("{:.5}", wb.area_mm2),
    ]);
    t.row([
        "dynamic (pJ/access)".to_string(),
        format!("{:.2}", dq.dynamic_pj_per_access),
        format!("{:.2}", wb.dynamic_pj_per_access),
    ]);
    t
}

/// Table 1: qualitative comparison of hardware complexity, energy-buffer
/// requirement, NVM-cache requirement and performance across the cache
/// schemes — derived from the implemented models (reserve energies come
/// from each design's `worst_checkpoint_pj`).
pub fn table1(_scale: Scale) -> Table {
    use ehsim_cache::designs::{NvCacheWb, NvSramCache, ReplayCache, VCacheWt};
    use ehsim_cache::CacheDesign;
    use ehsim_mem::NvmEnergy;
    use wl_cache::WlCache;

    let geom = CacheGeometry::paper_default();
    let e = NvmEnergy::default();
    let wt = VCacheWt::new(geom, ReplacementPolicy::Lru);
    let nv = NvCacheWb::new(geom, ReplacementPolicy::Lru);
    let nvsram = NvSramCache::new(geom, ReplacementPolicy::Lru);
    let replay = ReplayCache::new(geom, ReplacementPolicy::Lru, 64, 1.0);
    let wl = WlCache::new();

    let mut t = Table::new();
    t.row([
        "design",
        "HW cost",
        "energy-buffer req. (worst ckpt, nJ)",
        "NVM cache req.",
        "perf (Fig 4/5 gmean)",
    ]);
    let rows: [(&str, &str, f64, &str, &str); 5] = [
        (
            "WTCache",
            "None",
            wt.worst_checkpoint_pj(&e) / 1e3,
            "No",
            "Low",
        ),
        (
            "NVCache",
            "Low",
            nv.worst_checkpoint_pj(&e) / 1e3,
            "Yes (full)",
            "Low",
        ),
        (
            "NVSRAM(ideal)",
            "High+",
            nvsram.worst_checkpoint_pj(&e) / 1e3,
            "Yes (large)",
            "High",
        ),
        (
            "ReplayCache",
            "None (compiler)",
            replay.worst_checkpoint_pj(&e) / 1e3,
            "No",
            "Medium",
        ),
        (
            "WL-Cache",
            "Low",
            wl.worst_checkpoint_pj(&e) / 1e3,
            "No",
            "High",
        ),
    ];
    for (name, hw, nj, nvreq, perf) in rows {
        t.row([
            name.to_string(),
            hw.to_string(),
            format!("{nj:.2}"),
            nvreq.to_string(),
            perf.to_string(),
        ]);
    }
    t
}

/// Table 2: the simulation configuration in force (processor, cache,
/// NVM timing, capacitor, voltage thresholds).
pub fn table2(_scale: Scale) -> Table {
    let cfg = SimConfig::wl_cache();
    let mut t = Table::new();
    t.row(["parameter", "value"]);
    t.row(["Processor", "1.0 GHz, 1 in-order core"]);
    t.row([
        "L1 D-cache".to_string(),
        format!(
            "{} B, {}-way, {} B block (paper geometry: 8 kB via --paper)",
            cfg.geometry.size_bytes(),
            cfg.geometry.ways(),
            cfg.geometry.line_bytes()
        ),
    ]);
    t.row([
        "Cache latencies (SRAM hit/miss)".to_string(),
        "0.3 ns / 0.1 ns".to_string(),
    ]);
    t.row([
        "Cache latencies (NVRAM hit/miss)".to_string(),
        "1.6 ns / 1.5 ns".to_string(),
    ]);
    let nt = &cfg.nvm_timing;
    t.row([
        "NVM (ReRAM) tCK/tBURST/tRCD/tCL/tWTR/tWR/tXAW (ns)".to_string(),
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            nt.t_ck, nt.t_burst, nt.t_rcd, nt.t_cl, nt.t_wtr, nt.t_wr, nt.t_xaw
        ),
    ]);
    t.row([
        "Energy buffer (capacitor)".to_string(),
        format!("{} uF", cfg.capacitor_uf),
    ]);
    let nv = VoltageThresholds::nv();
    let ns = VoltageThresholds::nvsram();
    let w2 = VoltageThresholds::wl(2, 8);
    let w8 = VoltageThresholds::wl(8, 8);
    t.row([
        "Vbackup/restore".to_string(),
        format!(
            "NV({}/{}), NVSRAM({}/{}), WL({:.2}~{:.2}/{:.2}~{:.2})",
            nv.v_backup, nv.v_on, ns.v_backup, ns.v_on, w2.v_backup, w8.v_backup, w2.v_on, w8.v_on
        ),
    ]);
    t.row(["Vmin/max", "2.8 / 3.5"]);
    t
}

/// §6.2 hardware cost: CACTI-lite estimates for the DirtyQueue, the
/// SRAM/ReRAM cache arrays, and the rejected CAM write-buffer
/// alternative of §3.3.
pub fn hwcost(_scale: Scale) -> Table {
    use ehsim_hwcost::{cache_spec, dirty_queue_spec, estimate, write_buffer_spec, ArrayKind};
    let mut t = Table::new();
    t.row([
        "structure",
        "area (mm^2)",
        "dynamic (pJ/access)",
        "leakage (mW)",
    ]);
    let entries = [
        (
            "DirtyQueue (8 x 32b + state)",
            estimate(&dirty_queue_spec(8, 32)),
        ),
        (
            "8 kB SRAM cache",
            estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Sram)),
        ),
        (
            "8 kB ReRAM (NV) cache",
            estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Reram)),
        ),
        (
            "CAM write buffer (8 lines, rejected in sec. 3.3)",
            estimate(&write_buffer_spec(8, 64, 32)),
        ),
    ];
    for (name, e) in entries {
        t.row([
            name.to_string(),
            format!("{:.5}", e.area_mm2),
            format!("{:.3}", e.dynamic_pj_per_access),
            format!("{:.3}", e.leakage_uw / 1000.0),
        ]);
    }
    let dq = estimate(&dirty_queue_spec(8, 32));
    let nv = estimate(&cache_spec(8 * 1024, 64, 20, ArrayKind::Reram));
    t.row([
        "DirtyQueue / NV-cache leakage".to_string(),
        String::new(),
        String::new(),
        format!("{:.1}%", dq.leakage_uw / nv.leakage_uw * 100.0),
    ]);
    t
}

/// Signature of a figure generator: renders one table at `scale`
/// without saving it.
pub type FigureFn = fn(Scale) -> Table;

/// Every figure/table of `all_figures`, in regeneration order.
pub const ALL: &[(&str, FigureFn)] = &[
    ("table1", table1),
    ("table2", table2),
    ("hwcost", hwcost),
    ("fig04", fig04),
    ("fig05", fig05),
    ("fig06", fig06),
    ("fig07", fig07),
    ("fig08a", fig08a),
    ("fig08b", fig08b),
    ("fig09", fig09),
    ("fig10a", fig10a),
    ("fig10b", fig10b),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13a", fig13a),
    ("fig13b", fig13b),
    ("stats66", stats66),
];

/// What one [`sweep`] measured.
#[derive(Debug)]
pub struct SweepRun {
    /// Wall clock of the figure loop, in nanoseconds.
    pub wall_ns: u64,
    /// Executor counters at the end of the sweep.
    pub stats: exec::ExecStats,
}

/// Where [`sweep`] saves its tables at `scale`. The committed
/// Default-scale tables live in `results/`; Small-scale ones go to
/// `results/small/`, so a quick sweep never overwrites them.
pub fn results_dir(scale: Scale) -> &'static str {
    match scale {
        Scale::Small => "results/small",
        Scale::Default => "results",
    }
}

/// The sweep driver behind `all_figures`, `ehsim-cli sweep` and
/// `farm_bench`: regenerates `figures` at `scale` into
/// `<results_dir(scale)>/<name>.tsv`. Writes the progress stream's meta
/// line first (when a stream is open), and prints each table to stdout
/// under a `==== <name> ====` banner.
pub fn sweep(figures: &[(&str, FigureFn)], scale: Scale) -> SweepRun {
    telemetry::emit_meta(match scale {
        Scale::Small => "small",
        Scale::Default => "default",
    });
    let start_ns = telemetry::now_ns();
    for &(name, figure) in figures {
        println!("==== {name} ====");
        figure(scale).save_in(results_dir(scale), name);
        println!();
    }
    SweepRun {
        wall_ns: telemetry::now_ns().saturating_sub(start_ns),
        stats: exec::stats(),
    }
}

/// Fig 11: adaptive vs best-static, Power Trace 1.
pub fn fig11(scale: Scale) -> Table {
    adaptive(TraceKind::Rf1, scale)
}

/// Fig 12: adaptive vs best-static, Power Trace 2.
pub fn fig12(scale: Scale) -> Table {
    adaptive(TraceKind::Rf2, scale)
}
