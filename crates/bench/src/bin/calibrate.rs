//! Calibration probe (not a paper figure): prints the no-failure
//! speedup shape across designs and the outage counts per trace, so the
//! documented constants in DESIGN.md §2.4 can be checked against the
//! paper's reported values (Fig 4 shape; §6.6 outage counts
//! 33/45/121/12/9).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a harness binary, exempt like ehsim-bench's library (L004)"
)]

use ehsim::{gmean, SimConfig};
use ehsim_bench::{f2, run};
use ehsim_energy::TraceKind;
use ehsim_workloads::prelude::*;

fn main() {
    let probes = all23(Scale::Default);

    println!("== mean power draw while on (no-failure runs) ==");
    for cfg in SimConfig::all_designs() {
        let label = cfg.design.label().to_string();
        let mut draw = Vec::new();
        for w in &probes {
            let r = run(cfg.clone(), w.as_ref());
            // pJ / ps = W; ×1e6 → µW.
            draw.push(r.energy.total() / r.on_time_ps as f64 * 1e6);
        }
        let mean = draw.iter().sum::<f64>() / draw.len() as f64;
        println!("{label}\tmean draw {mean:.0} uW");
    }

    println!("\n== no-failure speedup vs NVSRAM(ideal) ==");
    let mut per_design: Vec<(String, Vec<f64>)> = Vec::new();
    for w in &probes {
        let base = run(SimConfig::nvsram(), w.as_ref());
        for cfg in SimConfig::all_designs() {
            let label = cfg.design.label().to_string();
            let r = run(cfg, w.as_ref());
            let s = r.speedup_vs(&base);
            if let Some(e) = per_design.iter_mut().find(|(l, _)| *l == label) {
                e.1.push(s);
            } else {
                per_design.push((label, vec![s]));
            }
        }
    }
    for (label, speeds) in &per_design {
        println!(
            "{label}\tgmean {}\tmin {}\tmax {}",
            f2(gmean(speeds.iter().copied()).unwrap()),
            f2(speeds.iter().cloned().fold(f64::INFINITY, f64::min)),
            f2(speeds.iter().cloned().fold(0.0, f64::max)),
        );
    }

    println!("\n== outages per trace (WL-Cache, mean over workloads) ==");
    for trace in [
        TraceKind::Rf1,
        TraceKind::Rf2,
        TraceKind::Rf3,
        TraceKind::Solar,
        TraceKind::Thermal,
    ] {
        let mut outs = Vec::new();
        let mut times = Vec::new();
        for w in &probes {
            let r = run(SimConfig::wl_cache().with_trace(trace), w.as_ref());
            outs.push(r.outages as f64);
            times.push(r.total_seconds());
        }
        let mean = outs.iter().sum::<f64>() / outs.len() as f64;
        let tmean = times.iter().sum::<f64>() / times.len() as f64;
        println!(
            "{}\tmean outages {:.1}\tmean time {:.3} s",
            trace.label(),
            mean,
            tmean
        );
    }

    println!("\n== trace-1 per-design diagnostics (mean over workloads) ==");
    for cfg in SimConfig::all_designs() {
        let label = cfg.design.label().to_string();
        let (mut outs, mut offf, mut wr) = (0.0, 0.0, 0.0);
        for w in &probes {
            let r = run(cfg.clone().with_trace(TraceKind::Rf1), w.as_ref());
            outs += r.outages as f64;
            offf += r.off_time_ps as f64 / r.total_time_ps as f64;
            wr += r.nvm_write_bytes() as f64;
        }
        let n = probes.len() as f64;
        println!(
            "{label}\toutages {:.1}\toff-frac {:.2}\tnvm-wr {:.0} kB",
            outs / n,
            offf / n,
            wr / n / 1024.0
        );
    }

    println!("\n== trace-1 speedups vs NVSRAM(ideal) (gmean) ==");
    let mut per_design: Vec<(String, Vec<f64>)> = Vec::new();
    for w in &probes {
        let base = run(SimConfig::nvsram().with_trace(TraceKind::Rf1), w.as_ref());
        for cfg in SimConfig::all_designs() {
            let label = cfg.design.label().to_string();
            let r = run(cfg.with_trace(TraceKind::Rf1), w.as_ref());
            let s = r.speedup_vs(&base);
            if let Some(e) = per_design.iter_mut().find(|(l, _)| *l == label) {
                e.1.push(s);
            } else {
                per_design.push((label, vec![s]));
            }
        }
    }
    for (label, speeds) in &per_design {
        println!(
            "{label}\tgmean {}",
            f2(gmean(speeds.iter().copied()).unwrap())
        );
    }
}
