//! Exploring WL-Cache's knobs: static maxline settings vs the adaptive
//! and dynamic managers, on a good source (thermal) and a poor one
//! (RFID-class RF) — the §4/§6.6 story in miniature.
//!
//! ```sh
//! cargo run --release --example tuning_thresholds
//! ```

use wl_cache_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = Patricia::small();
    for trace in [TraceKind::Rf3, TraceKind::Thermal] {
        println!("== {} ==", trace.label());
        let base = Simulator::new(SimConfig::nvsram().with_trace(trace)).run(&workload)?;
        for maxline in [2usize, 4, 6, 8] {
            let cfg = SimConfig::wl_cache_static(maxline).with_trace(trace);
            let r = Simulator::new(cfg).run(&workload)?;
            println!(
                "  static maxline {maxline}: {:.3}x vs NVSRAM ({} outages)",
                r.speedup_vs(&base),
                r.outages
            );
        }
        for (label, cfg) in [
            ("adaptive", SimConfig::wl_cache()),
            ("dynamic ", SimConfig::wl_cache_dyn()),
        ] {
            let r = Simulator::new(cfg.with_trace(trace)).run(&workload)?;
            let wl = r.wl.as_ref().ok_or("a WL-Cache run has a WL report")?;
            println!(
                "  {label}        : {:.3}x vs NVSRAM ({} outages, {} reconfigs, maxline {}..{})",
                r.speedup_vs(&base),
                r.outages,
                wl.reconfigurations,
                wl.maxline_min,
                wl.maxline_max,
            );
        }
        println!();
    }
    Ok(())
}
