//! Quickstart: run one benchmark on WL-Cache, with and without power
//! failures, and print the report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use wl_cache_repro::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A real workload from the paper's suite: SHA-1 over a generated
    // message. Every load/store goes through the simulated hierarchy.
    let workload = Sha::with_scale(Scale::Default);

    // 1. Stable power: no failures ever happen.
    let calm = Simulator::new(SimConfig::wl_cache()).run(&workload)?;
    println!(
        "[no failures] {} on {}: {:.3} ms, {} instructions, checksum {:#x}",
        calm.workload,
        calm.design,
        calm.total_seconds() * 1e3,
        calm.instructions,
        calm.checksum,
    );

    // 2. The paper's RF home trace: frequent power failures, JIT
    // checkpointing, adaptive maxline management.
    let cfg = SimConfig::wl_cache()
        .with_trace(TraceKind::Rf1)
        .with_verify();
    let stormy = Simulator::new(cfg).run(&workload)?;
    println!(
        "[RF trace 1 ] {} on {}: {:.3} ms total ({:.3} ms off), {} outages",
        stormy.workload,
        stormy.design,
        stormy.total_seconds() * 1e3,
        stormy.off_time_ps as f64 / 1e9,
        stormy.outages,
    );
    let wl = stormy.wl.as_ref().ok_or("a WL-Cache run has a WL report")?;
    println!(
        "              maxline range {}..{}, {} reconfigurations, {:.2} dirty lines/checkpoint",
        wl.maxline_min, wl.maxline_max, wl.reconfigurations, wl.avg_dirty_at_checkpoint,
    );

    // The checksum must be identical: crash consistency means power
    // failures are invisible to the program's results.
    assert_eq!(calm.checksum, stormy.checksum);
    println!("checksums match across {} power failures ✓", stormy.outages);
    Ok(())
}
