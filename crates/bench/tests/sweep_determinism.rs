//! Report-level determinism of the sweep engine.
//!
//! [`ehsim_bench::exec::run_batch`] must return reports that are
//! field-for-field equal to a serial, cache-free rerun, for every
//! design and harvesting trace — regardless of worker count, memo
//! state, or submission order. The figure-level byte-identity test
//! (`sweep_golden`) checks the rendered TSVs; this one compares the
//! full [`ehsim::Report`] structs, so a divergence in any statistic
//! that happens not to be printed still fails.
//!
//! Kept as a single `#[test]` because the serial switch is a
//! process-wide environment variable.

use ehsim::SimConfig;
use ehsim_bench::exec::{run_batch, Job};
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;

#[test]
fn engine_reports_match_serial_reference() {
    // Every design (plus the dynamic WL variant) under a failure-free
    // and two harvested environments, on one small kernel. The batch
    // deliberately repeats the first config so the in-batch memo path is
    // exercised on the engine side.
    let mut cfgs: Vec<SimConfig> = Vec::new();
    for trace in [TraceKind::None, TraceKind::Rf1, TraceKind::Solar] {
        for cfg in SimConfig::all_designs() {
            cfgs.push(cfg.with_trace(trace));
        }
        cfgs.push(SimConfig::wl_cache_dyn().with_trace(trace));
    }
    let mut batch: Vec<Job> = cfgs
        .iter()
        .map(|cfg| Job::new(cfg.clone(), 0, Scale::Small))
        .collect();
    batch.push(batch[0].clone());

    // Engine side: parallel workers plus the memo cache.
    let engine = run_batch(&batch);

    // Serial, cache-free reference.
    std::env::set_var("EHSIM_SWEEP_SERIAL", "1");
    let serial = run_batch(&batch);
    std::env::remove_var("EHSIM_SWEEP_SERIAL");

    assert_eq!(engine.len(), serial.len());
    for (job, (e, s)) in batch.iter().zip(engine.iter().zip(&serial)) {
        assert_eq!(
            **e,
            **s,
            "engine and serial reports differ for {} on {}",
            job.cfg.design.label(),
            job.cfg.trace_label()
        );
    }
    // The duplicated head job must have produced the identical report.
    assert_eq!(engine[0], engine[batch.len() - 1]);
}
