//! Report-level determinism of the sweep engine.
//!
//! [`ehsim_bench::exec::run_batch`] must return reports that are
//! field-for-field equal to a direct [`ehsim::Simulator::run`] of each
//! job (through [`ehsim_bench::run`]), for every design and harvesting
//! trace — regardless of worker count, memo state, or submission
//! order, and however the batch falls into lockstep groups. The
//! rendered figure TSVs are pinned by `pinned_goldens`; this test
//! compares the full [`ehsim::Report`] structs, so a divergence in any
//! statistic that happens not to be printed still fails.

use ehsim::SimConfig;
use ehsim_bench::exec::{self, run_batch, Job};
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;

/// Asserts that every report of `batch` from the engine equals a direct
/// run of its job, and that no lockstep group fell back to solo runs;
/// returns the engine's reports.
fn assert_engine_matches_direct(batch: &[Job], scale: Scale) -> Vec<std::sync::Arc<ehsim::Report>> {
    // Engine side: parallel workers plus the memo cache.
    let engine = run_batch(batch);
    assert_eq!(
        exec::stats().lockstep_fallbacks,
        0,
        "a lockstep group fell back"
    );

    // Reference: one fresh simulator per job, outside the executor.
    let workloads = ehsim_workloads::all23(scale);
    assert_eq!(engine.len(), batch.len());
    for (job, e) in batch.iter().zip(&engine) {
        let w = workloads[job.workload].as_ref();
        let direct = ehsim_bench::run(job.cfg.clone(), w);
        assert_eq!(
            **e,
            direct,
            "engine and direct reports differ for {} on {} / {}",
            job.cfg.design.label(),
            job.cfg.trace_label(),
            w.name()
        );
    }
    engine
}

#[test]
fn engine_reports_match_direct_runs() {
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

    let engine = assert_engine_matches_direct(&batch, Scale::Small);
    // The duplicated head job must have produced the identical report.
    assert_eq!(engine[0], engine[batch.len() - 1]);
}

/// Two large Default-scale kernels (`sha`, 384 KiB of memory, and
/// `jpegdecode`, 250 KiB), every design on tr.3: each kernel's jobs run
/// as one lockstep group on one shared NVM, and every member's report
/// must still equal its direct run.
#[test]
fn large_kernels_group_on_a_shared_nvm_and_match_direct_runs() {
    let names: Vec<String> = ehsim_workloads::all23(Scale::Default)
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let index = |name: &str| names.iter().position(|n| n == name).expect(name);
    let mut cfgs = SimConfig::all_designs();
    cfgs.push(SimConfig::wl_cache_dyn());
    let batch: Vec<Job> = [index("sha"), index("jpegdecode")]
        .into_iter()
        .flat_map(|w| {
            cfgs.iter()
                .map(move |cfg| Job::new(cfg.clone().with_trace(TraceKind::Rf3), w, Scale::Default))
        })
        .collect();
    assert_engine_matches_direct(&batch, Scale::Default);
}

/// A Small batch of `cfgs` on three kernels, design by design as the
/// figures submit them: every report must equal its direct run, and
/// some jobs must have followed another's access half.
fn assert_classes_match_direct(cfgs: &[SimConfig]) {
    let before = exec::stats().lockstep_followers;
    let batch: Vec<Job> = cfgs
        .iter()
        .flat_map(|cfg| [0, 12, 16].map(|w| Job::new(cfg.clone(), w, Scale::Small)))
        .collect();
    assert_engine_matches_direct(&batch, Scale::Small);
    assert!(exec::stats().lockstep_followers > before, "no job followed");
}

/// Fig 10(b)'s shape: four designs on seven capacitors under tr.1,
/// four access classes of seven per kernel.
#[test]
fn capacitor_classes_match_direct_runs() {
    let designs = [
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::nvsram(),
        SimConfig::wl_cache(),
    ];
    let cfgs: Vec<SimConfig> = [0.1, 0.344, 1.0, 10.0, 100.0, 500.0, 1000.0]
        .into_iter()
        .flat_map(|uf| {
            designs
                .iter()
                .map(move |cfg| cfg.clone().with_capacitor_uf(uf).with_trace(TraceKind::Rf1))
        })
        .collect();
    assert_classes_match_direct(&cfgs);
}

/// Fig 13(a)'s shape: five designs, WL-Cache(dyn) among them, on five
/// traces; every WL-Cache(dyn) job runs its own access half.
#[test]
fn trace_classes_match_direct_runs() {
    let designs = [
        SimConfig::nvsram(),
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::wl_cache(),
        SimConfig::wl_cache_dyn(),
    ];
    let cfgs: Vec<SimConfig> = [
        TraceKind::Rf1,
        TraceKind::Rf2,
        TraceKind::Rf3,
        TraceKind::Solar,
        TraceKind::Thermal,
    ]
    .into_iter()
    .flat_map(|trace| designs.iter().map(move |cfg| cfg.clone().with_trace(trace)))
    .collect();
    assert_classes_match_direct(&cfgs);
}

/// Fig 4's shape — the five designs, failure-free, design by design —
/// on a geometry no other test here runs, so that nothing is memoized:
/// NVCache-WB, ReplayCache and WL-Cache follow NVSRAM(ideal)'s tag
/// array on every kernel, and every report equals its direct run.
#[test]
fn fig04_shaped_batches_share_tag_arrays_and_match_direct_runs() {
    let geometry = ehsim_cache::CacheGeometry::new(2048, 4, 32);
    let before = exec::stats().residency_followers;
    let batch: Vec<Job> = SimConfig::all_designs()
        .into_iter()
        .flat_map(|cfg| {
            let cfg = cfg.with_geometry(geometry);
            [0, 12, 16].map(move |w| Job::new(cfg.clone(), w, Scale::Small))
        })
        .collect();
    assert_engine_matches_direct(&batch, Scale::Small);
    assert!(
        exec::stats().residency_followers >= before + 9,
        "three members per kernel follow a residency-class lead"
    );
}
