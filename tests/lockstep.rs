//! Lockstep groups: one kernel run driving several configurations'
//! machines (`Simulator::run_lockstep`) must give every member exactly
//! the `Report` — or the `SimError` — a solo `Simulator::run` gives.

use std::cell::Cell;
use std::sync::Once;
use wl_cache_repro::ehsim::{SimConfig as Cfg, SimError};
use wl_cache_repro::ehsim_cache::CacheGeometry;
use wl_cache_repro::prelude::*;

thread_local! {
    /// Panics raised on this thread, counted by the hook below.
    static PANICS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` and says whether it panicked (and caught it) on the way.
/// A group falls back to solo runs only after a panic — an aborting
/// machine, a kernel panic or a diverging load — so a group that ran
/// panic-free ran in lockstep to the end.
fn panicked_during<R>(f: impl FnOnce() -> R) -> (R, bool) {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.with(|p| p.set(p.get() + 1));
            default(info);
        }));
    });
    let before = PANICS.with(Cell::get);
    let r = f();
    (r, PANICS.with(Cell::get) != before)
}

/// Asserts that `run_lockstep(cfgs, w)` equals solo runs of `cfgs`,
/// field for field, error for error, and that it fell back to solo runs
/// only when `falls_back`; returns the solo outcomes.
fn check_group(cfgs: &[Cfg], w: &dyn Workload, falls_back: bool) -> Vec<Result<Report, SimError>> {
    let (grouped, fell_back) = panicked_during(|| Simulator::run_lockstep(cfgs, w));
    assert_eq!(fell_back, falls_back, "group fallback on {}", w.name());
    assert_eq!(grouped.len(), cfgs.len());
    cfgs.iter()
        .zip(grouped)
        .map(|(cfg, got)| {
            let solo = Simulator::new(cfg.clone()).run(w);
            assert_eq!(
                got,
                solo,
                "{} on {} / {}",
                cfg.design.label(),
                cfg.trace_label(),
                w.name()
            );
            solo
        })
        .collect()
}

/// [`check_group`] for a group whose members all complete.
fn assert_matches_solo(cfgs: &[Cfg], w: &dyn Workload) -> Vec<Result<Report, SimError>> {
    check_group(cfgs, w, false)
}

/// Stores, loads and compute stretches of up to several
/// `COMPUTE_CHUNK_CYCLES` chunks (the 23 kernels issue only short
/// ones).
struct LongCompute;

impl Workload for LongCompute {
    fn name(&self) -> &str {
        "long-compute"
    }
    fn mem_bytes(&self) -> u32 {
        4096
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        let mut acc = 0u64;
        for i in 0..3_000u32 {
            bus.store_u32((i * 68) % 4096, i);
            bus.compute(u64::from(i % 5) * 2_000 + 7);
            acc = acc.wrapping_add(u64::from(bus.load_u32((i * 36) % 4096)));
        }
        acc
    }
}

fn designs() -> Vec<Cfg> {
    let mut cfgs = Cfg::all_designs();
    cfgs.push(Cfg::wl_cache_dyn());
    cfgs
}

#[test]
fn every_design_matches_solo_on_each_trace() {
    let workloads: Vec<Box<dyn Workload>> = vec![Box::new(Qsort::small()), Box::new(Sha::small())];
    for w in &workloads {
        for trace in [TraceKind::None, TraceKind::Rf1, TraceKind::Rf3] {
            let cfgs: Vec<Cfg> = designs()
                .into_iter()
                .map(|c| c.with_trace(trace).with_verify())
                .collect();
            assert_matches_solo(&cfgs, w.as_ref());
        }
    }
}

/// The settle half's outage protocol (checkpoint, verify, recharge,
/// restore) runs inside the group for every member.
#[test]
fn every_design_matches_solo_through_outages() {
    let w = AdpcmDecode::new(60_000);
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .map(|c| {
            c.with_capacitor_uf(0.1)
                .with_trace(TraceKind::Rf3)
                .with_verify()
        })
        .collect();
    for (cfg, solo) in cfgs.iter().zip(assert_matches_solo(&cfgs, &w)) {
        let outages = solo.map(|r| r.outages).unwrap_or_default();
        assert!(outages > 0, "{}: no outage exercised", cfg.design.label());
    }
}

#[test]
fn long_compute_stretches_match_solo() {
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .map(|c| {
            c.with_capacitor_uf(0.1)
                .with_trace(TraceKind::Rf3)
                .with_verify()
        })
        .collect();
    for (cfg, solo) in cfgs.iter().zip(assert_matches_solo(&cfgs, &LongCompute)) {
        let outages = solo.map(|r| r.outages).unwrap_or_default();
        assert!(outages > 0, "{}: no outage exercised", cfg.design.label());
    }
}

#[test]
fn mixed_traces_capacitors_and_geometries_match_solo() {
    let w = AdpcmEncode::small();
    let mixed_traces = [
        Cfg::nvsram(),
        Cfg::wl_cache().with_trace(TraceKind::Rf1),
        Cfg::replay().with_trace(TraceKind::Rf3),
        Cfg::wl_cache_dyn().with_trace(TraceKind::Rf2),
    ];
    assert_matches_solo(&mixed_traces.map(Cfg::with_verify), &w);

    let mixed_hardware = [
        Cfg::wl_cache()
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
        Cfg::wl_cache()
            .with_geometry(CacheGeometry::new(1024, 1, 64))
            .with_trace(TraceKind::Rf1),
        Cfg::nvcache_wb()
            .with_geometry(CacheGeometry::new(512, 1, 64))
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf1),
        Cfg::vcache_wt().with_trace(TraceKind::Rf3),
    ];
    assert_matches_solo(&mixed_hardware.map(Cfg::with_verify), &w);
}

#[test]
fn a_failing_member_gets_its_solo_error_and_the_rest_their_reports() {
    // A 0.1 µF buffer fails several times within this kernel; the
    // limit of one outage makes that member abort.
    let w = AdpcmDecode::new(60_000);
    let mut doomed = Cfg::wl_cache()
        .with_capacitor_uf(0.1)
        .with_trace(TraceKind::Rf3);
    doomed.max_outages = 1;
    let cfgs = [
        Cfg::nvsram().with_trace(TraceKind::Rf3),
        doomed,
        Cfg::replay().with_trace(TraceKind::Rf3),
    ];
    let solo = check_group(&cfgs, &w, true);
    assert_eq!(
        solo[1],
        Err(SimError::TooManyOutages { limit: 1 }),
        "the doomed member fails solo"
    );
    assert!(solo[0].is_ok() && solo[2].is_ok());
}

#[test]
fn a_group_of_one_and_an_empty_group_are_plain_runs() {
    let w = Qsort::small();
    assert_matches_solo(&[Cfg::wl_cache().with_trace(TraceKind::Rf1)], &w);
    assert!(Simulator::run_lockstep(&[], &w).is_empty());
}
