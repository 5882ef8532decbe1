//! Record/replay equivalence over the full workload suite.
//!
//! A [`BusTrace`] captures the design-independent half of a simulation;
//! replaying it against any configuration must reproduce the direct
//! run's [`ehsim::Report`] field-for-field — timing, outages, energy,
//! cache statistics, WL adaptation and checksum alike. The sim crate
//! pins this for one kernel across the design grid; these tests pin it
//! for **every** workload in the suite and for a sampled
//! design × harvesting-trace grid, at the scale the figure goldens use.

use ehsim::{BusTrace, SimConfig, Simulator};
use ehsim_energy::TraceKind;
use ehsim_workloads::Scale;

/// Every workload, one representative harvested configuration.
#[test]
fn all_workloads_replay_exactly() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf1);
    for w in ehsim_workloads::all23(Scale::Small) {
        let trace = BusTrace::record(w.as_ref());
        let direct = Simulator::new(cfg.clone()).run(w.as_ref()).unwrap();
        let replay = Simulator::new(cfg.clone()).run(&trace).unwrap();
        assert_eq!(direct, replay, "replay diverged for {}", w.name());
    }
}

/// Representative workloads, the whole design grid under several
/// harvesting environments — one recording fanned across every cell.
#[test]
fn design_grid_replays_exactly() {
    for name in ["sha", "dijkstra", "adpcmdecode"] {
        let w = ehsim_workloads::all23(Scale::Small)
            .into_iter()
            .find(|w| w.name() == name)
            .unwrap();
        let trace = BusTrace::record(w.as_ref());
        for kind in [TraceKind::None, TraceKind::Rf1, TraceKind::Solar] {
            let mut cfgs = SimConfig::all_designs();
            cfgs.push(SimConfig::wl_cache_dyn());
            for cfg in cfgs {
                let cfg = cfg.with_trace(kind);
                let direct = Simulator::new(cfg.clone()).run(w.as_ref()).unwrap();
                let replay = Simulator::new(cfg.clone()).run(&trace).unwrap();
                assert_eq!(
                    direct,
                    replay,
                    "replay diverged for {name} / {} / {}",
                    cfg.design.label(),
                    cfg.trace_label()
                );
            }
        }
    }
}

/// Crash-consistency verification sees identical machines under replay:
/// the oracle memory is rebuilt from the replayed stream, so `--verify`
/// passes and the report still matches the direct run.
#[test]
fn verified_replay_matches_direct() {
    let w = ehsim_workloads::all23(Scale::Small)
        .into_iter()
        .find(|w| w.name() == "qsort")
        .unwrap();
    let trace = BusTrace::record(w.as_ref());
    let cfg = SimConfig::wl_cache()
        .with_trace(TraceKind::Rf2)
        .with_verify();
    let direct = Simulator::new(cfg.clone()).run(w.as_ref()).unwrap();
    let replay = Simulator::new(cfg).run(&trace).unwrap();
    assert_eq!(direct, replay);
}
