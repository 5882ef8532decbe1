//! Sensitivity-direction tests: the qualitative relationships the
//! paper's §6.5 sweeps rely on must hold in the models.

use wl_cache_repro::ehsim::{SimConfig, Simulator};
use wl_cache_repro::ehsim_cache::CacheGeometry;
use wl_cache_repro::prelude::*;

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn time(cfg: SimConfig, w: &dyn Workload) -> u64 {
    Simulator::new(cfg).run(w).expect("run").total_time_ps
}

#[test]
fn bigger_caches_hit_more() {
    let w = JpegEncode::small();
    let mut rates = Vec::new();
    for size in [128u32, 512, 2048] {
        let cfg = SimConfig::wl_cache().with_geometry(CacheGeometry::new(size, 2, 64));
        let r = Simulator::new(cfg).run(&w).unwrap();
        rates.push(r.cache.hit_rate());
    }
    assert!(rates[0] < rates[1] && rates[1] <= rates[2], "{rates:?}");
}

#[test]
fn bigger_caches_run_faster_without_failures() {
    let w = Qsort::small();
    let t_small = time(
        SimConfig::wl_cache().with_geometry(CacheGeometry::new(128, 2, 64)),
        &w,
    );
    let t_big = time(
        SimConfig::wl_cache().with_geometry(CacheGeometry::new(4096, 2, 64)),
        &w,
    );
    assert!(t_big < t_small);
}

#[test]
fn smaller_capacitors_fail_more_often() {
    // The energy buffer bounds each power-on interval: shrinking it
    // multiplies outages (the left side of Fig 10(b)'s U-shape).
    let w = AdpcmDecode::new(60_000);
    let outages = |uf: f64| {
        Simulator::new(
            SimConfig::wl_cache()
                .with_trace(TraceKind::Rf3)
                .with_capacitor_uf(uf),
        )
        .run(&w)
        .expect("run")
        .outages
    };
    let tiny = outages(0.15);
    let normal = outages(1.0);
    assert!(
        tiny > normal,
        "0.15 µF ({tiny} outages) must out-fail 1 µF ({normal})"
    );
}

#[test]
fn wl_maxline_bounds_checkpoint_size() {
    for maxline in [2usize, 4, 6] {
        let cfg = SimConfig::wl_cache_static(maxline).with_trace(TraceKind::Rf2);
        let r = Simulator::new(cfg).run(&GsmDecode::small()).unwrap();
        let wl = r.wl.expect("wl report");
        assert!(
            wl.avg_dirty_at_checkpoint <= maxline as f64 + 1e-9,
            "maxline {maxline}: flushed {} lines/interval on average",
            wl.avg_dirty_at_checkpoint
        );
    }
}

#[test]
fn wl_stall_overhead_is_small() {
    // §6.6: pipeline stalls cost < 1 % of execution time on average.
    let r = Simulator::new(SimConfig::wl_cache().with_trace(TraceKind::Rf1))
        .run(&AdpcmDecode::small())
        .unwrap();
    let wl = r.wl.expect("wl report");
    // The paper reports < 1 % on average across the suite; allow a few
    // percent for a single store-dense kernel at test scale.
    assert!(
        wl.stall_fraction < 0.06,
        "stall fraction {} too large",
        wl.stall_fraction
    );
}

#[test]
fn write_through_never_holds_dirty_lines() {
    let r = Simulator::new(SimConfig::vcache_wt().with_trace(TraceKind::Rf1))
        .run(&SusanCorners::small())
        .unwrap();
    assert_eq!(r.cache.checkpoint_lines, 0);
    assert_eq!(r.cache.async_writebacks, 0);
    assert_eq!(r.cache.evict_writebacks, 0);
}

#[test]
fn nvsram_reserves_for_every_line_but_wl_only_for_maxline() {
    use wl_cache_repro::ehsim_cache::designs::NvSramCache;
    use wl_cache_repro::ehsim_cache::{CacheDesign, ReplacementPolicy};
    use wl_cache_repro::ehsim_mem::NvmEnergy;
    use wl_cache_repro::wl_cache::WlCache;

    let geom = CacheGeometry::paper_default();
    let e = NvmEnergy::default();
    let nvsram = NvSramCache::new(geom, ReplacementPolicy::Lru).worst_checkpoint_pj(&e);
    let wl = WlCache::new().worst_checkpoint_pj(&e);
    assert!(
        nvsram > 10.0 * wl,
        "NVSRAM reserve {nvsram} pJ should dwarf WL's {wl} pJ"
    );
}
