//! The premise of one tag array per residency class: until power-off,
//! a write-back design's residency — which line sits in which slot,
//! with which LRU/FIFO stamps — is a function of the access stream,
//! the geometry and the replacement policy alone. Each of the four
//! write-back designs, driven by a random load/store stream, keeps its
//! array equal to a bare `TagArray` that only looks up and touches on a
//! hit and takes the policy victim and fills on a miss, slot for slot.
//! (VCache-WT, which does not allocate on a store miss, fails the same
//! check; its unit tests show that.)

use ehsim_cache::designs::{NvCacheWb, NvSramCache, ReplayCache, WriteBackDesign};
use ehsim_cache::{CacheGeometry, CacheStats, MemCtx, ReplacementPolicy, TagArray};
use ehsim_energy::EnergyMeter;
use ehsim_mem::{AccessSize, FunctionalMem, NvmEnergy, NvmPort, NvmTiming};
use ehsim_obs::ObserverBox;
use wl_cache::{AdaptationMode, DqPolicy, Thresholds, WlCacheBuilder};

/// A deterministic stream of `(is_store, addr)` over `span` bytes.
fn stream(seed: u64, span: u32, n: usize) -> Vec<(bool, u32)> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            #[expect(clippy::cast_possible_truncation, reason = "reduced modulo a u32")]
            let addr = (x % u64::from(span)) as u32 & !7;
            (x >> 40 & 1 == 1, addr)
        })
        .collect()
}

/// The residency step alone on a bare array.
fn bare_step(bare: &mut TagArray, addr: u32) {
    match bare.lookup(addr) {
        Some(sw) => bare.touch(sw),
        None => {
            let victim = bare.victim(addr);
            let _ = bare.fill_slot(victim, addr);
        }
    }
}

/// Asserts that `a` and `b` hold the same lines in the same slots with
/// the same stamps.
fn assert_same_residency(a: &TagArray, b: &TagArray, what: &str, op: usize) {
    assert_eq!(
        a.valid_lines().collect::<Vec<_>>(),
        b.valid_lines().collect::<Vec<_>>(),
        "{what}: lines differ after op {op}"
    );
    for (sw, _) in a.valid_lines() {
        assert_eq!(a.last_use(sw), b.last_use(sw), "{what}: LRU stamp, op {op}");
        assert_eq!(
            a.filled_at(sw),
            b.filled_at(sw),
            "{what}: fill stamp, op {op}"
        );
    }
}

/// Drives `design` and a bare array with one stream, comparing their
/// residency after every op.
fn check<D: WriteBackDesign>(mut design: D, what: &str) {
    let geom = design.core().array().geometry();
    let policy = design.core().array().policy();
    let mut bare = TagArray::new(geom, policy);
    let mut port = NvmPort::new();
    let (timing, energy) = (NvmTiming::default(), NvmEnergy::default());
    let mut nvm = FunctionalMem::new(1 << 14);
    let mut meter = EnergyMeter::new();
    let mut stats = CacheStats::new();
    let mut obs = ObserverBox::Noop;
    let mut now = 0;
    for (op, (store, addr)) in stream(0x9e37_79b9, 1 << 14, 20_000).into_iter().enumerate() {
        let mut ctx = MemCtx {
            now,
            port: &mut port,
            timing: &timing,
            energy: &energy,
            nvm: &mut nvm,
            meter: &mut meter,
            stats: &mut stats,
            cap_voltage: 3.3,
            obs: &mut obs,
        };
        now = if store {
            design.store(&mut ctx, addr, AccessSize::B8, op as u64)
        } else {
            design.load(&mut ctx, addr, AccessSize::B4).0
        };
        now = design.on_instructions(&mut ctx, op as u64 + 1).max(now) + 1_000;
        bare_step(&mut bare, addr);
        assert_same_residency(design.core().array(), &bare, what, op);
    }
}

fn geometries() -> [(CacheGeometry, ReplacementPolicy); 3] {
    [
        (CacheGeometry::new(1024, 2, 64), ReplacementPolicy::Lru),
        (CacheGeometry::new(1024, 2, 64), ReplacementPolicy::Fifo),
        (CacheGeometry::new(512, 4, 32), ReplacementPolicy::Lru),
    ]
}

#[test]
fn nvcache_wb_residency_is_the_bare_arrays() {
    for (g, p) in geometries() {
        check(NvCacheWb::new(g, p), "NVCache-WB");
    }
}

#[test]
fn nvsram_residency_is_the_bare_arrays() {
    for (g, p) in geometries() {
        check(NvSramCache::new(g, p), "NVSRAM(ideal)");
    }
}

#[test]
fn replay_cache_residency_is_the_bare_arrays() {
    for (g, p) in geometries() {
        check(ReplayCache::new(g, p, 64, 3.0), "ReplayCache");
    }
}

/// Cleanings, stalls and dynamic raises change dirty bits and timing,
/// never residency.
#[test]
fn wl_cache_residency_is_the_bare_arrays() {
    for (g, p) in geometries() {
        for (maxline, mode) in [
            (6, AdaptationMode::Adaptive),
            (2, AdaptationMode::Static),
            (2, AdaptationMode::Dynamic),
        ] {
            for dq in [DqPolicy::Fifo, DqPolicy::Lru] {
                let mut b = WlCacheBuilder::new();
                b.geometry(g)
                    .cache_policy(p)
                    .thresholds(Thresholds::with_maxline(8, maxline).expect("maxline fits"))
                    .dq_policy(dq)
                    .adaptation(mode);
                check(b.build(), "WL-Cache");
            }
        }
    }
}
