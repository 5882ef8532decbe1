//! Lockstep groups: one kernel run driving several configurations'
//! machines (`Simulator::run_lockstep`) must give every member exactly
//! the `Report` — or the `SimError` — a solo `Simulator::run` gives,
//! whether a member runs on the group's shared NVM or, under
//! `with_verify()`, on its own, whether it runs its own access half
//! or follows that of a member of its access class until its first
//! outage, and whether it runs its own residency step or follows the
//! tag array of a member of its residency class.

use std::cell::Cell;
use wl_cache_repro::ehsim::{SimConfig as Cfg, SimError};
use wl_cache_repro::ehsim_cache::CacheGeometry;
use wl_cache_repro::prelude::*;

/// A kernel that counts its runs. A group that ran in lockstep to the
/// end ran it once; a group that fell back to solo runs ran it once
/// more per member.
struct Counted<'a> {
    inner: &'a dyn Workload,
    runs: Cell<usize>,
}

impl Workload for Counted<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn mem_bytes(&self) -> u32 {
        self.inner.mem_bytes()
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        self.runs.set(self.runs.get() + 1);
        self.inner.run(bus)
    }
}

/// Asserts that `run_lockstep(cfgs, w)` equals solo runs of `cfgs`,
/// field for field, error for error, and that it fell back to solo runs
/// only when `falls_back`; returns the solo outcomes and the number of
/// members that followed another's access half.
fn check_group(
    cfgs: &[Cfg],
    w: &dyn Workload,
    falls_back: bool,
) -> (Vec<Result<Report, SimError>>, usize) {
    let (solo, followers, _) = check_group_residency(cfgs, w, falls_back);
    (solo, followers)
}

/// [`check_group`], also returning the number of members that followed
/// a residency-class lead's tag array.
fn check_group_residency(
    cfgs: &[Cfg],
    w: &dyn Workload,
    falls_back: bool,
) -> (Vec<Result<Report, SimError>>, usize, usize) {
    let counted = Counted {
        inner: w,
        runs: Cell::new(0),
    };
    let group = Simulator::run_lockstep_with(cfgs, &counted);
    let runs = if falls_back { 1 + cfgs.len() } else { 1 };
    assert_eq!(counted.runs.get(), runs, "kernel runs on {}", w.name());
    assert_eq!(group.fell_back, falls_back && cfgs.len() > 1);
    assert_eq!(group.outcomes.len(), cfgs.len());
    let solo = cfgs
        .iter()
        .zip(group.outcomes)
        .map(|(cfg, got)| {
            let got = got.map(|(report, _)| report);
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
        .collect();
    (solo, group.followers, group.residency_followers)
}

/// [`assert_matches_solo`] for a group in which `followers` members
/// follow a residency-class lead's tag array; returns the solo reports.
fn assert_shares_tags(cfgs: &[Cfg], w: &dyn Workload, followers: usize) -> Vec<Report> {
    let (solo, _, got) = check_group_residency(cfgs, w, false);
    assert_eq!(got, followers, "residency followers on {}", w.name());
    solo.into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("a member failed: {e}")))
        .collect()
}

/// [`check_group`] for a group whose members all complete.
fn assert_matches_solo(cfgs: &[Cfg], w: &dyn Workload) -> Vec<Result<Report, SimError>> {
    check_group(cfgs, w, false).0
}

/// [`assert_matches_solo`] for a group in which `followers` members
/// follow another's access half; returns the solo reports.
fn assert_shares(cfgs: &[Cfg], w: &dyn Workload, followers: usize) -> Vec<Report> {
    let (solo, got) = check_group(cfgs, w, false);
    assert_eq!(got, followers, "followers on {}", w.name());
    solo.into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("a member failed: {e}")))
        .collect()
}

/// Stores, loads and compute stretches of up to several
/// `COMPUTE_CHUNK_CYCLES` chunks (the 23 kernels issue only short
/// ones), over `bytes` of memory.
struct LongCompute {
    bytes: u32,
}

const LONG_COMPUTE: LongCompute = LongCompute { bytes: 4096 };

impl Workload for LongCompute {
    fn name(&self) -> &str {
        "long-compute"
    }
    fn mem_bytes(&self) -> u32 {
        self.bytes
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        let mut acc = 0u64;
        for i in 0..3_000u32 {
            bus.store_u32((i * 68) % self.bytes, i);
            bus.compute(u64::from(i % 5) * 2_000 + 7);
            acc = acc.wrapping_add(u64::from(bus.load_u32((i * 36) % self.bytes)));
        }
        acc
    }
}

fn designs() -> Vec<Cfg> {
    let mut cfgs = Cfg::all_designs();
    cfgs.push(Cfg::wl_cache_dyn());
    cfgs
}

/// Every design on each trace, each member finished by `finish`.
fn design_trace_grid(finish: fn(Cfg) -> Cfg) {
    let workloads: Vec<Box<dyn Workload>> = vec![Box::new(Qsort::small()), Box::new(Sha::small())];
    for w in &workloads {
        for trace in [TraceKind::None, TraceKind::Rf1, TraceKind::Rf3] {
            let cfgs: Vec<Cfg> = designs()
                .into_iter()
                .map(|c| finish(c.with_trace(trace)))
                .collect();
            assert_matches_solo(&cfgs, w.as_ref());
        }
    }
}

/// Every design on a 0.1 µF buffer under tr.3, each member finished by
/// `finish`, running `w`: every member must see outages.
fn through_outages(w: &dyn Workload, finish: fn(Cfg) -> Cfg) {
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .map(|c| finish(c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3)))
        .collect();
    for (cfg, solo) in cfgs.iter().zip(assert_matches_solo(&cfgs, w)) {
        let outages = solo.map(|r| r.outages).unwrap_or_default();
        assert!(outages > 0, "{}: no outage exercised", cfg.design.label());
    }
}

/// Leaves a configuration as it is: the member runs on the group's NVM.
fn shared(cfg: Cfg) -> Cfg {
    cfg
}

#[test]
fn every_design_matches_solo_on_each_trace() {
    design_trace_grid(Cfg::with_verify);
}

#[test]
fn every_design_matches_solo_on_each_trace_on_a_shared_nvm() {
    design_trace_grid(shared);
}

/// Every write-back design, WL-Cache(dyn) among them, follows
/// NVSRAM(ideal)'s tag array on each trace: four followers per group.
#[test]
fn every_class_design_follows_the_lead_on_each_trace() {
    for w in [&Qsort::small() as &dyn Workload, &AdpcmDecode::new(60_000)] {
        for trace in [TraceKind::None, TraceKind::Rf1, TraceKind::Rf3] {
            let cfgs: Vec<Cfg> = designs().into_iter().map(|c| c.with_trace(trace)).collect();
            assert_shares_tags(&cfgs, w, 4);
        }
    }
}

/// LRU and FIFO members are two residency classes, and so are two
/// geometries: each class has its own lead.
#[test]
fn policies_and_geometries_form_classes_of_their_own() {
    let fifo = |c: Cfg| c.with_cache_policy(wl_cache_repro::ehsim_cache::ReplacementPolicy::Fifo);
    let small = |c: Cfg| c.with_geometry(CacheGeometry::new(512, 2, 32));
    let cfgs = [
        Cfg::nvsram().with_trace(TraceKind::Rf3),
        fifo(Cfg::nvcache_wb()).with_trace(TraceKind::Rf1),
        Cfg::replay().with_trace(TraceKind::Rf1),
        fifo(Cfg::wl_cache()),
        small(Cfg::wl_cache_dyn()).with_trace(TraceKind::Rf3),
        small(Cfg::nvsram())
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
        fifo(Cfg::replay())
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
    ];
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        assert_shares_tags(&cfgs, w, 4);
    }
}

/// A verifying member keeps its own NVM and tag array; the member of
/// its would-be class after it leads.
#[test]
fn a_verifying_member_stays_out_of_its_class() {
    let cfgs = [
        Cfg::nvsram().with_trace(TraceKind::Rf3).with_verify(),
        Cfg::nvcache_wb().with_trace(TraceKind::Rf3),
        Cfg::wl_cache()
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
        Cfg::replay().with_verify(),
    ];
    assert_shares_tags(&cfgs, &AdpcmDecode::new(60_000), 1);
}

/// The lead, on the smallest capacitor, fails first and hands its class
/// to the next member, which fails later and hands it on; the last
/// member never fails and follows to the end.
#[test]
fn a_residency_lead_failing_first_hands_its_class_on() {
    let cfgs = [
        Cfg::nvsram()
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
        Cfg::replay().with_trace(TraceKind::Rf3),
        Cfg::wl_cache()
            .with_capacitor_uf(0.2)
            .with_trace(TraceKind::Rf3),
        Cfg::nvcache_wb(),
    ];
    let solo = assert_shares_tags(&cfgs, &AdpcmDecode::new(60_000), 3);
    assert!(solo[0].outages > solo[1].outages, "the lead fails first");
    assert!(solo[1].outages > 0 && solo[2].outages > 0);
    assert_eq!(solo[3].outages, 0);
}

/// The settle half's outage protocol (checkpoint, verify, recharge,
/// restore) runs inside the group for every member.
#[test]
fn every_design_matches_solo_through_outages() {
    through_outages(&AdpcmDecode::new(60_000), Cfg::with_verify);
}

/// Checkpoints and reboots write and read the group's NVM.
#[test]
fn every_design_matches_solo_through_outages_on_a_shared_nvm() {
    through_outages(&AdpcmDecode::new(60_000), shared);
}

#[test]
fn long_compute_stretches_match_solo() {
    through_outages(&LONG_COMPUTE, Cfg::with_verify);
}

#[test]
fn long_compute_stretches_match_solo_on_a_shared_nvm() {
    through_outages(&LONG_COMPUTE, shared);
}

/// A kernel of 4064 B rounds to 4064 B of NVM on 32 B lines and to
/// 4096 B on 64 B lines; the group's NVM takes the larger.
#[test]
fn a_group_mixing_32_and_64_byte_lines_matches_solo() {
    let w = LongCompute { bytes: 4064 };
    let line32 = CacheGeometry::new(1024, 2, 32);
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let c = c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3);
            if i % 2 == 0 {
                c.with_geometry(line32)
            } else {
                c
            }
        })
        .collect();
    assert_matches_solo(&cfgs, &w);
}

/// Verifying members run on their own NVMs beside members on the
/// group's.
#[test]
fn a_group_mixing_verifying_and_shared_members_matches_solo() {
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let c = c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3);
            if i % 2 == 0 {
                c.with_verify()
            } else {
                c
            }
        })
        .collect();
    assert_matches_solo(&cfgs, &AdpcmDecode::new(60_000));
    assert_matches_solo(&cfgs, &LONG_COMPUTE);
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
    let (solo, _) = check_group(&cfgs, &w, true);
    assert_eq!(
        solo[1],
        Err(SimError::TooManyOutages { limit: 1 }),
        "the doomed member fails solo"
    );
    assert!(solo[0].is_ok() && solo[2].is_ok());
}

thread_local! {
    /// Calls of the panic hook on this thread.
    static HOOK_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// An abort is how a run ends with a `SimError`, not a bug: neither a
/// solo run nor a group (nor its solo reruns) may print a panic message
/// for one.
#[test]
fn expected_aborts_never_reach_the_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        HOOK_CALLS.with(|c| c.set(c.get() + 1));
        default(info);
    }));
    let w = AdpcmDecode::new(60_000);
    let mut doomed = Cfg::wl_cache()
        .with_capacitor_uf(0.1)
        .with_trace(TraceKind::Rf3);
    doomed.max_outages = 1;
    let too_many = Err(SimError::TooManyOutages { limit: 1 });
    assert_eq!(Simulator::new(doomed.clone()).run(&w), too_many);
    let group = Simulator::run_lockstep(&[Cfg::nvsram().with_trace(TraceKind::Rf3), doomed], &w);
    assert_eq!(group[1], too_many);
    assert_eq!(
        HOOK_CALLS.with(Cell::get),
        0,
        "an abort reached the panic hook"
    );
}

#[test]
fn a_group_of_one_and_an_empty_group_are_plain_runs() {
    let w = Qsort::small();
    assert_matches_solo(&[Cfg::wl_cache().with_trace(TraceKind::Rf1)], &w);
    assert!(Simulator::run_lockstep(&[], &w).is_empty());
}

/// Each design's configurations in `powers`, design by design: one
/// access class of `powers.len()` per design but WL-Cache(dyn), whose
/// members all run their own access half. Returns the group and its
/// number of followers.
fn classes(powers: &[fn(Cfg) -> Cfg]) -> (Vec<Cfg>, usize) {
    let cfgs: Vec<Cfg> = designs()
        .into_iter()
        .flat_map(|d| powers.iter().map(move |p| p(d.clone())))
        .collect();
    let classes = designs().len() - 1;
    (cfgs, classes * (powers.len() - 1))
}

#[test]
fn access_classes_over_traces_match_solo() {
    let (cfgs, followers) = classes(&[
        |c| c.with_trace(TraceKind::Rf1),
        |c| c.with_trace(TraceKind::Rf3),
        |c| c.with_trace(TraceKind::Solar),
    ]);
    for w in [&Qsort::small() as &dyn Workload, &AdpcmDecode::new(60_000)] {
        assert_shares(&cfgs, w, followers);
    }
}

#[test]
fn access_classes_over_capacitors_match_solo() {
    let (cfgs, followers) = classes(&[
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf1),
        |c| c.with_trace(TraceKind::Rf1),
        |c| c.with_capacitor_uf(100.0).with_trace(TraceKind::Rf1),
    ]);
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let solo = assert_shares(&cfgs, w, followers);
        assert!(solo.iter().any(|r| r.outages > 0), "no outage exercised");
    }
}

/// Fig 10(b)'s shape: each design's access class over three
/// capacitors, and the access leaders of the write-back designs in one
/// residency class. Access-class followers of a residency-class follower
/// fork from it at their own first outage, and the heirs of failing
/// access leaders join the residency class.
#[test]
fn access_classes_fork_inside_a_residency_class() {
    let (cfgs, followers) = classes(&[
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf1),
        |c| c.with_capacitor_uf(0.344).with_trace(TraceKind::Rf1),
        |c| c.with_capacitor_uf(10.0).with_trace(TraceKind::Rf1),
    ]);
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let (solo, got, residency) = check_group_residency(&cfgs, w, false);
        assert_eq!(got, followers);
        // At least the three first write-back access leaders after
        // NVSRAM(ideal)'s, plus WL-Cache(dyn)'s three members.
        assert!(residency >= 6, "{residency} residency followers");
        assert!(
            solo.iter().flatten().any(|r| r.outages > 0),
            "no outage exercised"
        );
    }
}

/// A failure-free leader never settles; its followers on RF traces
/// boot, settle and fork on their own.
#[test]
fn a_failure_free_leader_with_rf_followers_matches_solo() {
    let (cfgs, followers) = classes(&[
        |c| c,
        |c| c.with_trace(TraceKind::Rf1),
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3),
    ]);
    let solo = assert_shares(&cfgs, &LONG_COMPUTE, followers);
    assert!(solo.iter().step_by(3).all(|r| r.outages == 0));
    assert!(solo.iter().skip(2).step_by(3).all(|r| r.outages > 0));
}

/// The leader, on the smallest capacitor, fails first and hands its
/// access state to the next member, which later fails and hands it on
/// to the last, which never fails and follows to the end.
#[test]
fn a_leader_failing_before_its_followers_promotes_one() {
    let (cfgs, followers) = classes(&[
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3),
        |c| c.with_trace(TraceKind::Rf3),
        |c| c.with_capacitor_uf(1000.0).with_trace(TraceKind::Rf3),
    ]);
    let solo = assert_shares(&cfgs, &AdpcmDecode::new(60_000), followers);
    for class in solo.chunks(3).take(designs().len() - 1) {
        assert!(class[0].outages > class[1].outages, "{}", class[0].design);
        assert!(class[1].outages > 0, "{}", class[1].design);
        assert_eq!(class[2].outages, 0, "{}", class[2].design);
    }
}

/// Every member of every class forks at its own first outage.
#[test]
fn a_group_whose_members_all_fork_matches_solo() {
    let (cfgs, followers) = classes(&[
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3),
        |c| c.with_capacitor_uf(0.2).with_trace(TraceKind::Rf3),
        |c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf1),
    ]);
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let solo = assert_shares(&cfgs, w, followers);
        assert!(solo.iter().all(|r| r.outages > 0), "a member never forked");
    }
}

/// Verifying members and WL-Cache(dyn) never follow, even beside
/// members of their class that would.
#[test]
fn verifying_and_dynamic_members_never_follow() {
    let cfgs = [
        Cfg::wl_cache_dyn().with_trace(TraceKind::Rf1),
        Cfg::wl_cache_dyn()
            .with_capacitor_uf(0.1)
            .with_trace(TraceKind::Rf3),
        Cfg::replay().with_trace(TraceKind::Rf1).with_verify(),
        Cfg::replay().with_trace(TraceKind::Rf3).with_verify(),
        Cfg::replay().with_trace(TraceKind::Rf1),
        Cfg::replay().with_trace(TraceKind::Rf3),
    ];
    assert_shares(&cfgs, &AdpcmDecode::new(60_000), 1);
}

// The settle half runs members two at a time: the followers in pairs,
// then the machines in pairs, each pair's outages after both settled.

/// Groups of one to six members on tr.3: pairs, and pairs plus one.
#[test]
fn odd_and_even_groups_settle_in_pairs_and_a_remainder() {
    let w = AdpcmDecode::new(60_000);
    for n in 1..=designs().len() {
        let cfgs: Vec<Cfg> = designs()
            .into_iter()
            .take(n)
            .map(|c| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3))
            .collect();
        let solo = assert_matches_solo(&cfgs, &w);
        assert!(solo.iter().flatten().all(|r| r.outages > 0), "group of {n}");
    }
}

/// Two members whose power runs are identical fail in the same op, so
/// both members of the pair run their outages after one settle. A
/// verifying member and WL-Cache(dyn) never follow, so each pair here
/// is two machines; the last pair's two verifying members keep NVMs of
/// their own.
#[test]
fn both_members_of_a_pair_failing_in_one_op_match_solo() {
    let dyn_rf3 = Cfg::wl_cache_dyn()
        .with_capacitor_uf(0.1)
        .with_trace(TraceKind::Rf3);
    let nvsram_rf3 = Cfg::nvsram()
        .with_capacitor_uf(0.1)
        .with_trace(TraceKind::Rf3);
    let cfgs = [
        nvsram_rf3.clone().with_verify(),
        nvsram_rf3,
        dyn_rf3.clone(),
        dyn_rf3.clone(),
        dyn_rf3.clone().with_verify(),
        dyn_rf3.with_verify(),
    ];
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let solo = assert_shares(&cfgs, w, 0);
        for pair in solo.chunks(2) {
            assert!(pair[0].outages > 0, "{}", pair[0].design);
            assert_eq!(pair[0].outages, pair[1].outages, "{}", pair[0].design);
            assert_eq!(pair[0].total_time_ps, pair[1].total_time_ps);
        }
    }
}

/// Two access leaders' followers settle as one pair over different
/// windows and meter totals, and fork from different leaders; a third
/// follower settles alone.
#[test]
fn followers_of_two_leaders_share_a_pair() {
    let small = |c: Cfg| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3);
    let cfgs = [
        Cfg::nvsram().with_trace(TraceKind::Rf1),
        Cfg::replay().with_trace(TraceKind::Rf1),
        small(Cfg::nvsram()),
        small(Cfg::replay()),
        Cfg::replay().with_trace(TraceKind::Solar),
    ];
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let solo = assert_shares(&cfgs, w, 3);
        assert!(solo[2].outages > 0 && solo[3].outages > 0, "no fork");
    }
}

/// WL-Cache(dyn) raises `Vbackup` inside a store, after every reboot
/// here, and the member beside it in each pair keeps its build-time
/// `Vbackup`.
#[test]
fn a_moving_vbackup_pairs_with_fixed_ones() {
    let small = |c: Cfg| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3);
    let cfgs = [
        small(Cfg::wl_cache_dyn()),
        small(Cfg::nvsram()),
        small(Cfg::vcache_wt()),
        small(Cfg::wl_cache_dyn()).with_capacitor_uf(0.2),
        small(Cfg::write_buffer()),
    ];
    let solo = assert_matches_solo(&cfgs, &FftInverse::small());
    for r in [&solo[0], &solo[3]] {
        let r = r.as_ref().expect("WL-Cache(dyn) completes");
        let raises = r.wl.as_ref().map_or(0, |wl| wl.dyn_raises);
        assert!(raises > 1 && r.outages > 0, "{raises} raises");
    }
    assert!(solo.iter().flatten().all(|r| r.outages > 0));
}

/// A verifying member settles in a pair with a member on the group's
/// NVM, and both run outages.
#[test]
fn a_verifying_member_inside_a_pair_matches_solo() {
    let small = |c: Cfg| c.with_capacitor_uf(0.1).with_trace(TraceKind::Rf3);
    let cfgs = [
        small(Cfg::wl_cache()).with_verify(),
        small(Cfg::vcache_wt()),
        small(Cfg::nvcache_wb()),
        small(Cfg::replay()).with_verify(),
    ];
    for w in [&AdpcmDecode::new(60_000) as &dyn Workload, &LONG_COMPUTE] {
        let solo = assert_matches_solo(&cfgs, w);
        assert!(solo.iter().flatten().all(|r| r.outages > 0));
    }
}
