//! Observation must not perturb simulation. Observed and unobserved
//! runs share one settlement path and differ only in the
//! `ObserverBox::enabled` guards around event emission, so over random
//! kernels and harvesting traces — including WL-Cache(dyn), whose
//! mid-store `Vbackup` raise moves a threshold between two settlements
//! — an unobserved run and a run with a voltage-sampling recorder
//! attached must produce field-for-field identical [`Report`]s and
//! resolve the same number of settlement windows.

use ehsim::params::COMPUTE_CHUNK_CYCLES;
use ehsim::{Machine, ObserverBox, Report, SimConfig, SimError, Simulator};
use ehsim_energy::TraceKind;
use ehsim_mem::{Bus, Workload};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Load(u32),
    Store(u32, u32),
    Compute(u64),
}

/// A kernel defined entirely by a generated op list: deterministic,
/// replayable, and free to mix bus traffic with compute stretches long
/// enough to sag the capacitor mid-run.
#[derive(Debug, Clone)]
struct RandKernel {
    ops: Vec<Op>,
}

impl Workload for RandKernel {
    fn name(&self) -> &str {
        "randkernel"
    }
    fn mem_bytes(&self) -> u32 {
        4096
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        let mut acc = 0u64;
        for op in &self.ops {
            match *op {
                Op::Load(a) => acc = acc.wrapping_add(u64::from(bus.load_u32(a))),
                Op::Store(a, v) => bus.store_u32(a, v),
                Op::Compute(c) => bus.compute(c),
            }
        }
        acc
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Unweighted union (the vendored proptest has no weight syntax);
    // the repeated arms skew the mix toward bus traffic, with one rare
    // long stretch that crosses many chunk boundaries and forces
    // outages inside a compute stretch, not only at bus ops.
    prop_oneof![
        (0u32..1024).prop_map(|a| Op::Load(a * 4)),
        (0u32..512).prop_map(|a| Op::Load(a * 8)),
        ((0u32..1024), any::<u32>()).prop_map(|(a, v)| Op::Store(a * 4, v)),
        ((0u32..512), any::<u32>()).prop_map(|(a, v)| Op::Store(a * 8, v)),
        (1u64..6000).prop_map(Op::Compute),
        Just(Op::Compute(300_000)),
    ]
}

fn configs() -> Vec<SimConfig> {
    let designs = [
        SimConfig::nvsram(),
        SimConfig::vcache_wt(),
        SimConfig::replay(),
        SimConfig::wl_cache(),
        SimConfig::wl_cache_dyn(),
    ];
    let traces = [TraceKind::None, TraceKind::Rf1, TraceKind::Solar];
    designs
        .iter()
        .flat_map(|d| traces.iter().map(|&t| d.clone().with_trace(t)))
        .collect()
}

/// Settlement windows a run of `kernel` must resolve: one per bus op
/// plus one per `COMPUTE_CHUNK_CYCLES` chunk of each compute stretch.
/// Outages add none — the outage protocol syncs energy without opening
/// a window.
fn expected_windows(kernel: &RandKernel) -> u64 {
    kernel
        .ops
        .iter()
        .map(|op| match *op {
            Op::Load(_) | Op::Store(..) => 1,
            Op::Compute(c) => c.div_ceil(COMPUTE_CHUNK_CYCLES),
        })
        .sum()
}

fn run_with(
    cfg: &SimConfig,
    kernel: &RandKernel,
    obs: ObserverBox,
) -> Result<(Report, Machine), SimError> {
    Simulator::new(cfg.clone()).run_with(kernel, obs)
}

fn label(r: &Result<(Report, Machine), SimError>) -> String {
    match r {
        Ok((rep, _)) => format!("ok: {} outages, {} instrs", rep.outages, rep.instructions),
        Err(e) => format!("err: {e}"),
    }
}

/// The one-engine settle-count pin: on a failure-free machine every
/// bus op settles once and every compute stretch settles once per
/// chunk, so the telemetry counter is a closed form of the kernel.
#[test]
fn settle_windows_are_one_per_bus_op_plus_one_per_compute_chunk() {
    let kernel = RandKernel {
        ops: vec![
            Op::Compute(300_000),
            Op::Load(64),
            Op::Store(128, 7),
            Op::Compute(5_000),
            Op::Load(256),
            Op::Compute(300_000),
            Op::Compute(1),
        ],
    };
    let want = expected_windows(&kernel);
    assert_eq!(want, 3 + 150 + 3 + 150 + 1);
    for cfg in configs().into_iter().filter(|c| c.trace == TraceKind::None) {
        let (report, m) = run_with(&cfg, &kernel, ObserverBox::Noop)
            .unwrap_or_else(|e| panic!("{}: {e}", cfg.design.label()));
        assert_eq!(report.outages, 0);
        assert_eq!(
            m.settle_windows(),
            want,
            "settle windows for {}",
            cfg.design.label()
        );
        let plain = Simulator::new(cfg.clone()).run(&kernel).unwrap();
        assert_eq!(plain, report, "Simulator::run is run_with(Noop)");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn observed_and_unobserved_runs_are_identical(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let kernel = RandKernel { ops };
        let want = expected_windows(&kernel);
        for cfg in configs() {
            let plain = run_with(&cfg, &kernel, ObserverBox::Noop);
            let observed = run_with(&cfg, &kernel, ObserverBox::recording_sampled());
            match (&plain, &observed) {
                (Ok((p, pm)), Ok((o, om))) => {
                    prop_assert_eq!(
                        p,
                        o,
                        "observation perturbed {} on {}",
                        cfg.design.label(),
                        cfg.trace_label()
                    );
                    prop_assert_eq!(pm.settle_windows(), om.settle_windows());
                    prop_assert_eq!(pm.settle_windows(), want);
                }
                (Err(p), Err(o)) => prop_assert_eq!(p, o),
                (p, o) => prop_assert!(
                    false,
                    "runs disagreed on outcome for {} on {}: unobserved={}, observed={}",
                    cfg.design.label(),
                    cfg.trace_label(),
                    label(p),
                    label(o)
                ),
            }
        }
    }
}
