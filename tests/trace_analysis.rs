//! End-to-end checks for the trace-analysis subsystem on real paper
//! kernels: lossless JSONL round-trips, pinned export contents,
//! cross-run diffing (self-diff must be clean, WL vs WL-dyn must name
//! its first divergence), constant-memory streaming, exact
//! energy-column reconciliation with the [`EnergyMeter`], and the JSONL
//! loader's byte-mutation property.

use wl_cache_repro::ehsim::Event;
use wl_cache_repro::ehsim_obs::{
    diff_runs, dq_occupancy, energy_series, render_diff, StreamingObserver, DEFAULT_STREAM_CAPACITY,
};
use wl_cache_repro::prelude::*;

fn kernel(name: &str, scale: Scale) -> Box<dyn Workload> {
    all23(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("{name} kernel present"))
}

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn traced(cfg: SimConfig, name: &str, scale: Scale) -> (Report, RunTrace) {
    Simulator::new(cfg)
        .run_traced(kernel(name, scale).as_ref())
        .expect("simulation succeeds")
}

#[test]
fn jsonl_round_trip_is_lossless_on_a_real_run() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = traced(cfg, "FFT_i", Scale::Small);
    assert!(report.outages > 0, "rf3 must cause outages");

    let run = RunTrace::from_jsonl(&trace.jsonl()).expect("own JSONL parses");
    assert_eq!(run.events, trace.events, "event-for-event identical");
    assert_eq!(run.counters, trace.counters);
    assert_eq!(run.histograms, trace.histograms);
    assert_eq!(run.intervals(), trace.intervals(), "interval rows rebuild");

    // And the reloaded run re-renders byte-identical exports.
    assert_eq!(run.jsonl(), trace.jsonl());
    assert_eq!(run.interval_metrics_tsv(), trace.interval_metrics_tsv());
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins what the three exports of one real run contain, byte for byte.
/// The Chrome JSON and the interval TSV are write-only (nothing in the
/// workspace parses them back), so these digests are their content
/// check; `validate_chrome_trace` checks only structure.
#[test]
fn export_contents_are_pinned_on_a_real_run() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (_, trace) = traced(cfg, "FFT_i", Scale::Small);
    let digest = |s: String| (s.len(), fnv1a(s.as_bytes()));
    assert_eq!(
        digest(trace.chrome_trace("FFT_i / WL-Cache / rf3")),
        (2_098_971, 0x9d8c_bed5_9866_4405),
        "chrome_trace"
    );
    assert_eq!(
        digest(trace.interval_metrics_tsv()),
        (1_083, 0x0615_5c07_6704_29ce),
        "interval_metrics_tsv"
    );
    assert_eq!(
        digest(trace.jsonl()),
        (992_264, 0x265a_b6d0_b4cf_f4ef),
        "jsonl"
    );
}

#[test]
fn self_diff_reports_no_divergence() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (_, trace) = traced(cfg.clone(), "FFT_i", Scale::Small);
    let (_, again) = traced(cfg, "FFT_i", Scale::Small);

    let a = RunTrace::from_jsonl(&trace.jsonl()).unwrap();
    let b = RunTrace::from_jsonl(&again.jsonl()).unwrap();
    let report = diff_runs(&a, "a.jsonl", &b, "b.jsonl");
    assert!(report.identical(), "identical configs must not diverge");
    let text = render_diff(&report, &a, &b);
    assert!(text.contains("no divergence"), "{text}");
}

#[test]
fn wl_vs_wl_dyn_diff_names_the_first_divergence() {
    let (_, wl) = traced(
        SimConfig::wl_cache().with_trace(TraceKind::Rf3),
        "FFT_i",
        Scale::Small,
    );
    let (_, dyn_) = traced(
        SimConfig::wl_cache_dyn().with_trace(TraceKind::Rf3),
        "FFT_i",
        Scale::Small,
    );

    let a = RunTrace::from_jsonl(&wl.jsonl()).unwrap();
    let b = RunTrace::from_jsonl(&dyn_.jsonl()).unwrap();
    let report = diff_runs(&a, "wl", &b, "wl-dyn");
    let div = report
        .divergence
        .as_ref()
        .expect("adaptive and dynamic adaptation must diverge");
    assert!(!div.fields.is_empty(), "divergence names concrete fields");
    assert!(
        div.a_state.is_some() && div.b_state.is_some(),
        "threshold state reported for both runs"
    );
    let text = render_diff(&report, &a, &b);
    assert!(text.contains("first divergence"), "{text}");
    assert!(text.contains("maxline"), "threshold state rendered: {text}");
}

#[test]
fn streaming_observer_is_constant_memory_on_a_heavy_run() {
    // qsort at default scale floods the recorder with well over 100k
    // events; the streaming observer must hold at most its fixed
    // capacity at any moment while losing nothing.
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (_, trace) = traced(cfg.clone(), "qsort", Scale::Default);
    assert!(
        trace.events.len() >= 100_000,
        "scenario must be heavy, got {} events",
        trace.events.len()
    );

    let dir = std::env::temp_dir();
    let path = dir.join("ehsim_trace_analysis_stream.jsonl");
    let obs = StreamingObserver::to_path(&path).unwrap();
    let stats = obs.stats_handle();
    let (_, _machine) = Simulator::new(cfg)
        .run_with(
            kernel("qsort", Scale::Default).as_ref(),
            ObserverBox::custom(obs),
        )
        .unwrap();

    let snap = stats.lock().unwrap().clone();
    assert_eq!(snap.io_error, None);
    assert!(snap.ended, "stream closed with RunEnd");
    assert_eq!(snap.events as usize, trace.events.len());
    assert!(
        snap.peak_buffered <= DEFAULT_STREAM_CAPACITY,
        "peak {} exceeds capacity {}",
        snap.peak_buffered,
        DEFAULT_STREAM_CAPACITY
    );
    assert_eq!(snap.counters, trace.counters);
    assert_eq!(snap.histograms, trace.histograms);

    // The streamed file reconciles event-for-event with the in-memory
    // recording of the identical run.
    let streamed = RunTrace::load(&path.display().to_string()).unwrap();
    assert_eq!(streamed.events, trace.events);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn interval_energy_columns_reconcile_with_the_meter() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = traced(cfg, "FFT_i", Scale::Small);
    let rows = trace.intervals();
    assert!(rows.len() as u64 > report.outages);

    // Every interval that closed with an energy sample carries exact
    // cumulative and delta columns: the delta is bit-identical to the
    // difference of adjacent cumulatives, and the final cumulative
    // consumed energy is bit-identical to the meter's total.
    let mut prev_h = 0.0f64;
    let mut prev_c = 0.0f64;
    let mut sampled = 0;
    for row in &rows {
        let (Some(h), Some(c)) = (row.harvested_cum_pj, row.consumed_cum_pj) else {
            continue;
        };
        sampled += 1;
        assert_eq!(
            row.harvested_delta_pj,
            Some(h - prev_h),
            "interval {}",
            row.interval
        );
        assert_eq!(
            row.consumed_delta_pj,
            Some(c - prev_c),
            "interval {}",
            row.interval
        );
        assert!(h >= prev_h && c >= prev_c, "cumulative energy is monotone");
        prev_h = h;
        prev_c = c;
    }
    assert!(
        sampled as u64 > report.outages,
        "every checkpoint and the run end sample energy"
    );
    assert_eq!(
        prev_c,
        report.energy.total(),
        "final cumulative consumed energy equals the meter total bit-for-bit"
    );
    assert!(prev_h > 0.0, "harvesting recorded on an rf3 run");

    // The final EnergySample event is the run-end one.
    let last_energy = trace
        .events
        .iter()
        .rev()
        .find_map(|&(_, ev)| match ev {
            Event::EnergySample {
                harvested_pj,
                consumed_pj,
            } => Some((harvested_pj, consumed_pj)),
            _ => None,
        })
        .expect("run ends with an energy sample");
    assert_eq!(last_energy.0, prev_h);
    assert_eq!(last_energy.1, prev_c);
}

/// Two rounds of stores to eight lines, more than WL-Cache's default
/// `maxline` of 6, each followed by a long compute stretch: on tr.3
/// that is enough for an outage, write-backs and DQ stalls, while the
/// JSONL capture stays near 3.4 kB.
struct Burst;

impl Workload for Burst {
    fn name(&self) -> &str {
        "burst"
    }
    fn mem_bytes(&self) -> u32 {
        4096
    }
    fn run(&self, bus: &mut dyn Bus) -> u64 {
        for round in 0..2u32 {
            for line in 0..8u32 {
                bus.store_u32(line * 64 + round * 4, round ^ line);
            }
            bus.compute(400_000);
        }
        (0..8u32).map(|l| u64::from(bus.load_u32(l * 64))).sum()
    }
}

/// The JSONL loader's byte-mutation property, over the whole loaded
/// pipeline: every truncation and every single-byte mutation of a real
/// capture is rejected or loads, and never panics; every run that loads
/// also goes through `diff_runs` against the original, both series
/// folds and both exports. The XOR masks alone never turn a digit into
/// `e`, `-` or another digit, so those substitutions run too. A capture
/// carries no checksum, so a damaged digit can load as another
/// timeline; a load that yields the original events shows the damage
/// landed where the loader reads nothing.
#[test]
fn every_jsonl_byte_mutation_and_truncation_is_handled() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = Simulator::new(cfg)
        .run_traced(&Burst)
        .expect("simulation succeeds");
    let c = &trace.counters;
    assert!(
        report.outages > 0 && c.writebacks_issued > 0 && c.dq_stalls > 0,
        "{c:?}"
    );
    let bytes = trace.jsonl().into_bytes();
    let base = RunTrace::from_jsonl(&String::from_utf8_lossy(&bytes)).expect("own JSONL loads");

    let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.clone();
            bad[i] ^= mask;
            damaged.push(bad);
        }
        for sub in [b'e', b'-', b'9'] {
            if bytes[i] != sub {
                let mut bad = bytes.clone();
                bad[i] = sub;
                damaged.push(bad);
            }
        }
    }
    let (mut rejected, mut same, mut other) = (0, 0, 0);
    for bad in &damaged {
        match RunTrace::from_jsonl(&String::from_utf8_lossy(bad)) {
            Err(_) => rejected += 1,
            Ok(run) => {
                let diff = diff_runs(&base, "base", &run, "damaged");
                let _ = render_diff(&diff, &base, &run);
                let _ = dq_occupancy(&run);
                let _ = energy_series(&run);
                let _ = run.chrome_trace("damaged");
                let _ = run.interval_metrics_tsv();
                if run.events == base.events {
                    same += 1;
                } else {
                    other += 1;
                }
            }
        }
    }
    let tally = format!("{rejected} rejected, {same} identical, {other} other");
    assert!(rejected > 0 && same > 0 && other > 0, "{tally}");
}
