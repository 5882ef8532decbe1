//! End-to-end checks for the trace-analysis subsystem on real paper
//! kernels: lossless JSONL round-trips, lossy-but-reconciling Chrome
//! round-trips, cross-run diffing (self-diff must be clean, WL vs
//! WL-dyn must name its first divergence), constant-memory streaming,
//! and exact energy-column reconciliation with the [`EnergyMeter`].

use wl_cache_repro::ehsim::Event;
use wl_cache_repro::ehsim_analyze::{diff_runs, render_diff, Run};
use wl_cache_repro::ehsim_obs::{StreamingObserver, DEFAULT_STREAM_CAPACITY};
use wl_cache_repro::prelude::*;

fn kernel(name: &str, scale: Scale) -> Box<dyn Workload> {
    all23(scale)
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("{name} kernel present"))
}

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

    let run = Run::parse(&trace.jsonl()).expect("own JSONL parses");
    assert_eq!(run.events, trace.events, "event-for-event identical");
    assert_eq!(run.counters, trace.counters);
    assert_eq!(run.histograms, trace.histograms);
    assert_eq!(run.intervals, trace.intervals(), "interval rows rebuild");

    // And the reloaded run re-renders byte-identical exports.
    let back = run.to_trace();
    assert_eq!(back.jsonl(), trace.jsonl());
    assert_eq!(back.interval_metrics_tsv(), trace.interval_metrics_tsv());
}

#[test]
fn chrome_round_trip_reconciles_on_a_real_run() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = traced(cfg, "FFT_i", Scale::Small);

    let run = Run::parse(&trace.chrome_trace("FFT_i / WL-Cache / rf3")).expect("own JSON parses");
    assert_eq!(run.name.as_deref(), Some("FFT_i / WL-Cache / rf3"));

    // Chrome JSON is lossy only where documented (stale drops fold into
    // acks); every other counter and all histograms survive the trip.
    let (a, b) = (&run.counters, &trace.counters);
    assert_eq!(a.power_ons, b.power_ons);
    assert_eq!(a.outages, b.outages);
    assert_eq!(a.outages, report.outages);
    assert_eq!(a.checkpoints, b.checkpoints);
    assert_eq!(a.dq_enqueues, b.dq_enqueues);
    assert_eq!(a.dq_acks + a.stale_drops, b.dq_acks + b.stale_drops);
    assert_eq!(a.dq_stalls, b.dq_stalls);
    assert_eq!(a.writebacks_issued, b.writebacks_issued);
    assert_eq!(a.reconfigurations, b.reconfigurations);
    assert_eq!(a.dyn_raises, b.dyn_raises);
    assert_eq!(a.voltage_crossings, b.voltage_crossings);
    assert_eq!(a.energy_samples, b.energy_samples);
    assert_eq!(run.histograms, trace.histograms);

    // Interval rows reconcile too (timing fields are ps-exact because
    // the export renders microseconds with six decimals).
    let original = trace.intervals();
    assert_eq!(run.intervals.len(), original.len());
    for (ra, rb) in run.intervals.iter().zip(&original) {
        assert_eq!(ra.start_ps, rb.start_ps);
        assert_eq!(ra.end_ps, rb.end_ps);
        assert_eq!(ra.on_ps, rb.on_ps);
        assert_eq!(ra.dirty_flushed, rb.dirty_flushed);
        assert_eq!(ra.maxline, rb.maxline);
        assert_eq!(ra.waterline, rb.waterline);
        assert_eq!(ra.harvested_cum_pj, rb.harvested_cum_pj);
        assert_eq!(ra.consumed_cum_pj, rb.consumed_cum_pj);
    }
}

#[test]
fn self_diff_reports_no_divergence() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (_, trace) = traced(cfg.clone(), "FFT_i", Scale::Small);
    let (_, again) = traced(cfg, "FFT_i", Scale::Small);

    let a = Run::parse(&trace.jsonl()).unwrap();
    let b = Run::parse(&again.jsonl()).unwrap();
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

    let a = Run::parse(&wl.jsonl()).unwrap();
    let b = Run::parse(&dyn_.jsonl()).unwrap();
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
    let streamed = Run::load(&path.display().to_string()).unwrap();
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
/// Chrome export stays near 7.5 kB.
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

/// The Chrome loader's byte-mutation property: every truncation and
/// every single-byte mutation of a real export is rejected or parses,
/// and never panics. The XOR masks alone never turn a digit into `e`,
/// `-` or another digit, so those substitutions run too: a digit turned
/// into `e` can make a duration overflow `u64` ps once added to its
/// timestamp. The export carries no checksum, so a damaged digit can
/// parse to another timeline; a parse that yields the original events
/// shows the damage landed where the loader reads nothing.
#[test]
fn every_chrome_byte_mutation_and_truncation_is_handled() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = Simulator::new(cfg)
        .run_traced(&Burst)
        .expect("simulation succeeds");
    let c = &trace.counters;
    assert!(
        report.outages > 0 && c.writebacks_issued > 0 && c.dq_stalls > 0,
        "{c:?}"
    );
    let bytes = trace.chrome_trace("burst / WL-Cache / rf3").into_bytes();
    let base = Run::parse(&String::from_utf8_lossy(&bytes)).expect("own JSON parses");

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
    let (mut rejected, mut overflows, mut same, mut other) = (0, 0, 0, 0);
    for bad in &damaged {
        match Run::parse(&String::from_utf8_lossy(bad)) {
            Err(e) => {
                rejected += 1;
                overflows += usize::from(e.ends_with("ts + dur overflows"));
            }
            Ok(run) if run.events == base.events => same += 1,
            Ok(_) => other += 1,
        }
    }
    // Each outcome occurs, the overflow included.
    let tally =
        format!("{rejected} rejected ({overflows} overflows), {same} identical, {other} other");
    assert!(overflows > 0 && same > 0 && other > 0, "{tally}");
}
