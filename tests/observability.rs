//! End-to-end observability checks on a real paper kernel: a traced run
//! must (a) leave the simulation bit-identical to an untraced run,
//! (b) produce event counts that reconcile exactly with the run's
//! [`Report`] counters, and (c) export a structurally valid Chrome
//! `trace_event` JSON and per-interval metrics TSV.

use wl_cache_repro::ehsim::Event;
use wl_cache_repro::ehsim_obs::validate_chrome_trace;
use wl_cache_repro::prelude::*;

#[expect(
    clippy::expect_used,
    reason = "test code: a failure here fails the test"
)]
fn fft_i() -> Box<dyn Workload> {
    all23(Scale::Small)
        .into_iter()
        .find(|w| w.name() == "FFT_i")
        .expect("FFT_i kernel present")
}

#[test]
fn traced_fft_run_reconciles_with_its_report() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let w = fft_i();
    let plain = Simulator::new(cfg.clone()).run(w.as_ref()).unwrap();
    let (report, trace) = Simulator::new(cfg).run_traced(w.as_ref()).unwrap();

    // Observation must not perturb any simulated value.
    assert_eq!(plain, report);
    assert!(report.outages > 0, "FFT_i on rf3 must see outages");

    // Exact reconciliation between event counts and Report counters.
    assert_eq!(trace.counters.outages, report.outages);
    assert_eq!(trace.counters.checkpoints, report.outages);
    assert_eq!(trace.counters.power_ons, report.outages + 1);
    let wl = report.wl.as_ref().expect("WL design reports WL stats");
    assert_eq!(
        trace.counters.reconfigurations + trace.counters.dyn_raises,
        wl.reconfigurations,
        "threshold events must account for every reconfiguration"
    );
    assert_eq!(trace.counters.dyn_raises, wl.dyn_raises);
    assert_eq!(trace.counters.dq_stalls, wl.stalls);

    // The raw event stream agrees with the aggregated counters.
    let outage_events = trace.count(|e| matches!(e, Event::OutageBegin { .. }));
    let ckpt_events = trace.count(|e| matches!(e, Event::CheckpointBegin { .. }));
    let reconfig_events = trace.count(|e| matches!(e, Event::Reconfigure { .. }));
    let raise_events = trace.count(|e| matches!(e, Event::DynRaise { .. }));
    assert_eq!(outage_events, report.outages);
    assert_eq!(ckpt_events, report.outages);
    assert_eq!(reconfig_events + raise_events, wl.reconfigurations);

    // Histogram totals line up with the per-interval averages.
    assert_eq!(trace.histograms.dirty_at_checkpoint.count(), report.outages);
    let avg = trace.histograms.dirty_at_checkpoint.sum() as f64 / report.outages as f64;
    assert!((avg - wl.avg_dirty_at_checkpoint).abs() < 1e-9);
}

#[test]
fn exported_trace_json_is_valid_and_counts_match() {
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, trace) = Simulator::new(cfg).run_traced(fft_i().as_ref()).unwrap();
    let json = trace.chrome_trace("FFT_i / WL-Cache / rf3");
    let check = validate_chrome_trace(&json).expect("structurally valid trace");
    assert!(check.events > 0);
    assert!(check.spans > 0, "checkpoint/on spans expected");
    assert!(check.counters > 0, "dq occupancy counters expected");

    // Every outage leaves exactly one "checkpoint" span in the JSON
    // text: reconcile the rendered output, not just the in-memory
    // counters, against the report.
    let ckpt_spans = json
        .lines()
        .filter(|l| l.contains("\"ph\":\"B\"") && l.contains("\"name\":\"checkpoint\""))
        .count();
    assert_eq!(ckpt_spans as u64, report.outages);

    // One TSV row per completed power-on interval plus the final
    // partial interval closed by RunEnd (and one header line).
    let tsv = trace.interval_metrics_tsv();
    let rows = tsv.lines().filter(|l| !l.starts_with('#')).count() - 1;
    assert_eq!(rows as u64, report.outages + 1);

    // The `#` footer renders all three run-wide histograms, and the
    // outage-interval one reconciles with the report.
    let outage_summary = tsv
        .lines()
        .find(|l| l.starts_with("# histogram\toutage_interval_ps"))
        .expect("histogram footer present");
    assert!(
        outage_summary.contains(&format!("count={}", report.outages)),
        "footer disagrees with report ({} outages): {outage_summary}",
        report.outages
    );
    for name in ["dirty_at_checkpoint", "writeback_latency_ps"] {
        assert!(
            tsv.lines()
                .any(|l| l.starts_with(&format!("# histogram\t{name}"))),
            "missing {name} summary in footer"
        );
    }
}

#[test]
fn noop_observer_runs_report_no_events() {
    // A default (Noop) machine must claim to be disabled so emission
    // sites skip all work: this is the zero-cost contract's visible
    // half (the goldens pin the byte-identity half).
    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (_, machine) = Simulator::new(cfg)
        .run_with(fft_i().as_ref(), ObserverBox::Noop)
        .unwrap();
    assert!(!machine.observer().enabled());
    assert!(machine.observer().recorder().is_none());
}
