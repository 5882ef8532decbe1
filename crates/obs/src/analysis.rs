//! Folds over a recorded run: cross-run diffing by power-on interval,
//! and the DirtyQueue-occupancy and per-interval energy series behind
//! `ehsim-cli diff-traces`, `dq-plot` and `energy-plot`.
//!
//! [`diff_runs`] aligns two runs by power-on interval and reports the
//! first divergence (outage timing, dirty-at-checkpoint counts,
//! threshold/DynRaise state) plus a summary table. Both series
//! reconcile exactly with the recorder's own tallies: the final
//! occupancy equals `dq_enqueues − dq_acks − stale_drops` from
//! [`crate::ObsCounters`], and the energy deltas telescope back to the
//! interval rows' cumulative columns (pinned by tests).

use crate::event::Event;
use crate::export::TraceInterval;
use crate::recorder::RunTrace;
use ehsim_mem::Ps;
use std::fmt::Write as _;

/// One differing field of the first diverging interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Interval-row field name (matches the TSV column).
    pub field: &'static str,
    /// Value in run A.
    pub a: String,
    /// Value in run B.
    pub b: String,
}

/// WL threshold state of one side at the diverging interval, for
/// answering "did the adaptive/dynamic controller cause this?" at a
/// glance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdState {
    /// `maxline` in force when the interval closed.
    pub maxline: Option<usize>,
    /// `waterline` in force when the interval closed.
    pub waterline: Option<usize>,
    /// Dynamic raises inside the interval.
    pub dyn_raises: u64,
}

impl ThresholdState {
    fn of(row: &TraceInterval) -> Self {
        ThresholdState {
            maxline: row.maxline,
            waterline: row.waterline,
            dyn_raises: row.dyn_raises,
        }
    }
}

/// The first point where two runs' timelines disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Power-on interval index at which the runs first differ.
    pub interval: u64,
    /// Every differing field of that interval (empty when the
    /// divergence is one run ending early — see `fields` docs).
    pub fields: Vec<FieldDiff>,
    /// Threshold/DynRaise state of run A at the divergence (if the
    /// interval exists there).
    pub a_state: Option<ThresholdState>,
    /// Threshold/DynRaise state of run B at the divergence.
    pub b_state: Option<ThresholdState>,
}

/// Result of [`diff_runs`]: alignment outcome plus summary totals.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Display label of run A (file name or trace process name).
    pub a_label: String,
    /// Display label of run B.
    pub b_label: String,
    /// Interval count of run A.
    pub a_intervals: usize,
    /// Interval count of run B.
    pub b_intervals: usize,
    /// First divergence, or `None` when the runs agree on every
    /// compared interval field.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// `true` when no divergence was found.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

fn push_diff<T: PartialEq + std::fmt::Debug>(
    fields: &mut Vec<FieldDiff>,
    field: &'static str,
    a: &T,
    b: &T,
) {
    if a != b {
        fields.push(FieldDiff {
            field,
            a: format!("{a:?}"),
            b: format!("{b:?}"),
        });
    }
}

/// Compares two interval rows field by field, in severity order:
/// timing first (outage alignment), then checkpoint/DirtyQueue
/// behavior, then threshold state, then energy accounting.
fn diff_rows(a: &TraceInterval, b: &TraceInterval) -> Vec<FieldDiff> {
    let mut fields = Vec::new();
    push_diff(&mut fields, "start_ps", &a.start_ps, &b.start_ps);
    push_diff(&mut fields, "end_ps", &a.end_ps, &b.end_ps);
    push_diff(&mut fields, "on_ps", &a.on_ps, &b.on_ps);
    push_diff(
        &mut fields,
        "dirty_flushed",
        &a.dirty_flushed,
        &b.dirty_flushed,
    );
    push_diff(&mut fields, "cleanings", &a.cleanings, &b.cleanings);
    push_diff(&mut fields, "enqueues", &a.enqueues, &b.enqueues);
    push_diff(&mut fields, "acks", &a.acks, &b.acks);
    push_diff(&mut fields, "stalls", &a.stalls, &b.stalls);
    push_diff(&mut fields, "stale_drops", &a.stale_drops, &b.stale_drops);
    push_diff(&mut fields, "dyn_raises", &a.dyn_raises, &b.dyn_raises);
    push_diff(&mut fields, "maxline", &a.maxline, &b.maxline);
    push_diff(&mut fields, "waterline", &a.waterline, &b.waterline);
    push_diff(
        &mut fields,
        "harvested_pj",
        &a.harvested_delta_pj,
        &b.harvested_delta_pj,
    );
    push_diff(
        &mut fields,
        "consumed_pj",
        &a.consumed_delta_pj,
        &b.consumed_delta_pj,
    );
    fields
}

/// Aligns two runs by power-on interval index and finds the first
/// diverging interval (or the point where one run ends early).
pub fn diff_runs(a: &RunTrace, a_label: &str, b: &RunTrace, b_label: &str) -> DiffReport {
    let (a_rows, b_rows) = (a.intervals(), b.intervals());
    let mut divergence = None;
    for (i, (ra, rb)) in a_rows.iter().zip(&b_rows).enumerate() {
        let fields = diff_rows(ra, rb);
        if !fields.is_empty() {
            divergence = Some(Divergence {
                interval: i as u64,
                fields,
                a_state: Some(ThresholdState::of(ra)),
                b_state: Some(ThresholdState::of(rb)),
            });
            break;
        }
    }
    if divergence.is_none() && a_rows.len() != b_rows.len() {
        // All shared intervals agree but one run has more: the first
        // unmatched interval is the divergence.
        let i = a_rows.len().min(b_rows.len());
        divergence = Some(Divergence {
            interval: i as u64,
            fields: vec![FieldDiff {
                field: "interval_count",
                a: a_rows.len().to_string(),
                b: b_rows.len().to_string(),
            }],
            a_state: a_rows.get(i).map(ThresholdState::of),
            b_state: b_rows.get(i).map(ThresholdState::of),
        });
    }
    DiffReport {
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        a_intervals: a_rows.len(),
        b_intervals: b_rows.len(),
        divergence,
    }
}

fn state_line(side: &str, label: &str, state: Option<ThresholdState>) -> String {
    let fmt = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    match state {
        Some(s) => format!(
            "  {side} {label}: maxline={} waterline={} dyn_raises={}\n",
            fmt(s.maxline),
            fmt(s.waterline),
            s.dyn_raises
        ),
        None => format!("  {side} {label}: (no such interval)\n"),
    }
}

/// Renders a [`DiffReport`] with the side-by-side summary table.
pub fn render_diff(report: &DiffReport, a: &RunTrace, b: &RunTrace) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "diff: A = {}, B = {}", report.a_label, report.b_label);
    match &report.divergence {
        None => {
            let _ = writeln!(
                s,
                "no divergence: {} power-on interval(s) identical",
                report.a_intervals
            );
        }
        Some(d) => {
            let _ = writeln!(s, "first divergence: power-on interval {}", d.interval);
            for f in &d.fields {
                let _ = writeln!(s, "  {:<14} {} vs {}", f.field, f.a, f.b);
            }
            s.push_str(&state_line("A", "threshold state", d.a_state));
            s.push_str(&state_line("B", "threshold state", d.b_state));
        }
    }
    let _ = writeln!(s, "\nsummary:");
    let _ = writeln!(s, "  {:<22} {:>14} {:>14}", "metric", "A", "B");
    let rows: [(&str, u64, u64); 9] = [
        (
            "intervals",
            report.a_intervals as u64,
            report.b_intervals as u64,
        ),
        ("outages", a.counters.outages, b.counters.outages),
        (
            "checkpoints",
            a.counters.checkpoints,
            b.counters.checkpoints,
        ),
        (
            "reconfigurations",
            a.counters.reconfigurations,
            b.counters.reconfigurations,
        ),
        ("dyn_raises", a.counters.dyn_raises, b.counters.dyn_raises),
        (
            "dq_enqueues",
            a.counters.dq_enqueues,
            b.counters.dq_enqueues,
        ),
        ("dq_acks", a.counters.dq_acks, b.counters.dq_acks),
        ("dq_stalls", a.counters.dq_stalls, b.counters.dq_stalls),
        (
            "writebacks",
            a.counters.writebacks_issued,
            b.counters.writebacks_issued,
        ),
    ];
    for (name, va, vb) in rows {
        let _ = writeln!(s, "  {name:<22} {va:>14} {vb:>14}");
    }
    // The latest timestamp: ACKs are stamped at NVM completion, so the
    // timeline is not sorted.
    let end_ps = |r: &RunTrace| r.events.iter().map(|&(ts, _)| ts).max().unwrap_or(0);
    let _ = writeln!(s, "  {:<22} {:>14} {:>14}", "end_ps", end_ps(a), end_ps(b));
    for (name, ha, hb) in [
        (
            "outage_interval_ps",
            &a.histograms.outage_interval_ps,
            &b.histograms.outage_interval_ps,
        ),
        (
            "dirty_at_checkpoint",
            &a.histograms.dirty_at_checkpoint,
            &b.histograms.dirty_at_checkpoint,
        ),
        (
            "writeback_latency_ps",
            &a.histograms.writeback_latency_ps,
            &b.histograms.writeback_latency_ps,
        ),
    ] {
        let _ = writeln!(
            s,
            "  {:<22} {:>14.1} {:>14.1}  (mean)",
            name,
            ha.mean(),
            hb.mean()
        );
    }
    s
}

/// One point of the DirtyQueue occupancy walk (queue depth *after* the
/// event at `0`).
pub type OccupancyPoint = (Ps, i64);

/// Folds the run's event timeline into the DirtyQueue occupancy step
/// series: `DqEnqueue` +1, `DqAck` −1, `DqStaleDrop` −dropped, in
/// emission order (the recorder's order is the ground truth — same-
/// timestamp enqueue/ack pairs must not be reordered by a sort).
///
/// The final point's depth reconciles exactly with the recorder's
/// counters: `dq_enqueues − dq_acks − stale_drops`. The walk saturates
/// at the `i64` range, which no real run approaches.
pub fn dq_occupancy(run: &RunTrace) -> Vec<OccupancyPoint> {
    let mut out = Vec::new();
    let mut depth: i64 = 0;
    for &(at, ev) in &run.events {
        depth = match ev {
            Event::DqEnqueue { .. } => depth.saturating_add(1),
            Event::DqAck { .. } => depth.saturating_sub(1),
            Event::DqStaleDrop { dropped } => depth.saturating_sub_unsigned(dropped as u64),
            _ => continue,
        };
        out.push((at, depth));
    }
    out
}

/// Per-interval energy row derived from a run's interval table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyPoint {
    /// Power-on interval index.
    pub interval: u64,
    /// Interval end timestamp.
    pub end_ps: Ps,
    /// Energy harvested during this interval (pJ).
    pub harvested_pj: f64,
    /// Energy consumed during this interval (pJ).
    pub consumed_pj: f64,
}

/// Extracts the per-interval energy series from the run's interval
/// rows (intervals without energy samples — runs recorded on an
/// uninstrumented machine — are skipped). The deltas telescope: their
/// running sums equal the rows' cumulative columns exactly, because
/// the exporter *derives* deltas by subtracting consecutive cumulative
/// samples.
pub fn energy_series(run: &RunTrace) -> Vec<EnergyPoint> {
    run.intervals()
        .into_iter()
        .filter_map(|iv| {
            Some(EnergyPoint {
                interval: iv.interval,
                end_ps: iv.end_ps,
                harvested_pj: iv.harvested_delta_pj?,
                consumed_pj: iv.consumed_delta_pj?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Observer;
    use crate::recorder::Recorder;

    fn run_with(flushed: &[u64], dyn_raise_in: Option<usize>) -> RunTrace {
        let mut r = Recorder::default();
        r.event(
            0,
            Event::InitialThresholds {
                maxline: 6,
                waterline: 2,
            },
        );
        let mut t = 0u64;
        for (i, &f) in flushed.iter().enumerate() {
            r.event(t, Event::PowerOn { interval: i as u64 });
            if dyn_raise_in == Some(i) {
                r.event(t + 50, Event::DynRaise { maxline: 7 });
            }
            t += 100;
            r.event(
                t,
                Event::OutageBegin {
                    on_ps: 100,
                    voltage: 2.95,
                },
            );
            r.event(
                t,
                Event::CheckpointBegin {
                    dirty_lines: f as usize,
                },
            );
            t += 10;
            r.event(t, Event::CheckpointEnd { flushed_lines: f });
            r.event(t, Event::PowerOff);
            t += 40;
            r.event(t, Event::RestoreBegin);
            t += 5;
            r.event(t, Event::RestoreEnd);
        }
        r.event(
            t,
            Event::PowerOn {
                interval: flushed.len() as u64,
            },
        );
        let trace = r.finish(t + 25);
        RunTrace::from_jsonl(&trace.jsonl()).unwrap()
    }

    #[test]
    fn self_diff_reports_zero_divergence() {
        let a = run_with(&[3, 2, 4], None);
        let report = diff_runs(&a, "a", &a, "a");
        assert!(report.identical());
        let text = render_diff(&report, &a, &a);
        assert!(text.contains("no divergence"), "{text}");
        assert!(text.contains("4 power-on interval(s)"), "{text}");
    }

    #[test]
    fn first_divergence_names_interval_field_and_threshold_state() {
        let a = run_with(&[3, 2, 4], None);
        let b = run_with(&[3, 5, 4], Some(1));
        let report = diff_runs(&a, "a", &b, "b");
        let d = report.divergence.as_ref().unwrap();
        assert_eq!(d.interval, 1);
        assert!(d.fields.iter().any(|f| f.field == "dirty_flushed"));
        assert!(d.fields.iter().any(|f| f.field == "dyn_raises"));
        assert_eq!(d.a_state.unwrap().maxline, Some(6));
        assert_eq!(d.b_state.unwrap().maxline, Some(7), "dyn raise moved it");
        let text = render_diff(&report, &a, &b);
        assert!(
            text.contains("first divergence: power-on interval 1"),
            "{text}"
        );
        assert!(text.contains("maxline=7"), "{text}");
    }

    #[test]
    fn early_ending_run_diverges_at_the_unmatched_interval() {
        let a = run_with(&[3, 2], None);
        let b = run_with(&[3, 2, 4], None);
        let report = diff_runs(&a, "a", &b, "b");
        let d = report.divergence.as_ref().unwrap();
        // Intervals 0 and 1 match; run A's final (RunEnd-closed)
        // interval 2 differs from B's checkpoint-closed interval 2.
        assert_eq!(d.interval, 2);
        assert!(!report.identical());
    }

    /// Builds a run by replaying a synthetic event stream through the
    /// live `Recorder` (the same code path real captures take), so the
    /// reconcile assertions below pin the series against the
    /// recorder's own tallies, not against a parallel reimplementation.
    fn dq_run() -> RunTrace {
        let mut r = Recorder::default();
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(10, Event::DqEnqueue { base: 0x00 });
        r.event(20, Event::DqEnqueue { base: 0x40 });
        r.event(30, Event::DqEnqueue { base: 0x80 });
        r.event(40, Event::DqAck { base: 0x00 });
        r.event(50, Event::DqEnqueue { base: 0xc0 });
        r.event(60, Event::DqStaleDrop { dropped: 2 });
        r.event(70, Event::DqAck { base: 0x40 });
        let trace = r.finish(100);
        RunTrace::from_jsonl(&trace.jsonl()).expect("recorder output loads")
    }

    #[test]
    fn occupancy_walks_events_in_order_and_reconciles_with_counters() {
        let run = dq_run();
        let series = dq_occupancy(&run);
        let depths: Vec<i64> = series.iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, vec![1, 2, 3, 2, 3, 1, 0]);
        let c = &run.counters;
        let expected = c.dq_enqueues as i64 - c.dq_acks as i64 - c.stale_drops as i64;
        assert_eq!(
            series.last().map(|&(_, d)| d),
            Some(expected),
            "final depth must equal enqueues - acks - stale drops"
        );
    }

    /// A stale drop of 2^63 entries is a valid capture; the walk must
    /// not overflow on it.
    #[test]
    fn occupancy_survives_a_huge_stale_drop() {
        let line = "{\"ts\":1,\"ev\":\"DqStaleDrop\",\"dropped\":9223372036854775808}\n";
        let run = RunTrace::from_jsonl(line).expect("one drop loads");
        assert_eq!(dq_occupancy(&run), vec![(1, i64::MIN)]);
    }

    /// Energy deltas must telescope back to the cumulative columns the
    /// recorder's interval exporter derives them from.
    #[test]
    fn energy_series_telescopes_to_cumulative_columns() {
        let mut r = Recorder::default();
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(90, Event::CheckpointBegin { dirty_lines: 1 });
        r.event(
            95,
            Event::EnergySample {
                harvested_pj: 40.0,
                consumed_pj: 35.5,
            },
        );
        r.event(95, Event::CheckpointEnd { flushed_lines: 1 });
        r.event(96, Event::PowerOff);
        r.event(150, Event::RestoreBegin);
        r.event(160, Event::RestoreEnd);
        r.event(160, Event::PowerOn { interval: 1 });
        r.event(
            240,
            Event::EnergySample {
                harvested_pj: 100.25,
                consumed_pj: 90.125,
            },
        );
        let trace = r.finish(240);
        let run = RunTrace::from_jsonl(&trace.jsonl()).expect("loads");
        let series = energy_series(&run);
        assert_eq!(series.len(), run.intervals().len());
        let (mut h_cum, mut c_cum) = (0.0, 0.0);
        for (p, iv) in series.iter().zip(&run.intervals()) {
            h_cum += p.harvested_pj;
            c_cum += p.consumed_pj;
            assert_eq!(Some(h_cum), iv.harvested_cum_pj, "interval {}", p.interval);
            assert_eq!(Some(c_cum), iv.consumed_cum_pj, "interval {}", p.interval);
        }
        assert_eq!(h_cum, 100.25, "bit-exact telescoping, no float drift");
        assert_eq!(c_cum, 90.125);
    }
}
