//! Cross-run diffing: align two runs by power-on interval and report
//! the first divergence plus a side-by-side summary.

use crate::model::Run;
use ehsim_obs::TraceInterval;
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
pub fn diff_runs(a: &Run, a_label: &str, b: &Run, b_label: &str) -> DiffReport {
    let mut divergence = None;
    for (i, (ra, rb)) in a.intervals.iter().zip(&b.intervals).enumerate() {
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
    if divergence.is_none() && a.intervals.len() != b.intervals.len() {
        // All shared intervals agree but one run has more: the first
        // unmatched interval is the divergence.
        let i = a.intervals.len().min(b.intervals.len());
        divergence = Some(Divergence {
            interval: i as u64,
            fields: vec![FieldDiff {
                field: "interval_count",
                a: a.intervals.len().to_string(),
                b: b.intervals.len().to_string(),
            }],
            a_state: a.intervals.get(i).map(ThresholdState::of),
            b_state: b.intervals.get(i).map(ThresholdState::of),
        });
    }
    DiffReport {
        a_label: a_label.to_string(),
        b_label: b_label.to_string(),
        a_intervals: a.intervals.len(),
        b_intervals: b.intervals.len(),
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
pub fn render_diff(report: &DiffReport, a: &Run, b: &Run) -> String {
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
    let end_ps = |r: &Run| r.events.iter().map(|&(ts, _)| ts).max().unwrap_or(0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_obs::{Event, Observer, Recorder};

    fn run_with(flushed: &[u64], dyn_raise_in: Option<usize>) -> Run {
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
        Run::from_jsonl(&trace.jsonl()).unwrap()
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
}
