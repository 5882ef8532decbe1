//! Derived time series from a recorded run: DirtyQueue occupancy and
//! per-interval energy, each exportable as TSV and as a self-contained
//! SVG (`ehsim-cli dq-plot` / `energy-plot`).
//!
//! Both series are pure folds over data the observability layer
//! already records, and both reconcile exactly with the recorder's own
//! tallies: the final occupancy equals `dq_enqueues − dq_acks −
//! stale_drops` from [`ObsCounters`], and the energy deltas telescope
//! back to the interval rows' cumulative columns (pinned by tests).

use crate::model::Run;
use ehsim_mem::Ps;
use ehsim_obs::Event;
use std::fmt::Write as _;

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
pub fn dq_occupancy(run: &Run) -> Vec<OccupancyPoint> {
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

/// Renders an occupancy series as two-column TSV (`t_ps`, `depth`).
pub fn dq_occupancy_tsv(series: &[OccupancyPoint]) -> String {
    let mut out = String::with_capacity(series.len() * 16 + 16);
    out.push_str("t_ps\tdepth\n");
    for &(t, d) in series {
        let _ = writeln!(out, "{t}\t{d}");
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
pub fn energy_series(run: &Run) -> Vec<EnergyPoint> {
    run.intervals
        .iter()
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

/// Renders the energy series as TSV (`interval`, `end_ps`,
/// `harvested_pj`, `consumed_pj`), energies with shortest round-trip
/// formatting so reloading recovers bit-identical values.
pub fn energy_tsv(series: &[EnergyPoint]) -> String {
    let mut out = String::with_capacity(series.len() * 32 + 40);
    out.push_str("interval\tend_ps\tharvested_pj\tconsumed_pj\n");
    for p in series {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            p.interval, p.end_ps, p.harvested_pj, p.consumed_pj
        );
    }
    out
}

fn escape_xml(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Shared chart scaffolding: axes, ticks, title — the `voltage-plot`
/// idiom (840×320, self-contained, no external resources).
struct Chart {
    svg: String,
    x: Box<dyn Fn(f64) -> f64>,
    y: Box<dyn Fn(f64) -> f64>,
}

const W: f64 = 840.0;
const H: f64 = 320.0;
const ML: f64 = 64.0;
const MR: f64 = 16.0;
const MT: f64 = 28.0;
const MB: f64 = 40.0;

fn chart(title: &str, t0: f64, t1: f64, v_lo: f64, v_hi: f64, unit: &str) -> Chart {
    let t_span = (t1 - t0).max(1.0);
    let v_span = (v_hi - v_lo).max(1e-12);
    let mut svg = String::with_capacity(4096);
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"11\">"
    );
    let _ = writeln!(
        svg,
        "<rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\
         <text x=\"{}\" y=\"18\" text-anchor=\"middle\" font-size=\"13\">{}</text>",
        W / 2.0,
        escape_xml(title)
    );
    let x = move |t: f64| ML + (t - t0) / t_span * (W - ML - MR);
    let y = move |v: f64| H - MB - (v - v_lo) / v_span * (H - MT - MB);
    let _ = writeln!(
        svg,
        "<line x1=\"{ML}\" y1=\"{MT}\" x2=\"{ML}\" y2=\"{}\" stroke=\"#444\"/>\
         <line x1=\"{ML}\" y1=\"{}\" x2=\"{}\" y2=\"{}\" stroke=\"#444\"/>",
        H - MB,
        H - MB,
        W - MR,
        H - MB
    );
    for i in 0..=4 {
        let v = v_lo + (v_hi - v_lo) * f64::from(i) / 4.0;
        let yy = y(v);
        let _ = writeln!(
            svg,
            "<line x1=\"{}\" y1=\"{yy:.1}\" x2=\"{ML}\" y2=\"{yy:.1}\" stroke=\"#444\"/>\
             <text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{v:.1}{unit}</text>",
            ML - 4.0,
            ML - 7.0,
            yy + 4.0
        );
    }
    for (frac, anchor) in [(0.0, "start"), (0.5, "middle"), (1.0, "end")] {
        let t = t0 + t_span * frac;
        let xx = x(t);
        let _ = writeln!(
            svg,
            "<line x1=\"{xx:.1}\" y1=\"{}\" x2=\"{xx:.1}\" y2=\"{}\" stroke=\"#444\"/>\
             <text x=\"{xx:.1}\" y=\"{}\" text-anchor=\"{anchor}\">{:.3} ms</text>",
            H - MB,
            H - MB + 4.0,
            H - MB + 18.0,
            t / 1e9
        );
    }
    Chart {
        svg,
        x: Box::new(x),
        y: Box::new(y),
    }
}

fn empty_chart(title: &str, message: &str) -> String {
    let mut svg = String::with_capacity(1024);
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{H}\" \
         viewBox=\"0 0 {W} {H}\" font-family=\"sans-serif\" font-size=\"11\">\
         <rect width=\"{W}\" height=\"{H}\" fill=\"white\"/>\
         <text x=\"{}\" y=\"18\" text-anchor=\"middle\" font-size=\"13\">{}</text>\
         <text x=\"{}\" y=\"{}\" text-anchor=\"middle\" fill=\"#888\">{}</text></svg>",
        W / 2.0,
        escape_xml(title),
        W / 2.0,
        H / 2.0,
        escape_xml(message)
    );
    svg
}

/// Renders the occupancy walk as a step-line SVG (depth held flat
/// between events, the true queue semantics).
pub fn dq_occupancy_svg(series: &[OccupancyPoint], title: &str) -> String {
    if series.is_empty() {
        return empty_chart(title, "no DirtyQueue events in this run");
    }
    let t0 = series.first().map_or(0, |&(t, _)| t) as f64;
    let t1 = series.last().map_or(1, |&(t, _)| t) as f64;
    let d_hi = series.iter().map(|&(_, d)| d).max().unwrap_or(1).max(1) as f64;
    let mut c = chart(title, t0, t1, 0.0, d_hi, " lines");
    c.svg
        .push_str("<polyline fill=\"none\" stroke=\"#26c\" stroke-width=\"1.2\" points=\"");
    let mut prev_d: f64 = 0.0;
    for (i, &(t, d)) in series.iter().enumerate() {
        let xx = (c.x)(t as f64);
        if i > 0 {
            // Horizontal run at the previous depth up to this event.
            let _ = write!(c.svg, "{xx:.1},{:.1} ", (c.y)(prev_d));
        }
        let _ = write!(c.svg, "{xx:.1},{:.1} ", (c.y)(d as f64));
        prev_d = d as f64;
    }
    c.svg.push_str("\"/>\n</svg>\n");
    c.svg
}

/// Renders the per-interval energy series as a two-line SVG (harvested
/// and consumed pJ per interval, plotted at each interval's end time,
/// with a small legend).
pub fn energy_svg(series: &[EnergyPoint], title: &str) -> String {
    if series.is_empty() {
        return empty_chart(
            title,
            "no energy samples (run on an uninstrumented machine?)",
        );
    }
    let t0 = series.first().map_or(0, |p| p.end_ps) as f64;
    let t1 = series.last().map_or(1, |p| p.end_ps) as f64;
    let mut v_hi = f64::MIN;
    let mut v_lo: f64 = 0.0;
    for p in series {
        v_hi = v_hi.max(p.harvested_pj).max(p.consumed_pj);
        v_lo = v_lo.min(p.harvested_pj).min(p.consumed_pj);
    }
    let mut c = chart(title, t0, t1, v_lo, v_hi.max(v_lo + 1.0), " pJ");
    for (color, label, pick) in [("#2a2", "harvested", 0usize), ("#c44", "consumed", 1usize)] {
        let _ = write!(
            c.svg,
            "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.2\" points=\""
        );
        for p in series {
            let v = if pick == 0 {
                p.harvested_pj
            } else {
                p.consumed_pj
            };
            let _ = write!(c.svg, "{:.1},{:.1} ", (c.x)(p.end_ps as f64), (c.y)(v));
        }
        c.svg.push_str("\"/>\n");
        let lx = W - MR - 120.0;
        let ly = MT + 14.0 + if pick == 0 { 0.0 } else { 16.0 };
        let _ = writeln!(
            c.svg,
            "<line x1=\"{lx}\" y1=\"{ly}\" x2=\"{}\" y2=\"{ly}\" stroke=\"{color}\" \
             stroke-width=\"2\"/><text x=\"{}\" y=\"{}\">{label}</text>",
            lx + 22.0,
            lx + 28.0,
            ly + 4.0
        );
    }
    c.svg.push_str("</svg>\n");
    c.svg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Run;
    use ehsim_obs::{Observer as _, Recorder};

    /// Builds a run by replaying a synthetic event stream through the
    /// live `Recorder` (the same code path real captures take), so the
    /// reconcile assertions below pin the series against the
    /// recorder's own tallies, not against a parallel reimplementation.
    fn dq_run() -> Run {
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
        Run::from_jsonl(&trace.jsonl()).expect("recorder output loads")
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
        let run = Run::from_jsonl(line).expect("one drop loads");
        assert_eq!(dq_occupancy(&run), vec![(1, i64::MIN)]);
    }

    #[test]
    fn occupancy_tsv_round_trips() {
        let series = vec![(10u64, 1i64), (20, 2), (60, -1)];
        let tsv = dq_occupancy_tsv(&series);
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("t_ps\tdepth"));
        for (&(t, d), line) in series.iter().zip(lines) {
            let (ts, ds) = line.split_once('\t').unwrap();
            assert_eq!(ts.parse::<u64>().unwrap(), t);
            assert_eq!(ds.parse::<i64>().unwrap(), d);
        }
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
        let run = Run::from_jsonl(&trace.jsonl()).expect("loads");
        let series = energy_series(&run);
        assert_eq!(series.len(), run.intervals.len());
        let (mut h_cum, mut c_cum) = (0.0, 0.0);
        for (p, iv) in series.iter().zip(&run.intervals) {
            h_cum += p.harvested_pj;
            c_cum += p.consumed_pj;
            assert_eq!(Some(h_cum), iv.harvested_cum_pj, "interval {}", p.interval);
            assert_eq!(Some(c_cum), iv.consumed_cum_pj, "interval {}", p.interval);
        }
        assert_eq!(h_cum, 100.25, "bit-exact telescoping, no float drift");
        assert_eq!(c_cum, 90.125);
    }

    #[test]
    fn energy_tsv_round_trips_exactly() {
        let series = vec![
            EnergyPoint {
                interval: 0,
                end_ps: 96,
                harvested_pj: 40.0,
                consumed_pj: 35.5,
            },
            EnergyPoint {
                interval: 1,
                end_ps: 240,
                harvested_pj: 60.25,
                consumed_pj: 54.625,
            },
        ];
        let tsv = energy_tsv(&series);
        let mut lines = tsv.lines();
        assert_eq!(
            lines.next(),
            Some("interval\tend_ps\tharvested_pj\tconsumed_pj")
        );
        for (p, line) in series.iter().zip(lines) {
            let cells: Vec<&str> = line.split('\t').collect();
            assert_eq!(cells[0].parse::<u64>().unwrap(), p.interval);
            assert_eq!(cells[2].parse::<f64>().unwrap(), p.harvested_pj);
            assert_eq!(cells[3].parse::<f64>().unwrap(), p.consumed_pj);
        }
    }

    #[test]
    fn svgs_render_and_escape() {
        let run = dq_run();
        let occ = dq_occupancy_svg(&dq_occupancy(&run), "sha <WL-Cache>");
        assert!(occ.starts_with("<svg "));
        assert!(occ.ends_with("</svg>\n"));
        assert!(occ.contains("&lt;WL-Cache&gt;"));
        assert!(occ.contains("polyline"));
        assert!(dq_occupancy_svg(&[], "empty").contains("no DirtyQueue events"));
        assert!(energy_svg(&[], "empty").contains("no energy samples"));
    }
}
