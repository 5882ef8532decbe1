//! The series renderers behind `voltage-plot`, `dq-plot` and
//! `energy-plot`: each series as TSV, and as a self-contained SVG line
//! chart in the style of the paper's Fig 1 (840×320, no external
//! resources, opens in any browser).

use ehsim_mem::Ps;
use ehsim_obs::{EnergyPoint, OccupancyPoint};
use std::fmt::Write as _;

/// Renders a voltage series as two-column TSV (`t_ps`, `volts`).
/// Voltages print with shortest round-trip formatting, so reloading the
/// TSV recovers bit-identical values.
pub(crate) fn voltage_tsv(series: &[(Ps, f64)]) -> String {
    let mut out = String::with_capacity(series.len() * 24 + 16);
    out.push_str("t_ps\tvolts\n");
    for &(t, v) in series {
        let _ = writeln!(out, "{t}\t{v}");
    }
    out
}

/// Renders an occupancy series as two-column TSV (`t_ps`, `depth`).
pub(crate) fn dq_occupancy_tsv(series: &[OccupancyPoint]) -> String {
    let mut out = String::with_capacity(series.len() * 16 + 16);
    out.push_str("t_ps\tdepth\n");
    for &(t, d) in series {
        let _ = writeln!(out, "{t}\t{d}");
    }
    out
}

/// Renders the energy series as TSV (`interval`, `end_ps`,
/// `harvested_pj`, `consumed_pj`), energies with shortest round-trip
/// formatting so reloading recovers bit-identical values.
pub(crate) fn energy_tsv(series: &[EnergyPoint]) -> String {
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

/// Escapes the XML metacharacters of chart text (titles, labels).
pub(crate) fn escape_xml(s: &str) -> String {
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

/// Shared chart scaffolding: title, axes and ticks, with the value
/// axis labelled to `decimals` places in `unit`.
struct Chart {
    svg: String,
    x: Box<dyn Fn(f64) -> f64>,
    y: Box<dyn Fn(f64) -> f64>,
}

const W: f64 = 840.0;
const H: f64 = 320.0;
const ML: f64 = 64.0; // left margin (value axis)
const MR: f64 = 16.0;
const MT: f64 = 28.0; // top margin (title)
const MB: f64 = 40.0; // bottom margin (time axis)

fn chart(
    title: &str,
    (t0, t1): (f64, f64),
    (v_lo, v_hi): (f64, f64),
    unit: &str,
    decimals: usize,
) -> Chart {
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
    // Value ticks (4 divisions).
    for i in 0..=4 {
        let v = v_lo + (v_hi - v_lo) * f64::from(i) / 4.0;
        let yy = y(v);
        let _ = writeln!(
            svg,
            "<line x1=\"{}\" y1=\"{yy:.1}\" x2=\"{ML}\" y2=\"{yy:.1}\" stroke=\"#444\"/>\
             <text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{v:.decimals$}{unit}</text>",
            ML - 4.0,
            ML - 7.0,
            yy + 4.0
        );
    }
    // Time ticks (start / middle / end, in ms).
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

/// Renders a voltage series as an SVG line chart.
///
/// `rails` overlays labelled horizontal threshold lines (e.g.
/// `[(3.0, "Von"), (2.9, "Vbackup"), (2.8, "Vmin")]`), mirroring the
/// paper's Fig 1.
pub(crate) fn voltage_svg(series: &[(Ps, f64)], title: &str, rails: &[(f64, &str)]) -> String {
    if series.is_empty() {
        return empty_chart(
            title,
            "no voltage samples (run with voltage sampling enabled)",
        );
    }
    let t0 = series.first().map_or(0, |&(t, _)| t) as f64;
    let t1 = series.last().map_or(1, |&(t, _)| t) as f64;
    let mut v_lo = f64::INFINITY;
    let mut v_hi = f64::NEG_INFINITY;
    for &v in series
        .iter()
        .map(|(_, v)| v)
        .chain(rails.iter().map(|(v, _)| v))
    {
        v_lo = v_lo.min(v);
        v_hi = v_hi.max(v);
    }
    let pad = ((v_hi - v_lo) * 0.05).max(0.01);
    let mut c = chart(title, (t0, t1), (v_lo - pad, v_hi + pad), " V", 2);
    for &(v, label) in rails {
        let yy = (c.y)(v);
        let _ = writeln!(
            c.svg,
            "<line x1=\"{ML}\" y1=\"{yy:.1}\" x2=\"{}\" y2=\"{yy:.1}\" \
             stroke=\"#c44\" stroke-dasharray=\"5,4\"/>\
             <text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\" fill=\"#c44\">{}</text>",
            W - MR,
            W - MR - 2.0,
            yy - 3.0,
            escape_xml(label)
        );
    }
    c.svg
        .push_str("<polyline fill=\"none\" stroke=\"#26c\" stroke-width=\"1.2\" points=\"");
    for &(t, v) in series {
        let _ = write!(c.svg, "{:.1},{:.1} ", (c.x)(t as f64), (c.y)(v));
    }
    c.svg.push_str("\"/>\n</svg>\n");
    c.svg
}

/// Renders the occupancy walk as a step-line SVG (depth held flat
/// between events, the true queue semantics).
pub(crate) fn dq_occupancy_svg(series: &[OccupancyPoint], title: &str) -> String {
    if series.is_empty() {
        return empty_chart(title, "no DirtyQueue events in this run");
    }
    let t0 = series.first().map_or(0, |&(t, _)| t) as f64;
    let t1 = series.last().map_or(1, |&(t, _)| t) as f64;
    let d_hi = series.iter().map(|&(_, d)| d).max().unwrap_or(1).max(1) as f64;
    let mut c = chart(title, (t0, t1), (0.0, d_hi), " lines", 1);
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
pub(crate) fn energy_svg(series: &[EnergyPoint], title: &str) -> String {
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
    let mut c = chart(title, (t0, t1), (v_lo, v_hi.max(v_lo + 1.0)), " pJ", 1);
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
    use ehsim_obs::{dq_occupancy, Event, Observer as _, Recorder, RunTrace};

    #[test]
    fn tsv_round_trips_voltages_exactly() {
        let series = vec![(0u64, 3.3), (1_000_000, 2.951_172_5), (2_000_000, 2.8)];
        let tsv = voltage_tsv(&series);
        let mut lines = tsv.lines();
        assert_eq!(lines.next(), Some("t_ps\tvolts"));
        for (&(t, v), line) in series.iter().zip(lines) {
            let (ts, vs) = line.split_once('\t').unwrap();
            assert_eq!(ts.parse::<u64>().unwrap(), t);
            assert_eq!(vs.parse::<f64>().unwrap(), v, "exact f64 round-trip");
        }
    }

    #[test]
    fn svg_renders_series_and_rails() {
        let series: Vec<(u64, f64)> = (0u32..100)
            .map(|i| {
                (
                    u64::from(i) * 1_000_000,
                    2.8 + 0.5 * f64::from(i % 10) / 10.0,
                )
            })
            .collect();
        let svg = voltage_svg(
            &series,
            "sha / WL-Cache <rf1>",
            &[(3.0, "Von"), (2.9, "Vbackup")],
        );
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("polyline"));
        assert!(svg.contains("Vbackup"));
        assert!(svg.contains("&lt;rf1&gt;"), "title is XML-escaped");
        assert_eq!(svg.matches("stroke-dasharray").count(), 2);
    }

    #[test]
    fn empty_series_renders_a_placeholder() {
        let svg = voltage_svg(&[], "empty", &[]);
        assert!(svg.contains("no voltage samples"));
        assert!(svg.ends_with("</svg>\n"));
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
        let mut r = Recorder::default();
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(10, Event::DqEnqueue { base: 0x00 });
        r.event(20, Event::DqEnqueue { base: 0x40 });
        r.event(40, Event::DqAck { base: 0x00 });
        let run = RunTrace::from_jsonl(&r.finish(100).jsonl()).expect("recorder output loads");
        let occ = dq_occupancy_svg(&dq_occupancy(&run), "sha <WL-Cache>");
        assert!(occ.starts_with("<svg "));
        assert!(occ.ends_with("</svg>\n"));
        assert!(occ.contains("&lt;WL-Cache&gt;"));
        assert!(occ.contains("polyline"));
        assert!(dq_occupancy_svg(&[], "empty").contains("no DirtyQueue events"));
        assert!(energy_svg(&[], "empty").contains("no energy samples"));
    }
}
