//! The `profile-sweep` reader: turns a progress stream
//! (`EHSIM_PROGRESS` / `sweep --progress-out`) back into structured
//! data and renders the per-phase attribution table and the per-design
//! heartbeat aggregation, as TSV and as a self-contained SVG.

use crate::plot::escape_xml;
use ehsim_obs::{parse_progress_line, ProfileReport, ProgressLine, SimHeartbeat, SweepMeta};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed progress stream: the metadata line, every per-sim
/// heartbeat, and the end-of-sweep profile (each optional — a stream
/// truncated by a crash still loads, with `skipped` counting the
/// unparseable lines).
#[derive(Debug, Default)]
pub(crate) struct ProgressLog {
    /// The sweep metadata line, if present.
    pub(crate) meta: Option<SweepMeta>,
    /// Per-simulation heartbeats, in stream (completion) order.
    pub(crate) heartbeats: Vec<SimHeartbeat>,
    /// The end-of-sweep phase profile, if present.
    pub(crate) profile: Option<ProfileReport>,
    /// Lines that failed to parse (blank lines are not counted).
    pub(crate) skipped: usize,
}

/// Parses a progress stream (JSON lines). Never fails outright:
/// malformed lines are skipped and counted, so a partially written
/// stream from an interrupted sweep still yields its heartbeats.
pub(crate) fn parse_progress_log(text: &str) -> ProgressLog {
    let mut log = ProgressLog::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match parse_progress_line(line) {
            Ok(ProgressLine::Meta(m)) => log.meta = Some(m),
            Ok(ProgressLine::Sim(h)) => log.heartbeats.push(h),
            Ok(ProgressLine::Profile(p)) => log.profile = Some(p),
            Err(_) => log.skipped += 1,
        }
    }
    log
}

/// Loads and parses a progress stream from `path`.
///
/// # Errors
///
/// Returns a message naming the path on read failure.
pub(crate) fn load_progress_log(path: &str) -> Result<ProgressLog, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(parse_progress_log(&text))
}

/// Renders the per-phase attribution table as TSV: one row per
/// profiled phase with total/self seconds, entry count, op count, and
/// self-time as a percentage of the sweep wall clock.
pub(crate) fn profile_phase_tsv(log: &ProgressLog) -> String {
    let mut out = String::from("phase\ttotal_s\tself_s\tcount\tops\tself_pct_of_wall\n");
    let Some(profile) = &log.profile else {
        return out;
    };
    let wall = profile.wall_ns.max(1) as f64;
    for p in &profile.phases {
        let _ = writeln!(
            out,
            "{}\t{:.6}\t{:.6}\t{}\t{}\t{:.2}",
            p.phase,
            p.total_ns as f64 / 1e9,
            p.self_ns as f64 / 1e9,
            p.count,
            p.ops,
            p.self_ns as f64 / wall * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(wall)\t{:.6}\t\t\t\t{:.2}",
        profile.wall_ns as f64 / 1e9,
        profile.attributed_pct
    );
    out
}

/// Per-design aggregate of the heartbeats: simulations completed,
/// total sim wall seconds, instructions, and mean throughput.
pub(crate) fn design_table_tsv(log: &ProgressLog) -> String {
    #[derive(Default)]
    struct Agg {
        sims: u64,
        elapsed_ns: u64,
        instructions: u64,
        outages: u64,
    }
    let mut designs: BTreeMap<&str, Agg> = BTreeMap::new();
    for h in &log.heartbeats {
        let a = designs.entry(h.design.as_str()).or_default();
        a.sims += 1;
        a.elapsed_ns += h.elapsed_ns;
        a.instructions += h.instructions;
        a.outages += h.outages;
    }
    let mut out = String::from("design\tsims\tsim_wall_s\tinstructions\toutages\tinstr_per_s\n");
    for (design, a) in &designs {
        let ips = if a.elapsed_ns == 0 {
            0.0
        } else {
            a.instructions as f64 * 1e9 / a.elapsed_ns as f64
        };
        let _ = writeln!(
            out,
            "{design}\t{}\t{:.6}\t{}\t{}\t{ips:.0}",
            a.sims,
            a.elapsed_ns as f64 / 1e9,
            a.instructions,
            a.outages
        );
    }
    out
}

/// Renders the phase profile as a self-contained horizontal bar chart
/// (self-time per phase, sorted descending), with the attribution
/// percentage in the subtitle. Mirrors the `voltage-plot` SVG idiom:
/// no external resources, opens in any browser.
pub(crate) fn profile_svg(log: &ProgressLog, title: &str) -> String {
    const W: f64 = 840.0;
    const ML: f64 = 160.0; // left margin (phase labels)
    const MR: f64 = 90.0; // right margin (value labels)
    const MT: f64 = 48.0; // top margin (title + subtitle)
    const MB: f64 = 16.0;
    const BAR: f64 = 22.0;
    const GAP: f64 = 8.0;

    let mut rows: Vec<(&str, u64)> = log
        .profile
        .iter()
        .flat_map(|p| p.phases.iter())
        .filter(|p| p.self_ns > 0)
        .map(|p| (p.phase.as_str(), p.self_ns))
        .collect();
    rows.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));

    let h = MT + MB + (rows.len().max(1) as f64) * (BAR + GAP);
    let mut svg = String::with_capacity(rows.len() * 160 + 1024);
    let _ = writeln!(
        svg,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{W}\" height=\"{h}\" \
         viewBox=\"0 0 {W} {h}\" font-family=\"sans-serif\" font-size=\"11\">"
    );
    let _ = writeln!(
        svg,
        "<rect width=\"{W}\" height=\"{h}\" fill=\"white\"/>\
         <text x=\"{}\" y=\"18\" text-anchor=\"middle\" font-size=\"13\">{}</text>",
        W / 2.0,
        escape_xml(title)
    );
    if let Some(p) = &log.profile {
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"34\" text-anchor=\"middle\" fill=\"#666\">\
             wall {:.1} s, {:.1}% attributed to named phases</text>",
            W / 2.0,
            p.wall_ns as f64 / 1e9,
            p.attributed_pct
        );
    }
    if rows.is_empty() {
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{}\" text-anchor=\"middle\" fill=\"#888\">\
             no profile line in this stream</text></svg>",
            W / 2.0,
            h / 2.0
        );
        return svg;
    }
    let max_ns = rows.iter().map(|&(_, ns)| ns).max().unwrap_or(1).max(1) as f64;
    for (i, &(phase, ns)) in rows.iter().enumerate() {
        let y = MT + i as f64 * (BAR + GAP);
        let w = (ns as f64 / max_ns) * (W - ML - MR);
        let _ = writeln!(
            svg,
            "<text x=\"{}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>\
             <rect x=\"{ML}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{BAR}\" fill=\"#26c\"/>\
             <text x=\"{:.1}\" y=\"{:.1}\" fill=\"#333\">{:.2} s</text>",
            ML - 8.0,
            y + BAR * 0.7,
            escape_xml(phase),
            ML + w + 6.0,
            y + BAR * 0.7,
            ns as f64 / 1e9
        );
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> String {
        let mut s = String::new();
        s.push_str(
            "{\"kind\":\"meta\",\"host_cores\":4,\"jobs\":2,\"engine\":\"replay\",\
             \"git_rev\":\"abc123\",\"scale\":\"small\"}\n",
        );
        s.push_str(
            "{\"kind\":\"sim\",\"ordinal\":1,\"design\":\"WL-Cache\",\"trace\":\"tr.1(RF)\",\
             \"workload\":\"sha\",\"engine\":\"replay\",\"elapsed_ns\":2000000,\"outages\":3,\
             \"instructions\":100000,\"instr_per_s\":50000000}\n",
        );
        s.push_str(
            "{\"kind\":\"sim\",\"ordinal\":2,\"design\":\"WL-Cache\",\"trace\":\"tr.1(RF)\",\
             \"workload\":\"fft\",\"engine\":\"replay\",\"elapsed_ns\":1000000,\"outages\":1,\
             \"instructions\":50000,\"instr_per_s\":50000000}\n",
        );
        s.push_str("not json\n");
        s.push_str(
            "{\"kind\":\"profile\",\"wall_ns\":10000000,\"attributed_pct\":96.5,\
             \"phases\":[{\"phase\":\"replay\",\"total_ns\":8000000,\"self_ns\":7000000,\
             \"count\":2,\"ops\":0},{\"phase\":\"tsv-write\",\"total_ns\":1000000,\
             \"self_ns\":1000000,\"count\":1,\"ops\":0}],\"metrics\":{\"sims_run\":\"2\"}}\n",
        );
        s
    }

    #[test]
    fn parses_all_line_kinds_and_counts_skips() {
        let log = parse_progress_log(&sample_stream());
        assert_eq!(log.heartbeats.len(), 2);
        assert_eq!(log.skipped, 1);
        let meta = log.meta.expect("meta line");
        assert_eq!(meta.jobs, 2);
        let profile = log.profile.expect("profile line");
        assert_eq!(profile.phases.len(), 2);
        assert!((profile.attributed_pct - 96.5).abs() < 1e-9);
    }

    #[test]
    fn phase_tsv_carries_wall_percentages() {
        let log = parse_progress_log(&sample_stream());
        let tsv = profile_phase_tsv(&log);
        let replay_row = tsv
            .lines()
            .find(|l| l.starts_with("replay\t"))
            .expect("replay row");
        let pct: f64 = replay_row.split('\t').nth(5).unwrap().parse().unwrap();
        assert!((pct - 70.0).abs() < 0.01, "7ms self of 10ms wall");
        assert!(tsv.contains("(wall)\t0.010000"));
    }

    #[test]
    fn design_table_aggregates_heartbeats() {
        let log = parse_progress_log(&sample_stream());
        let tsv = design_table_tsv(&log);
        let row = tsv
            .lines()
            .find(|l| l.starts_with("WL-Cache\t"))
            .expect("design row");
        let cells: Vec<&str> = row.split('\t').collect();
        assert_eq!(cells[1], "2", "two sims");
        assert_eq!(cells[3], "150000", "summed instructions");
        assert_eq!(cells[4], "4", "summed outages");
    }

    #[test]
    fn svg_renders_sorted_bars() {
        let log = parse_progress_log(&sample_stream());
        let svg = profile_svg(&log, "all_figures profile");
        assert!(svg.starts_with("<svg "));
        assert!(svg.ends_with("</svg>\n"));
        assert!(svg.contains("96.5% attributed"));
        let replay_at = svg.find(">replay<").expect("replay bar label");
        let tsv_at = svg.find(">tsv-write<").expect("tsv-write bar label");
        assert!(replay_at < tsv_at, "bars sorted by self-time descending");
    }

    #[test]
    fn empty_log_renders_placeholder_and_headers() {
        let log = parse_progress_log("");
        assert!(profile_phase_tsv(&log).starts_with("phase\t"));
        assert!(profile_svg(&log, "t").contains("no profile line"));
    }
}
