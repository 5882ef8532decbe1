//! The `profile-sweep` reader: turns a progress stream
//! (`EHSIM_PROGRESS` / `sweep --progress-out`) back into structured
//! data and renders the per-design heartbeat aggregation as TSV.

use ehsim_obs::{parse_progress_line, ProgressLine, SimHeartbeat, SweepMeta};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed progress stream: the metadata line (optional) and every
/// per-sim heartbeat. A stream truncated by a crash still loads, with
/// `skipped` counting the unparseable lines — among them the `profile`
/// line that streams written before the phase profiler was retired
/// end with.
#[derive(Debug, Default)]
pub(crate) struct ProgressLog {
    /// The sweep metadata line, if present.
    pub(crate) meta: Option<SweepMeta>,
    /// Per-simulation heartbeats, in stream (completion) order.
    pub(crate) heartbeats: Vec<SimHeartbeat>,
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
        // A stream written before the phase profiler was retired ends
        // in a profile line; it is skipped like any unknown line.
        s.push_str(
            "{\"kind\":\"profile\",\"wall_ns\":10000000,\"attributed_pct\":96.5,\
             \"phases\":[{\"phase\":\"replay\",\"total_ns\":8000000,\"self_ns\":7000000,\
             \"count\":2,\"ops\":0}],\"metrics\":{\"sims_run\":\"2\"}}\n",
        );
        s
    }

    #[test]
    fn parses_all_line_kinds_and_counts_skips() {
        let log = parse_progress_log(&sample_stream());
        assert_eq!(log.heartbeats.len(), 2);
        assert_eq!(log.skipped, 2, "the junk line and the legacy profile line");
        let meta = log.meta.expect("meta line");
        assert_eq!(meta.jobs, 2);
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
    fn empty_log_renders_the_header() {
        let log = parse_progress_log("");
        assert!(design_table_tsv(&log).starts_with("design\t"));
        assert_eq!(log.skipped, 0);
    }
}
