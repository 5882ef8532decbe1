//! The typed trace model: [`Run`], its [`Span`]s and intervals, and the
//! loaders that build it from each on-disk trace format.

use crate::chrome;
use ehsim_mem::Ps;
use ehsim_obs::{
    parse_jsonl_line, Event, ObsCounters, ObsHistograms, Observer, Recorder, RunTrace,
    TraceInterval,
};

/// Which on-disk format a [`Run`] was loaded from. The formats carry
/// different amounts of information (see [`Run`]), so diff output names
/// the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceFormat {
    /// Chrome `trace_event` JSON written by `RunTrace::chrome_trace`
    /// (or `ehsim-cli run --trace-out`).
    ChromeJson,
    /// JSON-lines event stream written by the obs crate's
    /// `StreamingObserver` (or `RunTrace::jsonl`). Lossless.
    Jsonl,
    /// Per-interval metrics TSV written by
    /// `RunTrace::interval_metrics_tsv` (or `--metrics-out`).
    /// Interval rows only; no event timeline.
    IntervalTsv,
}

impl SourceFormat {
    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            SourceFormat::ChromeJson => "chrome-json",
            SourceFormat::Jsonl => "jsonl",
            SourceFormat::IntervalTsv => "interval-tsv",
        }
    }
}

/// One machine-lifecycle span reconstructed from the timeline: an `on`
/// interval, a JIT `checkpoint`, a `recharge`, or a `restore`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name (`on`, `checkpoint`, `recharge`, `restore`).
    pub name: &'static str,
    /// Opening timestamp.
    pub start_ps: Ps,
    /// Closing timestamp.
    pub end_ps: Ps,
}

/// A loaded run: the unified trace model every loader produces and the
/// diff engine consumes.
///
/// Fidelity depends on the source format. JSONL is lossless — counters,
/// histograms and intervals reconcile bit-for-bit with the live
/// `Recorder` that produced it. Chrome JSON reconstructs the timeline
/// from the rendered spans/instants/counters; everything reconciles
/// except that DirtyQueue stale drops are folded into ACKs (the
/// `dq_occupancy` counter does not distinguish them) and line base
/// addresses are not recorded. The interval TSV carries only the
/// per-interval rows: the event list and spans are empty and only the
/// histograms derivable from rows (outage intervals, dirty-at-
/// checkpoint) are rebuilt.
#[derive(Debug, Clone)]
pub struct Run {
    /// Process name from the trace metadata, when the format carries
    /// one (Chrome JSON only).
    pub name: Option<String>,
    /// The format this run was loaded from.
    pub source: SourceFormat,
    /// Reconstructed `(timestamp, event)` timeline (empty for TSV).
    pub events: Vec<(Ps, Event)>,
    /// Event counts, as a live `Recorder` would have tallied them.
    pub counters: ObsCounters,
    /// Metric histograms.
    pub histograms: ObsHistograms,
    /// Per-power-on-interval rows.
    pub intervals: Vec<TraceInterval>,
    /// Machine lifecycle spans (empty for TSV).
    pub spans: Vec<Span>,
}

impl Run {
    /// Loads a trace file, auto-detecting its format from the content.
    ///
    /// # Errors
    ///
    /// Returns a message naming the file for I/O errors, or the parse
    /// error of the detected format.
    pub fn load(path: &str) -> Result<Run, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Run::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses trace text, auto-detecting the format: Chrome JSON starts
    /// with a `traceEvents` object, JSONL lines start with `{"ts":`,
    /// and the interval TSV starts with its header row.
    ///
    /// # Errors
    ///
    /// Returns the detected format's parse error, or a message when no
    /// format matches.
    pub fn parse(text: &str) -> Result<Run, String> {
        let head = text.trim_start();
        if head.starts_with('{') && head.contains("\"traceEvents\"") {
            Run::from_chrome_json(text)
        } else if head.starts_with("{\"ts\":") {
            Run::from_jsonl(text)
        } else if head.starts_with("interval\t") {
            Run::from_interval_tsv(text)
        } else {
            Err("unrecognized trace format (expected Chrome trace JSON, \
                 JSONL events, or an interval-metrics TSV)"
                .to_string())
        }
    }

    /// Parses a JSON-lines event stream. Lossless: the rebuilt run
    /// reconciles exactly with the recording that wrote it.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line, 1-indexed.
    pub fn from_jsonl(text: &str) -> Result<Run, String> {
        let mut events = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let pair = parse_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            events.push(pair);
        }
        if events.is_empty() {
            return Err("no events in JSONL input".to_string());
        }
        Ok(Run::from_events(events, None, SourceFormat::Jsonl))
    }

    /// Parses Chrome `trace_event` JSON written by our exporter,
    /// reconstructing the event timeline from its spans, instants and
    /// counter tracks (see [`Run`] for the two documented lossy spots).
    ///
    /// # Errors
    ///
    /// Returns schema-validation errors (the input is checked with
    /// `validate_chrome_trace` semantics first) or reconstruction
    /// errors naming the offending line.
    pub fn from_chrome_json(text: &str) -> Result<Run, String> {
        chrome::parse(text)
    }

    /// Parses a per-interval metrics TSV. Only interval rows (plus the
    /// histograms derivable from them) are recovered; the event
    /// timeline is empty.
    ///
    /// # Errors
    ///
    /// Returns the first malformed row or an unrecognized header.
    pub fn from_interval_tsv(text: &str) -> Result<Run, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty TSV input")?;
        let cols: Vec<&str> = header.split('\t').collect();
        let col = |name: &str| cols.iter().position(|c| *c == name);
        // The first 13 columns predate the energy columns; require
        // those, treat the rest as optional so old dumps still load.
        let need = |name: &str| col(name).ok_or_else(|| format!("missing TSV column `{name}`"));
        let c_interval = need("interval")?;
        let c_start = need("start_ps")?;
        let c_end = need("end_ps")?;
        let c_on = need("on_ps")?;
        let c_flushed = need("dirty_flushed")?;
        let c_cleanings = need("cleanings")?;
        let c_enqueues = need("enqueues")?;
        let c_acks = need("acks")?;
        let c_stalls = need("stalls")?;
        let c_drops = need("stale_drops")?;
        let c_raises = need("dyn_raises")?;
        let c_maxline = need("maxline")?;
        let c_waterline = need("waterline")?;
        let c_harv = col("harvested_pj");
        let c_cons = col("consumed_pj");
        let c_harv_cum = col("harvested_cum_pj");
        let c_cons_cum = col("consumed_cum_pj");

        // Rebuild what the rows determine. A checkpoint-closed row is
        // one outage with an exact on-interval length and flush count;
        // the final RunEnd-closed row (dirty_flushed = `-`) is not.
        let mut counters = ObsCounters::default();
        let mut histograms = ObsHistograms::default();
        let mut intervals = Vec::new();
        for (i, line) in lines.enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue; // histogram footer / comments
            }
            let n = i + 2;
            let f: Vec<&str> = line.split('\t').collect();
            let req = |c: usize| -> Result<&str, String> {
                f.get(c)
                    .copied()
                    .ok_or_else(|| format!("row {n}: missing column {c}"))
            };
            let num = |c: usize| -> Result<u64, String> {
                req(c)?.parse().map_err(|e| format!("row {n}: {e}"))
            };
            let opt_num = |c: usize| -> Result<Option<u64>, String> {
                let v = req(c)?;
                if v == "-" {
                    Ok(None)
                } else {
                    v.parse().map(Some).map_err(|e| format!("row {n}: {e}"))
                }
            };
            let opt_usize = |c: usize| -> Result<Option<usize>, String> {
                let v = req(c)?;
                if v == "-" {
                    Ok(None)
                } else {
                    v.parse().map(Some).map_err(|e| format!("row {n}: {e}"))
                }
            };
            let opt_f64 = |c: Option<usize>| -> Result<Option<f64>, String> {
                let Some(c) = c else { return Ok(None) };
                let v = req(c)?;
                if v == "-" {
                    Ok(None)
                } else {
                    v.parse().map(Some).map_err(|e| format!("row {n}: {e}"))
                }
            };
            let row = TraceInterval {
                interval: num(c_interval)?,
                start_ps: num(c_start)?,
                end_ps: num(c_end)?,
                on_ps: num(c_on)?,
                dirty_flushed: opt_num(c_flushed)?,
                cleanings: num(c_cleanings)?,
                enqueues: num(c_enqueues)?,
                acks: num(c_acks)?,
                stalls: num(c_stalls)?,
                stale_drops: num(c_drops)?,
                dyn_raises: num(c_raises)?,
                maxline: opt_usize(c_maxline)?,
                waterline: opt_usize(c_waterline)?,
                harvested_delta_pj: opt_f64(c_harv)?,
                consumed_delta_pj: opt_f64(c_cons)?,
                harvested_cum_pj: opt_f64(c_harv_cum)?,
                consumed_cum_pj: opt_f64(c_cons_cum)?,
            };
            let add = |total: u64, v: u64, col: &str| {
                total
                    .checked_add(v)
                    .ok_or_else(|| format!("row {n}: `{col}` total overflows u64"))
            };
            counters.power_ons += 1;
            counters.dq_enqueues = add(counters.dq_enqueues, row.enqueues, "enqueues")?;
            counters.dq_acks = add(counters.dq_acks, row.acks, "acks")?;
            counters.dq_stalls = add(counters.dq_stalls, row.stalls, "stalls")?;
            counters.stale_drops = add(counters.stale_drops, row.stale_drops, "stale_drops")?;
            counters.dyn_raises = add(counters.dyn_raises, row.dyn_raises, "dyn_raises")?;
            counters.writebacks_issued =
                add(counters.writebacks_issued, row.cleanings, "cleanings")?;
            if let Some(flushed) = row.dirty_flushed {
                counters.outages += 1;
                counters.checkpoints += 1;
                histograms.outage_interval_ps.record(row.on_ps);
                histograms.dirty_at_checkpoint.record(flushed);
            }
            intervals.push(row);
        }
        if intervals.is_empty() {
            return Err("no interval rows in TSV input".to_string());
        }
        Ok(Run {
            name: None,
            source: SourceFormat::IntervalTsv,
            events: Vec::new(),
            counters,
            histograms,
            intervals,
            spans: Vec::new(),
        })
    }

    /// Builds a [`Run`] from a reconstructed event timeline by feeding
    /// it through a live [`Recorder`] — counters, histograms and
    /// intervals are therefore computed by the exact same code paths as
    /// during recording.
    pub(crate) fn from_events(
        events: Vec<(Ps, Event)>,
        name: Option<String>,
        source: SourceFormat,
    ) -> Run {
        let end = events.iter().map(|&(ts, _)| ts).max().unwrap_or(0);
        let mut rec = Recorder::default();
        for &(at, ev) in &events {
            rec.event(at, ev);
        }
        let trace = rec.finish(end);
        let intervals = trace.intervals();
        let spans = spans_of(&trace.events);
        Run {
            name,
            source,
            events: trace.events,
            counters: trace.counters,
            histograms: trace.histograms,
            intervals,
            spans,
        }
    }

    /// Reassembles the run as a `RunTrace`, e.g. to re-export a
    /// streamed JSONL capture as Chrome trace JSON
    /// (`ehsim-cli convert-trace`).
    pub fn to_trace(&self) -> RunTrace {
        RunTrace {
            events: self.events.clone(),
            counters: self.counters,
            histograms: self.histograms.clone(),
        }
    }

    /// The capacitor-voltage trajectory `(ts, volts)`, from opt-in
    /// `VoltageSample`s. Empty when the run was recorded without
    /// voltage sampling (or loaded from a TSV).
    pub fn voltage_series(&self) -> Vec<(Ps, f64)> {
        self.events
            .iter()
            .filter_map(|&(at, ev)| match ev {
                Event::VoltageSample { voltage } => Some((at, voltage)),
                _ => None,
            })
            .collect()
    }

    /// Total simulated time covered by the run (last event timestamp).
    pub fn end_ps(&self) -> Ps {
        self.events
            .iter()
            .map(|&(ts, _)| ts)
            .max()
            .or_else(|| self.intervals.last().map(|r| r.end_ps))
            .unwrap_or(0)
    }
}

/// Derives the machine lifecycle spans from an event timeline.
fn spans_of(events: &[(Ps, Event)]) -> Vec<Span> {
    let mut sorted: Vec<(Ps, Event)> = events.to_vec();
    sorted.sort_by_key(|&(ts, _)| ts);
    let mut spans = Vec::new();
    let mut open: Vec<(&'static str, Ps)> = Vec::new();
    let push = |spans: &mut Vec<Span>, open: &mut Vec<(&'static str, Ps)>, name, ts| {
        if let Some(pos) = open.iter().rposition(|&(n, _)| n == name) {
            let (_, start) = open.remove(pos);
            spans.push(Span {
                name,
                start_ps: start,
                end_ps: ts,
            });
        }
    };
    for &(ts, ev) in &sorted {
        match ev {
            Event::PowerOn { .. } => open.push(("on", ts)),
            Event::OutageBegin { .. } => push(&mut spans, &mut open, "on", ts),
            Event::CheckpointBegin { .. } => open.push(("checkpoint", ts)),
            Event::CheckpointEnd { .. } => push(&mut spans, &mut open, "checkpoint", ts),
            Event::PowerOff => open.push(("recharge", ts)),
            Event::RestoreBegin => {
                push(&mut spans, &mut open, "recharge", ts);
                open.push(("restore", ts));
            }
            Event::RestoreEnd => push(&mut spans, &mut open, "restore", ts),
            Event::RunEnd => {
                while let Some((name, start)) = open.pop() {
                    spans.push(Span {
                        name,
                        start_ps: start,
                        end_ps: ts,
                    });
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<(Ps, Event)> {
        vec![
            (
                0,
                Event::InitialThresholds {
                    maxline: 6,
                    waterline: 2,
                },
            ),
            (0, Event::PowerOn { interval: 0 }),
            (10, Event::DqEnqueue { base: 64 }),
            (
                20,
                Event::WritebackIssued {
                    base: 64,
                    ack_at: 120,
                },
            ),
            (120, Event::DqAck { base: 64 }),
            (
                500,
                Event::OutageBegin {
                    on_ps: 500,
                    voltage: 2.96,
                },
            ),
            (500, Event::CheckpointBegin { dirty_lines: 1 }),
            (
                550,
                Event::EnergySample {
                    harvested_pj: 10.5,
                    consumed_pj: 8.25,
                },
            ),
            (550, Event::CheckpointEnd { flushed_lines: 1 }),
            (550, Event::PowerOff),
            (900, Event::RestoreBegin),
            (920, Event::RestoreEnd),
            (920, Event::PowerOn { interval: 1 }),
            (
                1000,
                Event::EnergySample {
                    harvested_pj: 11.0,
                    consumed_pj: 9.0,
                },
            ),
            (1000, Event::RunEnd),
        ]
    }

    fn sample_trace() -> RunTrace {
        let mut rec = Recorder::default();
        for (at, ev) in sample_events() {
            rec.event(at, ev);
        }
        rec.finish(1000)
    }

    #[test]
    fn jsonl_round_trip_reconciles_exactly() {
        let trace = sample_trace();
        let run = Run::from_jsonl(&trace.jsonl()).unwrap();
        assert_eq!(run.source, SourceFormat::Jsonl);
        assert_eq!(run.events, trace.events);
        assert_eq!(run.counters, trace.counters);
        assert_eq!(run.histograms, trace.histograms);
        assert_eq!(run.intervals, trace.intervals());
    }

    #[test]
    fn interval_tsv_round_trip_recovers_rows() {
        let trace = sample_trace();
        let run = Run::from_interval_tsv(&trace.interval_metrics_tsv()).unwrap();
        assert_eq!(run.source, SourceFormat::IntervalTsv);
        assert_eq!(run.intervals, trace.intervals());
        // Energy columns survive with bit-exact values.
        assert_eq!(run.intervals[0].harvested_delta_pj, Some(10.5));
        assert_eq!(run.intervals[0].consumed_cum_pj, Some(8.25));
        assert_eq!(run.intervals[1].harvested_delta_pj, Some(11.0 - 10.5));
        assert_eq!(run.counters.outages, 1);
        assert_eq!(run.counters.power_ons, 2);
        assert_eq!(run.histograms.dirty_at_checkpoint.sum(), 1);
    }

    #[test]
    fn interval_tsv_counter_overflow_is_an_error() {
        let tsv = sample_trace().interval_metrics_tsv();
        let mut lines: Vec<String> = tsv.lines().map(str::to_string).collect();
        let cols: Vec<&str> = lines[0].split('\t').collect();
        let enq = cols.iter().position(|c| *c == "enqueues").unwrap();
        for line in &mut lines[1..3] {
            let mut f: Vec<&str> = line.split('\t').collect();
            f[enq] = "18446744073709551615";
            *line = f.join("\t");
        }
        let err = Run::from_interval_tsv(&lines.join("\n")).unwrap_err();
        assert_eq!(err, "row 3: `enqueues` total overflows u64");
    }

    /// The interval TSV carries no checksum, so a damaged digit can
    /// parse to another value; what must hold is no panic.
    #[test]
    fn every_interval_tsv_byte_mutation_and_truncation_is_handled() {
        let bytes = sample_trace().interval_metrics_tsv().into_bytes();
        let mut damaged: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
        for i in 0..bytes.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut bad = bytes.clone();
                bad[i] ^= mask;
                damaged.push(bad);
            }
        }
        let (mut rejected, mut accepted) = (0, 0);
        for bad in &damaged {
            match Run::from_interval_tsv(&String::from_utf8_lossy(bad)) {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        assert!(rejected > 0 && accepted > 0, "{rejected}/{accepted}");
    }

    #[test]
    fn parse_auto_detects_all_three_formats() {
        let trace = sample_trace();
        let j = Run::parse(&trace.chrome_trace("x")).unwrap();
        assert_eq!(j.source, SourceFormat::ChromeJson);
        let l = Run::parse(&trace.jsonl()).unwrap();
        assert_eq!(l.source, SourceFormat::Jsonl);
        let t = Run::parse(&trace.interval_metrics_tsv()).unwrap();
        assert_eq!(t.source, SourceFormat::IntervalTsv);
        assert!(Run::parse("garbage").is_err());
    }

    #[test]
    fn spans_reconstruct_the_lifecycle() {
        let run = Run::from_jsonl(&sample_trace().jsonl()).unwrap();
        let names: Vec<&str> = run.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["on", "checkpoint", "recharge", "restore", "on"]);
        let on0 = &run.spans[0];
        assert_eq!((on0.start_ps, on0.end_ps), (0, 500));
        assert_eq!(run.end_ps(), 1000);
    }

    #[test]
    fn voltage_series_surfaces_samples() {
        let mut rec = Recorder::with_voltage_sampling();
        rec.event(5, Event::VoltageSample { voltage: 3.25 });
        rec.event(9, Event::VoltageSample { voltage: 3.125 });
        let run = Run::from_jsonl(&rec.finish(10).jsonl()).unwrap();
        assert_eq!(run.voltage_series(), vec![(5, 3.25), (9, 3.125)]);
    }
}
