//! The typed trace model, [`Run`], and its one loader: the lossless
//! JSON-lines event capture.

use ehsim_mem::Ps;
use ehsim_obs::{
    parse_jsonl_line, Event, ObsCounters, ObsHistograms, Observer, Recorder, RunTrace,
    TraceInterval,
};

/// Appended to a first-line parse error: the input is not an event
/// capture at all, most likely one of the write-only exports.
const NOT_A_CAPTURE: &str = "not a JSONL event capture; only JSONL captures load \
     (write one with `ehsim-cli run --stream-out <p.jsonl>` or \
     `EHSIM_TRACE_WORKLOAD=<kernel>`); Chrome JSON and the interval-metrics \
     TSV are export-only";

/// A loaded run: the event timeline plus the counters, histograms and
/// per-power-on-interval rows a live `Recorder` derives from it. The
/// diff engine and the series folds consume it.
#[derive(Debug, Clone)]
pub struct Run {
    /// `(timestamp, event)` timeline in emission order.
    pub events: Vec<(Ps, Event)>,
    /// Event counts, as a live `Recorder` tallies them.
    pub counters: ObsCounters,
    /// Metric histograms.
    pub histograms: ObsHistograms,
    /// Per-power-on-interval rows.
    pub intervals: Vec<TraceInterval>,
}

impl Run {
    /// Loads a JSON-lines event capture (see [`Run::from_jsonl`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the file for I/O and parse errors.
    pub fn load(path: &str) -> Result<Run, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Run::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a JSON-lines event capture (`ehsim-cli run --stream-out`,
    /// `EHSIM_TRACE_WORKLOAD`, `RunTrace::jsonl`). Lossless: the events
    /// are replayed through a live [`Recorder`], so counters,
    /// histograms and interval rows reconcile exactly with the
    /// recording that wrote them.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (1-indexed), or the line at
    /// which the stale-drop total would overflow `u64`.
    pub fn from_jsonl(text: &str) -> Result<Run, String> {
        let mut rec = Recorder::default();
        let (mut loaded, mut end, mut stale_drops) = (0usize, 0, 0u64);
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let n = i + 1;
            let (at, ev) = parse_jsonl_line(line).map_err(|e| match loaded {
                0 => format!("line {n}: {e}: {NOT_A_CAPTURE}"),
                _ => format!("line {n}: {e}"),
            })?;
            // The recorder's tally adds unchecked, as the live path
            // does; a capture is untrusted input.
            if let Event::DqStaleDrop { dropped } = ev {
                stale_drops = stale_drops
                    .checked_add(dropped as u64)
                    .ok_or_else(|| format!("line {n}: stale-drop total overflows u64"))?;
            }
            rec.event(at, ev);
            loaded += 1;
            end = end.max(at);
        }
        if loaded == 0 {
            return Err("no events in JSONL input".to_string());
        }
        Ok(Run::from_trace(rec.finish(end)))
    }

    /// Wraps an in-memory recording, deriving its interval rows.
    pub fn from_trace(trace: RunTrace) -> Run {
        let intervals = trace.intervals();
        Run {
            events: trace.events,
            counters: trace.counters,
            histograms: trace.histograms,
            intervals,
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
        assert_eq!(run.events, trace.events);
        assert_eq!(run.counters, trace.counters);
        assert_eq!(run.histograms, trace.histograms);
        assert_eq!(run.intervals, trace.intervals());
    }

    #[test]
    fn exports_are_rejected_with_where_captures_come_from() {
        let trace = sample_trace();
        for export in [trace.chrome_trace("x"), trace.interval_metrics_tsv()] {
            let err = Run::from_jsonl(&export).unwrap_err();
            assert!(err.starts_with("line 1: "), "{err}");
            assert!(err.contains("only JSONL captures load"), "{err}");
        }
        // Damage past the first event is an ordinary line error.
        let mut text = trace.jsonl();
        text.push_str("garbage\n");
        let err = Run::from_jsonl(&text).unwrap_err();
        assert!(!err.contains("only JSONL"), "{err}");
        assert!(Run::from_jsonl("\n\n").is_err());
    }

    /// Two stale drops of `u64::MAX` entries: the recorder's unchecked
    /// tally would overflow, so the loader refuses the capture.
    #[test]
    fn stale_drop_total_overflow_is_an_error() {
        let line = "{\"ts\":1,\"ev\":\"DqStaleDrop\",\"dropped\":18446744073709551615}\n";
        assert!(Run::from_jsonl(line).is_ok());
        let err = Run::from_jsonl(&line.repeat(2)).unwrap_err();
        assert_eq!(err, "line 2: stale-drop total overflows u64");
    }
}
