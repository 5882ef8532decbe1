//! Reader for our Chrome `trace_event` JSON: validates the input with
//! `validate_chrome_trace` semantics, then reconstructs the event
//! timeline from the rendered spans, instants and counter tracks.
//!
//! Two documented lossy spots (see [`crate::Run`]): the `dq_occupancy`
//! counter cannot distinguish a stale-drop of one entry from an ACK, so
//! occupancy decreases are attributed to ACKs; and line base addresses
//! are not carried by enqueue/ACK counter samples, so they read back as
//! zero. Everything the histograms and interval rows are built from —
//! lifecycle timing, outage lengths, flush counts, write-back latencies,
//! stalls, thresholds, energy samples — round-trips exactly.

use crate::model::{Run, SourceFormat};
use ehsim_mem::Ps;
use ehsim_obs::{validate_chrome_trace, Event};

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Converts a `ts`/`dur` value (µs, printed with 6 decimals by the
/// exporter) back to integer picoseconds. Exact for every timestamp the
/// exporter can produce: the 6-decimal rendering is ps-resolution and
/// the f64 round-trip error is far below half a picosecond.
fn ps_of(us: f64) -> Ps {
    (us * 1e6).round() as Ps
}

/// The end `ts + dur` of a complete (`X`) event. A damaged `dur` (say
/// `0.04e500`, which saturates to `u64::MAX` ps) overflows; that is an
/// error, not a panic.
fn span_end(line: &str, lineno: usize, ts: Ps) -> Result<Ps, String> {
    let dur = field_num(line, "\"dur\":")
        .map(ps_of)
        .ok_or_else(|| format!("line {lineno}: missing dur"))?;
    ts.checked_add(dur)
        .ok_or_else(|| format!("line {lineno}: ts + dur overflows"))
}

fn arg_u64(line: &str, lineno: usize, key: &str) -> Result<u64, String> {
    field_num(line, key)
        .map(|v| v.round() as u64)
        .ok_or_else(|| format!("line {lineno}: missing arg {key}"))
}

/// Parses an exporter-written Chrome trace back into a [`Run`].
///
/// # Errors
///
/// Returns schema-validation failures first (monotonic timestamps,
/// balanced spans), then reconstruction errors naming the line.
pub(crate) fn parse(text: &str) -> Result<Run, String> {
    validate_chrome_trace(text).map_err(|e| format!("invalid trace: {e}"))?;

    let mut events: Vec<(Ps, Event)> = Vec::new();
    let mut name: Option<String> = None;
    let mut dq_prev: i64 = 0;
    let mut pending_harvested: Option<f64> = None;
    // The first maxline+waterline counter pair is the pre-run
    // InitialThresholds emission; later threshold counters always
    // accompany a reconfigure/dyn-raise instant, which carries the
    // authoritative args.
    let mut initial_maxline: Option<usize> = None;
    let mut saw_initial = false;

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let Some(ph) = field_str(line, "\"ph\":\"") else {
            continue;
        };
        if ph == "M" {
            if field_str(line, "\"name\":\"") == Some("process_name") {
                if let Some(args) = line.find("\"args\"").map(|p| &line[p..]) {
                    name = field_str(args, "\"name\":\"").map(str::to_string);
                }
            }
            continue;
        }
        let ts = field_num(line, "\"ts\":")
            .map(ps_of)
            .ok_or_else(|| format!("line {n}: missing ts"))?;
        let ev_name =
            field_str(line, "\"name\":\"").ok_or_else(|| format!("line {n}: missing name"))?;
        match (ph, ev_name) {
            ("B", "on") => {
                let interval = arg_u64(line, n, "\"interval\":")?;
                events.push((ts, Event::PowerOn { interval }));
            }
            ("B", "checkpoint") => {
                let dirty_lines = arg_u64(line, n, "\"dirty_lines\":")? as usize;
                events.push((ts, Event::CheckpointBegin { dirty_lines }));
            }
            ("E", "checkpoint") => {
                let flushed_lines = arg_u64(line, n, "\"flushed_lines\":")?;
                events.push((ts, Event::CheckpointEnd { flushed_lines }));
            }
            ("B", "recharge") => events.push((ts, Event::PowerOff)),
            ("B", "restore") => events.push((ts, Event::RestoreBegin)),
            ("E", "restore") => events.push((ts, Event::RestoreEnd)),
            // "E on" / "E recharge" carry no information of their own:
            // the outage instant, restore begin, or RunEnd already mark
            // the transition.
            ("E", _) => {}
            ("i", "outage") => {
                let on_ps = arg_u64(line, n, "\"on_ps\":")?;
                let voltage = field_num(line, "\"voltage\":")
                    .ok_or_else(|| format!("line {n}: missing arg voltage"))?;
                events.push((ts, Event::OutageBegin { on_ps, voltage }));
            }
            ("i", "reconfigure") => {
                let maxline = arg_u64(line, n, "\"maxline\":")? as usize;
                let waterline = arg_u64(line, n, "\"waterline\":")? as usize;
                events.push((ts, Event::Reconfigure { maxline, waterline }));
            }
            ("i", "dyn-raise") => {
                let maxline = arg_u64(line, n, "\"maxline\":")? as usize;
                events.push((ts, Event::DynRaise { maxline }));
            }
            ("i", crossing) => {
                // Rail-crossing instants are named "<rail> rise|fall".
                if let Some((label, dir)) = crossing.rsplit_once(' ') {
                    let rail = match label {
                        "Von" => Some(ehsim_obs::Rail::Von),
                        "Vbackup" => Some(ehsim_obs::Rail::Vbackup),
                        "Vmin" => Some(ehsim_obs::Rail::Vmin),
                        _ => None,
                    };
                    if let (Some(rail), rising) = (rail, dir == "rise") {
                        events.push((ts, Event::VoltageCross { rail, rising }));
                    }
                }
            }
            ("X", "stall") => {
                let until = span_end(line, n, ts)?;
                events.push((ts, Event::DqStall { until }));
            }
            ("X", "writeback") => {
                let ack_at = span_end(line, n, ts)?;
                let base = arg_u64(line, n, "\"base\":")? as u32;
                events.push((ts, Event::WritebackIssued { base, ack_at }));
            }
            ("C", counter) => {
                let value = field_num(line, "\"value\":")
                    .ok_or_else(|| format!("line {n}: counter without value"))?;
                match counter {
                    "dq_occupancy" => {
                        let v = value.round() as i64;
                        let delta = v - dq_prev;
                        dq_prev = v;
                        if delta > 0 {
                            for _ in 0..delta {
                                events.push((ts, Event::DqEnqueue { base: 0 }));
                            }
                        } else if delta < 0 {
                            // A drop to zero right after a same-ts
                            // CheckpointEnd is the exporter's occupancy
                            // reset, not ACK traffic.
                            let is_reset = v == 0
                                && matches!(
                                    events.last(),
                                    Some(&(t, Event::CheckpointEnd { .. })) if t == ts
                                );
                            if !is_reset {
                                for _ in 0..-delta {
                                    events.push((ts, Event::DqAck { base: 0 }));
                                }
                            }
                        }
                    }
                    "maxline" if !saw_initial => {
                        initial_maxline = Some(value.round() as usize);
                    }
                    "waterline" if !saw_initial => {
                        if let Some(maxline) = initial_maxline.take() {
                            saw_initial = true;
                            events.push((
                                ts,
                                Event::InitialThresholds {
                                    maxline,
                                    waterline: value.round() as usize,
                                },
                            ));
                        }
                    }
                    "capacitor_v" => {
                        events.push((ts, Event::VoltageSample { voltage: value }));
                    }
                    "harvested_pj" => pending_harvested = Some(value),
                    "consumed_pj" => {
                        let harvested_pj = pending_harvested.take().ok_or_else(|| {
                            format!("line {n}: consumed_pj counter without harvested_pj")
                        })?;
                        events.push((
                            ts,
                            Event::EnergySample {
                                harvested_pj,
                                consumed_pj: value,
                            },
                        ));
                    }
                    // Redundant renderings of data carried elsewhere
                    // (histogram tracks mirror instants/spans; post-
                    // initial threshold counters mirror instants).
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if events.is_empty() {
        return Err("no reconstructable events in trace".to_string());
    }
    Ok(Run::from_events(events, name, SourceFormat::ChromeJson))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_obs::{Observer, Recorder};

    fn recorded() -> ehsim_obs::RunTrace {
        let mut r = Recorder::default();
        r.event(
            0,
            Event::InitialThresholds {
                maxline: 6,
                waterline: 2,
            },
        );
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(10, Event::DqEnqueue { base: 64 });
        r.event(12, Event::DqEnqueue { base: 128 });
        r.event(
            20,
            Event::WritebackIssued {
                base: 64,
                ack_at: 120,
            },
        );
        r.event(120, Event::DqAck { base: 64 });
        r.event(130, Event::DqStall { until: 150 });
        r.event(
            500,
            Event::OutageBegin {
                on_ps: 500,
                voltage: 2.9625,
            },
        );
        r.event(500, Event::CheckpointBegin { dirty_lines: 2 });
        r.event(
            560,
            Event::EnergySample {
                harvested_pj: 100.125,
                consumed_pj: 90.0625,
            },
        );
        r.event(560, Event::CheckpointEnd { flushed_lines: 2 });
        r.event(560, Event::PowerOff);
        r.event(
            800,
            Event::VoltageCross {
                rail: ehsim_obs::Rail::Von,
                rising: true,
            },
        );
        r.event(800, Event::RestoreBegin);
        r.event(820, Event::RestoreEnd);
        r.event(820, Event::PowerOn { interval: 1 });
        r.event(
            830,
            Event::Reconfigure {
                maxline: 5,
                waterline: 2,
            },
        );
        r.event(840, Event::DynRaise { maxline: 6 });
        r.event(850, Event::VoltageSample { voltage: 3.0125 });
        r.event(
            900,
            Event::EnergySample {
                harvested_pj: 130.5,
                consumed_pj: 95.125,
            },
        );
        r.finish(900)
    }

    #[test]
    fn chrome_round_trip_reconciles_counters_and_histograms() {
        let trace = recorded();
        let run = parse(&trace.chrome_trace("sha / WL-Cache / rf1")).unwrap();
        assert_eq!(run.name.as_deref(), Some("sha / WL-Cache / rf1"));
        let a = run.counters;
        let b = trace.counters;
        assert_eq!(a.power_ons, b.power_ons);
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.reconfigurations, b.reconfigurations);
        assert_eq!(a.dyn_raises, b.dyn_raises);
        assert_eq!(a.dq_enqueues, b.dq_enqueues);
        assert_eq!(a.dq_stalls, b.dq_stalls);
        assert_eq!(a.writebacks_issued, b.writebacks_issued);
        assert_eq!(a.voltage_crossings, b.voltage_crossings);
        assert_eq!(a.voltage_samples, b.voltage_samples);
        assert_eq!(a.energy_samples, b.energy_samples);
        // Stale drops fold into ACKs (documented): the combined count
        // is exact.
        assert_eq!(a.dq_acks + a.stale_drops, b.dq_acks + b.stale_drops);
        assert_eq!(run.histograms, trace.histograms);
        assert_eq!(run.intervals.len(), trace.intervals().len());
        // Interval rows agree on everything the format carries exactly.
        for (x, y) in run.intervals.iter().zip(trace.intervals()) {
            assert_eq!(x.interval, y.interval);
            assert_eq!(x.start_ps, y.start_ps);
            assert_eq!(x.end_ps, y.end_ps);
            assert_eq!(x.on_ps, y.on_ps);
            assert_eq!(x.dirty_flushed, y.dirty_flushed);
            assert_eq!(x.cleanings, y.cleanings);
            assert_eq!(x.enqueues, y.enqueues);
            assert_eq!(x.stalls, y.stalls);
            assert_eq!(x.dyn_raises, y.dyn_raises);
            assert_eq!(x.maxline, y.maxline);
            assert_eq!(x.waterline, y.waterline);
            assert_eq!(x.harvested_delta_pj, y.harvested_delta_pj);
            assert_eq!(x.consumed_delta_pj, y.consumed_delta_pj);
            assert_eq!(x.harvested_cum_pj, y.harvested_cum_pj);
            assert_eq!(x.consumed_cum_pj, y.consumed_cum_pj);
        }
        // The voltage trajectory survives (exact f64 round-trip).
        assert_eq!(run.voltage_series(), vec![(850, 3.0125)]);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(parse("not json").is_err());
        // Structurally valid but with nothing to reconstruct is fine as
        // long as at least one event maps; a metadata-only file fails
        // validation already (no events).
        assert!(parse("{\"traceEvents\": [\n]}\n").is_err());
    }
}
