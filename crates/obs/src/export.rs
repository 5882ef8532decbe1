//! Exporters: Chrome `trace_event` JSON and per-interval metrics TSV,
//! plus the schema validator CI runs over emitted traces.
//!
//! Everything here is hand-rolled string formatting / line scanning —
//! the workspace is offline and carries no JSON dependency. The emitter
//! writes exactly one event object per line so the validator can
//! line-scan.

use crate::event::Event;
use crate::histogram::Quantile;
use crate::recorder::RunTrace;
use std::fmt::Write as _;

/// Picoseconds per microsecond — Chrome trace timestamps are in µs.
const PS_PER_US: f64 = 1e6;

/// Thread ids used in the exported timeline.
const TID_MACHINE: u32 = 1;
const TID_WRITEBACK: u32 = 2;
const TID_STALL: u32 = 3;

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn ts_us(ps: u64) -> String {
    format!("{:.6}", ps as f64 / PS_PER_US)
}

/// Renders a [`RunTrace`] as Chrome `trace_event` JSON (object form,
/// `traceEvents` array). Open it in `chrome://tracing` or Perfetto.
///
/// Layout: tid 1 carries the machine lifecycle as balanced B/E spans
/// (`on`, `checkpoint`, `recharge`, `restore`) plus instants (outage,
/// reconfigure, rail crossings); tid 2 carries each async write-back as
/// a complete (`X`) slice spanning issue→ACK; tid 3 carries store
/// stalls. Counter (`C`) tracks follow DirtyQueue occupancy and the
/// maxline/waterline thresholds.
pub(crate) fn chrome_trace(trace: &RunTrace, name: &str) -> String {
    let mut events = trace.events.clone();
    // Stable by timestamp: ACKs are recorded at NVM completion time and
    // can trail the emission cursor; same-ts lifecycle order (e.g. an E
    // immediately followed by a B) is preserved.
    events.sort_by_key(|(ts, _)| *ts);

    let mut lines: Vec<String> = Vec::with_capacity(events.len() + 8);
    let pname = escape_json(name);
    lines.push(format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{pname}\"}}}}"
    ));
    for (tid, tname) in [
        (TID_MACHINE, "machine"),
        (TID_WRITEBACK, "nvm-writeback"),
        (TID_STALL, "core-stall"),
    ] {
        lines.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{tname}\"}}}}"
        ));
    }

    // Open-span stack on the machine thread; closing is guarded on the
    // expected name so the output is balanced by construction.
    let mut stack: Vec<&'static str> = Vec::new();
    let mut dq_occupancy: i64 = 0;

    let begin = |lines: &mut Vec<String>,
                 stack: &mut Vec<&'static str>,
                 ts: u64,
                 name: &'static str,
                 args: String| {
        stack.push(name);
        lines.push(format!(
            "{{\"ph\":\"B\",\"pid\":1,\"tid\":{TID_MACHINE},\"ts\":{},\"name\":\"{name}\"{args}}}",
            ts_us(ts)
        ));
    };
    let end = |lines: &mut Vec<String>,
               stack: &mut Vec<&'static str>,
               ts: u64,
               name: &'static str,
               args: String| {
        if stack.last() == Some(&name) {
            stack.pop();
            lines.push(format!(
                "{{\"ph\":\"E\",\"pid\":1,\"tid\":{TID_MACHINE},\"ts\":{},\"name\":\"{name}\"{args}}}",
                ts_us(ts)
            ));
        }
    };
    let instant = |lines: &mut Vec<String>, ts: u64, name: &str, args: String| {
        lines.push(format!(
            "{{\"ph\":\"i\",\"pid\":1,\"tid\":{TID_MACHINE},\"ts\":{},\"s\":\"t\",\"name\":\"{name}\"{args}}}",
            ts_us(ts)
        ));
    };
    let counter = |lines: &mut Vec<String>, ts: u64, name: &str, value: i64| {
        lines.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"{name}\",\"args\":{{\"value\":{value}}}}}",
            ts_us(ts)
        ));
    };
    let counter_f = |lines: &mut Vec<String>, ts: u64, name: &str, value: f64| {
        lines.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{},\"name\":\"{name}\",\"args\":{{\"value\":{value}}}}}",
            ts_us(ts)
        ));
    };

    for &(ts, ev) in &events {
        match ev {
            Event::InitialThresholds { maxline, waterline } => {
                counter(&mut lines, ts, "maxline", maxline as i64);
                counter(&mut lines, ts, "waterline", waterline as i64);
            }
            Event::PowerOn { interval } => {
                begin(
                    &mut lines,
                    &mut stack,
                    ts,
                    "on",
                    format!(",\"args\":{{\"interval\":{interval}}}"),
                );
            }
            Event::OutageBegin { on_ps, voltage } => {
                end(&mut lines, &mut stack, ts, "on", String::new());
                instant(
                    &mut lines,
                    ts,
                    "outage",
                    format!(",\"args\":{{\"on_ps\":{on_ps},\"voltage\":{voltage:.4}}}"),
                );
                // Histogram counter track: each sample the histogram
                // records is also a point on a Perfetto counter, so the
                // distribution is browsable over time.
                counter(&mut lines, ts, "hist:outage_interval_ps", on_ps as i64);
            }
            Event::CheckpointBegin { dirty_lines } => {
                begin(
                    &mut lines,
                    &mut stack,
                    ts,
                    "checkpoint",
                    format!(",\"args\":{{\"dirty_lines\":{dirty_lines}}}"),
                );
            }
            Event::CheckpointEnd { flushed_lines } => {
                end(
                    &mut lines,
                    &mut stack,
                    ts,
                    "checkpoint",
                    format!(",\"args\":{{\"flushed_lines\":{flushed_lines}}}"),
                );
                counter(
                    &mut lines,
                    ts,
                    "hist:dirty_at_checkpoint",
                    flushed_lines as i64,
                );
                if dq_occupancy != 0 {
                    dq_occupancy = 0;
                    counter(&mut lines, ts, "dq_occupancy", 0);
                }
            }
            Event::PowerOff => {
                begin(&mut lines, &mut stack, ts, "recharge", String::new());
            }
            Event::RestoreBegin => {
                end(&mut lines, &mut stack, ts, "recharge", String::new());
                begin(&mut lines, &mut stack, ts, "restore", String::new());
            }
            Event::RestoreEnd => {
                end(&mut lines, &mut stack, ts, "restore", String::new());
            }
            Event::RunEnd => {
                while let Some(&name) = stack.last() {
                    end(&mut lines, &mut stack, ts, name, String::new());
                }
            }
            Event::DqEnqueue { base } => {
                dq_occupancy += 1;
                counter(&mut lines, ts, "dq_occupancy", dq_occupancy);
                let _ = base;
            }
            Event::DqAck { base } => {
                dq_occupancy = (dq_occupancy - 1).max(0);
                counter(&mut lines, ts, "dq_occupancy", dq_occupancy);
                let _ = base;
            }
            Event::DqStall { until } => {
                lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_STALL},\"ts\":{},\"dur\":{},\"name\":\"stall\"}}",
                    ts_us(ts),
                    ts_us(until.saturating_sub(ts))
                ));
            }
            Event::DqStaleDrop { dropped } => {
                dq_occupancy = dq_occupancy.saturating_sub_unsigned(dropped as u64).max(0);
                counter(&mut lines, ts, "dq_occupancy", dq_occupancy);
            }
            Event::WritebackIssued { base, ack_at } => {
                lines.push(format!(
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{TID_WRITEBACK},\"ts\":{},\"dur\":{},\"name\":\"writeback\",\"args\":{{\"base\":{base}}}}}",
                    ts_us(ts),
                    ts_us(ack_at.saturating_sub(ts))
                ));
                counter(
                    &mut lines,
                    ts,
                    "hist:writeback_latency_ps",
                    ack_at.saturating_sub(ts) as i64,
                );
            }
            Event::Reconfigure { maxline, waterline } => {
                instant(
                    &mut lines,
                    ts,
                    "reconfigure",
                    format!(",\"args\":{{\"maxline\":{maxline},\"waterline\":{waterline}}}"),
                );
                counter(&mut lines, ts, "maxline", maxline as i64);
                counter(&mut lines, ts, "waterline", waterline as i64);
            }
            Event::DynRaise { maxline } => {
                instant(
                    &mut lines,
                    ts,
                    "dyn-raise",
                    format!(",\"args\":{{\"maxline\":{maxline}}}"),
                );
                counter(&mut lines, ts, "maxline", maxline as i64);
            }
            Event::VoltageCross { rail, rising } => {
                let dir = if rising { "rise" } else { "fall" };
                instant(
                    &mut lines,
                    ts,
                    &format!("{} {dir}", rail.label()),
                    String::new(),
                );
            }
            Event::VoltageSample { voltage } => {
                counter_f(&mut lines, ts, "capacitor_v", voltage);
            }
            Event::EnergySample {
                harvested_pj,
                consumed_pj,
            } => {
                counter_f(&mut lines, ts, "harvested_pj", harvested_pj);
                counter_f(&mut lines, ts, "consumed_pj", consumed_pj);
            }
        }
    }

    let mut out = String::with_capacity(lines.len() * 96 + 64);
    out.push_str("{\"traceEvents\": [\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\"\n}\n");
    out
}

/// One finished power-on interval, as derived from the event timeline.
///
/// This is the typed row behind [`RunTrace::interval_metrics_tsv`];
/// [`crate::diff_runs`] aligns two runs by the same rows.
/// Rows close at the interval's `CheckpointEnd` (or at `RunEnd` for the
/// final, uninterrupted one, where `dirty_flushed` is `None` because no
/// checkpoint ran). For non-WL designs the DirtyQueue columns are zero.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceInterval {
    /// Power-on interval index (0 = initial boot).
    pub interval: u64,
    /// `PowerOn` timestamp.
    pub start_ps: u64,
    /// `OutageBegin` (or `RunEnd`) timestamp.
    pub end_ps: u64,
    /// Length of the on-interval.
    pub on_ps: u64,
    /// Lines flushed by the JIT checkpoint that closed the interval;
    /// `None` for the final interval the run ended inside.
    pub dirty_flushed: Option<u64>,
    /// Async write-backs issued (`WritebackIssued`).
    pub cleanings: u64,
    /// DirtyQueue enqueues.
    pub enqueues: u64,
    /// DirtyQueue ACKs timestamped inside the interval.
    pub acks: u64,
    /// Core stalls on `maxline`.
    pub stalls: u64,
    /// Stale queue entries dropped.
    pub stale_drops: u64,
    /// §4 dynamic `maxline` raises inside the interval.
    pub dyn_raises: u64,
    /// `maxline` in force when the interval closed (`None` for non-WL
    /// designs, which never emit thresholds).
    pub maxline: Option<usize>,
    /// `waterline` in force when the interval closed.
    pub waterline: Option<usize>,
    /// Energy harvested during this interval (pJ): the exact f64
    /// difference of consecutive cumulative [`Event::EnergySample`]s.
    /// `None` when the run was recorded without energy instrumentation.
    pub harvested_delta_pj: Option<f64>,
    /// Energy consumed during this interval (pJ), same telescoping
    /// construction.
    pub consumed_delta_pj: Option<f64>,
    /// Cumulative harvested energy at interval close (pJ).
    pub harvested_cum_pj: Option<f64>,
    /// Cumulative metered consumption at interval close (pJ) — the
    /// `EnergyMeter` total at that instant, bit-exact.
    pub consumed_cum_pj: Option<f64>,
}

/// Derives the per-power-on-interval rows from a trace's timeline.
pub(crate) fn intervals(trace: &RunTrace) -> Vec<TraceInterval> {
    let mut events = trace.events.clone();
    // Stable sort: same-ts emission order (EnergySample before
    // CheckpointEnd / RunEnd) is preserved.
    events.sort_by_key(|(ts, _)| *ts);

    let mut rows = Vec::new();
    let mut maxline: Option<usize> = None;
    let mut waterline: Option<usize> = None;
    let mut cur: Option<TraceInterval> = None;
    let mut prev_harvested = 0.0_f64;
    let mut prev_consumed = 0.0_f64;

    for &(ts, ev) in &events {
        match ev {
            Event::InitialThresholds {
                maxline: m,
                waterline: w,
            } => {
                maxline = Some(m);
                waterline = Some(w);
            }
            Event::PowerOn { interval } => {
                cur = Some(TraceInterval {
                    interval,
                    start_ps: ts,
                    maxline,
                    waterline,
                    ..TraceInterval::default()
                });
            }
            Event::OutageBegin { on_ps, .. } => {
                if let Some(row) = cur.as_mut() {
                    row.end_ps = ts;
                    row.on_ps = on_ps;
                }
            }
            Event::EnergySample {
                harvested_pj,
                consumed_pj,
            } => {
                if let Some(row) = cur.as_mut() {
                    row.harvested_cum_pj = Some(harvested_pj);
                    row.consumed_cum_pj = Some(consumed_pj);
                    row.harvested_delta_pj = Some(harvested_pj - prev_harvested);
                    row.consumed_delta_pj = Some(consumed_pj - prev_consumed);
                }
                prev_harvested = harvested_pj;
                prev_consumed = consumed_pj;
            }
            Event::CheckpointEnd { flushed_lines } => {
                if let Some(mut row) = cur.take() {
                    row.dirty_flushed = Some(flushed_lines);
                    row.maxline = maxline;
                    row.waterline = waterline;
                    rows.push(row);
                }
            }
            Event::RunEnd => {
                if let Some(mut row) = cur.take() {
                    row.end_ps = ts;
                    row.on_ps = ts.saturating_sub(row.start_ps);
                    row.maxline = maxline;
                    row.waterline = waterline;
                    rows.push(row);
                }
            }
            Event::WritebackIssued { .. } => {
                if let Some(row) = cur.as_mut() {
                    row.cleanings += 1;
                }
            }
            Event::DqEnqueue { .. } => {
                if let Some(row) = cur.as_mut() {
                    row.enqueues += 1;
                }
            }
            Event::DqAck { .. } => {
                if let Some(row) = cur.as_mut() {
                    row.acks += 1;
                }
            }
            Event::DqStall { .. } => {
                if let Some(row) = cur.as_mut() {
                    row.stalls += 1;
                }
            }
            Event::DqStaleDrop { dropped } => {
                if let Some(row) = cur.as_mut() {
                    row.stale_drops += dropped as u64;
                }
            }
            Event::DynRaise { maxline: m } => {
                maxline = Some(m);
                if let Some(row) = cur.as_mut() {
                    row.dyn_raises += 1;
                }
            }
            Event::Reconfigure {
                maxline: m,
                waterline: w,
            } => {
                maxline = Some(m);
                waterline = Some(w);
            }
            Event::CheckpointBegin { .. }
            | Event::PowerOff
            | Event::RestoreBegin
            | Event::RestoreEnd
            | Event::VoltageCross { .. }
            | Event::VoltageSample { .. } => {}
        }
    }
    rows
}

/// Renders per-power-on-interval metrics as a TSV table (same style as
/// `results/*.tsv`), one row per [`TraceInterval`]. The four energy
/// columns are appended last and print `-` when the run carried no
/// [`Event::EnergySample`]s, so pre-existing column positions are
/// stable.
pub(crate) fn interval_metrics_tsv(trace: &RunTrace) -> String {
    let mut out = String::new();
    out.push_str(
        "interval\tstart_ps\tend_ps\ton_ps\tdirty_flushed\tcleanings\tenqueues\tacks\tstalls\tstale_drops\tdyn_raises\tmaxline\twaterline\tharvested_pj\tconsumed_pj\tharvested_cum_pj\tconsumed_cum_pj\n",
    );
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    let optu = |v: Option<usize>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    // `{}` is Rust's shortest round-trip float formatting, so each
    // printed value parses back to the identical `f64`.
    let optf = |v: Option<f64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    for row in intervals(trace) {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            row.interval,
            row.start_ps,
            row.end_ps,
            row.on_ps,
            opt(row.dirty_flushed),
            row.cleanings,
            row.enqueues,
            row.acks,
            row.stalls,
            row.stale_drops,
            row.dyn_raises,
            optu(row.maxline),
            optu(row.waterline),
            optf(row.harvested_delta_pj),
            optf(row.consumed_delta_pj),
            optf(row.harvested_cum_pj),
            optf(row.consumed_cum_pj),
        );
    }
    histogram_footer(&mut out, trace);
    out
}

/// Appends the three run-wide [`crate::ObsHistograms`] as `#`-prefixed
/// footer lines, so TSV consumers that treat `#` as a comment (and the
/// interval-row counters above) are unaffected. One `# histogram`
/// summary line per histogram, then one `# bucket` line per non-empty
/// log2 bucket: `lower<TAB>upper<TAB>count` with both bounds inclusive.
fn histogram_footer(out: &mut String, trace: &RunTrace) {
    let h = &trace.histograms;
    for (name, hist) in [
        ("outage_interval_ps", &h.outage_interval_ps),
        ("dirty_at_checkpoint", &h.dirty_at_checkpoint),
        ("writeback_latency_ps", &h.writeback_latency_ps),
    ] {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "# histogram\t{name}\tcount={}\tsum={}\tmean={:.3}\tmin={}\tp50={}\tp99={}\tmax={}",
            hist.count(),
            hist.sum(),
            hist.mean(),
            opt(hist.min()),
            opt(hist.quantile(Quantile::P50)),
            opt(hist.quantile(Quantile::P99)),
            opt(hist.max()),
        );
        for (lower, upper, count) in hist.buckets() {
            let _ = writeln!(out, "# bucket\t{name}\t{lower}\t{upper}\t{count}");
        }
    }
}

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total event objects (including metadata).
    pub events: usize,
    /// Matched begin/end span pairs.
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
    /// Counter samples.
    pub counters: usize,
    /// Complete (`X`) slices.
    pub complete: usize,
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+e".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Schema check over an emitted Chrome trace: every event object has a
/// phase and name, non-metadata timestamps are monotonically
/// nondecreasing in file order, `B`/`E` pairs are balanced per thread
/// with matching names, and `X` slices carry a nonnegative duration.
///
/// Relies on the one-event-per-line layout produced by
/// [`RunTrace::chrome_trace`].
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let mut check = TraceCheck {
        events: 0,
        spans: 0,
        instants: 0,
        counters: 0,
        complete: 0,
    };
    let mut last_ts: f64 = f64::NEG_INFINITY;
    // (tid, open span names) — the exporter uses a single pid.
    let mut stacks: Vec<(u32, Vec<String>)> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let Some(ph) = field_str(line, "\"ph\":\"") else {
            continue;
        };
        check.events += 1;
        let n = lineno + 1;
        let name = field_str(line, "\"name\":\"")
            .ok_or_else(|| format!("line {n}: event without name"))?;
        if ph == "M" {
            continue;
        }
        let ts = field_num(line, "\"ts\":").ok_or_else(|| format!("line {n}: event without ts"))?;
        if ts < last_ts {
            return Err(format!(
                "line {n}: timestamp {ts} goes backwards (previous {last_ts})"
            ));
        }
        last_ts = ts;
        let tid = field_num(line, "\"tid\":").unwrap_or(0.0) as u32;
        match ph.as_str() {
            "B" => {
                let idx = match stacks.iter().position(|(t, _)| *t == tid) {
                    Some(i) => i,
                    None => {
                        stacks.push((tid, Vec::new()));
                        stacks.len() - 1
                    }
                };
                stacks[idx].1.push(name);
            }
            "E" => {
                let stack = stacks
                    .iter_mut()
                    .find_map(|(t, s)| (*t == tid).then_some(s))
                    .ok_or_else(|| {
                        format!("line {n}: E \"{name}\" on tid {tid} with no open span")
                    })?;
                match stack.pop() {
                    Some(open) if open == name => check.spans += 1,
                    Some(open) => {
                        return Err(format!(
                            "line {n}: E \"{name}\" does not match open span \"{open}\""
                        ))
                    }
                    None => {
                        return Err(format!("line {n}: E \"{name}\" with no open span"));
                    }
                }
            }
            "X" => {
                let dur = field_num(line, "\"dur\":")
                    .ok_or_else(|| format!("line {n}: X without dur"))?;
                if dur < 0.0 {
                    return Err(format!("line {n}: negative duration {dur}"));
                }
                check.complete += 1;
            }
            "i" => check.instants += 1,
            "C" => check.counters += 1,
            other => return Err(format!("line {n}: unknown phase \"{other}\"")),
        }
    }
    if check.events == 0 {
        return Err("no trace events found".to_string());
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span \"{open}\" never closed"));
        }
    }
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::Observer;
    use crate::recorder::Recorder;

    fn sample_trace() -> RunTrace {
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
        r.event(
            20,
            Event::WritebackIssued {
                base: 64,
                ack_at: 120,
            },
        );
        r.event(120, Event::DqAck { base: 64 });
        r.event(
            500,
            Event::OutageBegin {
                on_ps: 500,
                voltage: 2.96,
            },
        );
        r.event(500, Event::CheckpointBegin { dirty_lines: 1 });
        r.event(550, Event::CheckpointEnd { flushed_lines: 1 });
        r.event(550, Event::PowerOff);
        r.event(900, Event::RestoreBegin);
        r.event(920, Event::RestoreEnd);
        r.event(920, Event::PowerOn { interval: 1 });
        r.event(
            930,
            Event::VoltageCross {
                rail: ehsim_energy::Rail::Vbackup,
                rising: false,
            },
        );
        r.finish(1000)
    }

    #[test]
    fn chrome_trace_round_trips_validator() {
        let json = sample_trace().chrome_trace("sha/WL-Cache");
        let check = validate_chrome_trace(&json).expect("valid trace");
        // Spans: on (x2), checkpoint, recharge, restore.
        assert_eq!(check.spans, 5);
        assert!(check.complete >= 1);
        assert!(check.instants >= 2);
        assert!(check.counters >= 3);
    }

    /// A loaded capture can carry a stale drop of 2^63 entries; the
    /// occupancy counter track must clamp, not overflow.
    #[test]
    fn huge_stale_drop_clamps_the_occupancy_track() {
        let mut r = Recorder::default();
        r.event(1, Event::DqStaleDrop { dropped: 1 << 63 });
        let json = r.finish(1).chrome_trace("x");
        assert!(json.contains("\"name\":\"dq_occupancy\",\"args\":{\"value\":0}"));
    }

    #[test]
    fn validator_rejects_unbalanced_and_backwards() {
        let json = sample_trace().chrome_trace("x");
        // Drop the final E lines -> unbalanced.
        let truncated: String = json
            .lines()
            .filter(|l| !l.contains("\"ph\":\"E\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(validate_chrome_trace(&truncated).is_err());
        // Reverse event order -> timestamps go backwards.
        let reversed: String = json.lines().rev().collect::<Vec<_>>().join("\n");
        assert!(validate_chrome_trace(&reversed).is_err());
        assert!(validate_chrome_trace("").is_err());
    }

    #[test]
    fn interval_metrics_rows_per_interval() {
        let tsv = sample_trace().interval_metrics_tsv();
        let lines: Vec<&str> = tsv.lines().filter(|l| !l.starts_with('#')).collect();
        // Header + interval 0 (closed by checkpoint) + interval 1 (RunEnd).
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("interval\tstart_ps"));
        let row0: Vec<&str> = lines[1].split('\t').collect();
        assert_eq!(row0[0], "0"); // interval
        assert_eq!(row0[3], "500"); // on_ps
        assert_eq!(row0[4], "1"); // dirty_flushed
        assert_eq!(row0[5], "1"); // cleanings
        assert_eq!(row0[6], "1"); // enqueues
        assert_eq!(row0[11], "6"); // maxline
        let row1: Vec<&str> = lines[2].split('\t').collect();
        assert_eq!(row1[0], "1");
        assert_eq!(row1[4], "-"); // no checkpoint closed the final row
        assert_eq!(row1[3], "80"); // 1000 - 920
    }

    #[test]
    fn interval_metrics_footer_renders_all_histograms() {
        let tsv = sample_trace().interval_metrics_tsv();
        let footer: Vec<&str> = tsv.lines().filter(|l| l.starts_with('#')).collect();
        // One summary line per histogram, always present (even if empty).
        for name in [
            "outage_interval_ps",
            "dirty_at_checkpoint",
            "writeback_latency_ps",
        ] {
            let summary = footer
                .iter()
                .find(|l| l.starts_with("# histogram\t") && l.contains(name))
                .unwrap_or_else(|| panic!("missing histogram summary for {name}"));
            assert!(summary.contains("count="), "{summary}");
            assert!(summary.contains("p99="), "{summary}");
        }
        // sample_trace has one WritebackIssued->DqAck pair (latency 100)
        // and one checkpoint with 1 dirty line; their buckets must show.
        let wb = footer
            .iter()
            .find(|l| l.starts_with("# histogram\twriteback_latency_ps"))
            .expect("write-back summary");
        assert!(wb.contains("count=1"), "{wb}");
        assert!(wb.contains("min=100"), "{wb}");
        let wb_bucket = footer
            .iter()
            .find(|l| l.starts_with("# bucket\twriteback_latency_ps"))
            .expect("non-empty histograms must render bucket lines");
        // log2 bucket holding 100: [64, 127], count 1.
        assert_eq!(*wb_bucket, "# bucket\twriteback_latency_ps\t64\t127\t1");
    }
}
