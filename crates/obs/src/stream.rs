//! Streaming trace recording: a JSON-lines event codec and a
//! bounded-buffer [`Observer`] that writes events incrementally.
//!
//! The in-memory [`crate::Recorder`] buffers every event — around a
//! million per hot-path scenario, far more on Default-scale multi-minute
//! runs. [`StreamingObserver`] instead holds at most
//! [`StreamingObserver::capacity`] events before serializing them to its
//! sink as one JSON object per line, so recording memory is constant in
//! run length. The JSONL format round-trips exactly: every field is
//! printed with Rust's shortest-round-trip formatting, and
//! [`parse_jsonl_line`] restores the identical `(timestamp, Event)`
//! pair, which is what lets [`RunTrace::from_jsonl`] rebuild the whole
//! recording (counters, histograms, intervals) from a streamed file.

use crate::event::Event;
use crate::observer::Observer;
use crate::recorder::{tally, ObsCounters, ObsHistograms, Recorder, RunTrace};
use ehsim_mem::Ps;
use std::fmt::{self, Write as _};
use std::io;
use std::str::FromStr;
use std::sync::{Arc, Mutex};

/// Default cap on buffered events before a flush to the sink.
pub const DEFAULT_STREAM_CAPACITY: usize = 4096;

/// Serializes one `(timestamp, event)` pair as a single JSON object
/// (no trailing newline), e.g.
/// `{"ts":1200,"ev":"DqEnqueue","base":64}`.
///
/// Numeric fields use Rust's shortest-round-trip formatting, so
/// [`parse_jsonl_line`] recovers bit-identical values.
pub fn event_to_jsonl(at: Ps, ev: &Event) -> String {
    let mut s = String::with_capacity(48);
    let _ = write!(s, "{{\"ts\":{at},\"ev\":\"");
    match *ev {
        Event::InitialThresholds { maxline, waterline } => {
            let _ = write!(
                s,
                "InitialThresholds\",\"maxline\":{maxline},\"waterline\":{waterline}"
            );
        }
        Event::PowerOn { interval } => {
            let _ = write!(s, "PowerOn\",\"interval\":{interval}");
        }
        Event::OutageBegin { on_ps, voltage } => {
            let _ = write!(s, "OutageBegin\",\"on_ps\":{on_ps},\"voltage\":{voltage}");
        }
        Event::CheckpointBegin { dirty_lines } => {
            let _ = write!(s, "CheckpointBegin\",\"dirty_lines\":{dirty_lines}");
        }
        Event::CheckpointEnd { flushed_lines } => {
            let _ = write!(s, "CheckpointEnd\",\"flushed_lines\":{flushed_lines}");
        }
        Event::PowerOff => s.push_str("PowerOff\""),
        Event::RestoreBegin => s.push_str("RestoreBegin\""),
        Event::RestoreEnd => s.push_str("RestoreEnd\""),
        Event::RunEnd => s.push_str("RunEnd\""),
        Event::DqEnqueue { base } => {
            let _ = write!(s, "DqEnqueue\",\"base\":{base}");
        }
        Event::DqAck { base } => {
            let _ = write!(s, "DqAck\",\"base\":{base}");
        }
        Event::DqStall { until } => {
            let _ = write!(s, "DqStall\",\"until\":{until}");
        }
        Event::DqStaleDrop { dropped } => {
            let _ = write!(s, "DqStaleDrop\",\"dropped\":{dropped}");
        }
        Event::WritebackIssued { base, ack_at } => {
            let _ = write!(s, "WritebackIssued\",\"base\":{base},\"ack_at\":{ack_at}");
        }
        Event::Reconfigure { maxline, waterline } => {
            let _ = write!(
                s,
                "Reconfigure\",\"maxline\":{maxline},\"waterline\":{waterline}"
            );
        }
        Event::DynRaise { maxline } => {
            let _ = write!(s, "DynRaise\",\"maxline\":{maxline}");
        }
        Event::VoltageCross { rail, rising } => {
            let _ = write!(
                s,
                "VoltageCross\",\"rail\":\"{}\",\"rising\":{rising}",
                rail.label()
            );
        }
        Event::VoltageSample { voltage } => {
            let _ = write!(s, "VoltageSample\",\"voltage\":{voltage}");
        }
        Event::EnergySample {
            harvested_pj,
            consumed_pj,
        } => {
            let _ = write!(
                s,
                "EnergySample\",\"harvested_pj\":{harvested_pj},\"consumed_pj\":{consumed_pj}"
            );
        }
    }
    // Variants with fields already closed their name quote above; the
    // field-less arms pushed the closing quote themselves.
    s.push('}');
    s
}

/// The most bytes of an input line that an error message quotes.
const QUOTE_MAX: usize = 80;

/// `text` in backticks for an error message, cut on a character
/// boundary at most [`QUOTE_MAX`] bytes in, with the cut marked, so a
/// malformed multi-megabyte line yields a short error.
pub(crate) fn quoted(text: &str) -> String {
    if text.len() <= QUOTE_MAX {
        return format!("`{text}`");
    }
    let cut = (0..=QUOTE_MAX)
        .rev()
        .find(|&i| text.is_char_boundary(i))
        .unwrap_or(0);
    format!("`{}`... ({} more bytes)", &text[..cut], text.len() - cut)
}

pub(crate) fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\":");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing field \"{key}\" in {}", quoted(line)))?
        + pat.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| format!("unterminated field \"{key}\" in {}", quoted(line)))?;
    Ok(&rest[..end])
}

pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    unquote(field(line, key)?)
        .ok_or_else(|| format!("field \"{key}\" is not a string in {}", quoted(line)))
}

/// The inside of a quoted string value, or `None` when `raw` is not
/// quoted or holds a character no writer emits inside one (the ones
/// `sanitize_field` replaces): such a value could not be written back.
pub(crate) fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .filter(|s| !s.contains(['"', '\\', ',', '{', '}']))
}

pub(crate) fn field_num<T: FromStr>(line: &str, key: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    field(line, key)?
        .parse()
        .map_err(|e| format!("field \"{key}\": {e} in {}", quoted(line)))
}

fn field_bool(line: &str, key: &str) -> Result<bool, String> {
    match field(line, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        other => Err(format!(
            "field \"{key}\": expected bool, got {}",
            quoted(other)
        )),
    }
}

/// Parses one line written by [`event_to_jsonl`] back into the
/// identical `(timestamp, Event)` pair.
///
/// # Errors
///
/// Returns a message naming the missing/malformed field or unknown
/// event kind.
pub fn parse_jsonl_line(line: &str) -> Result<(Ps, Event), String> {
    let ts: Ps = field_num(line, "ts")?;
    let kind = field_str(line, "ev")?;
    let ev = match kind {
        "InitialThresholds" => Event::InitialThresholds {
            maxline: field_num(line, "maxline")?,
            waterline: field_num(line, "waterline")?,
        },
        "PowerOn" => Event::PowerOn {
            interval: field_num(line, "interval")?,
        },
        "OutageBegin" => Event::OutageBegin {
            on_ps: field_num(line, "on_ps")?,
            voltage: field_num(line, "voltage")?,
        },
        "CheckpointBegin" => Event::CheckpointBegin {
            dirty_lines: field_num(line, "dirty_lines")?,
        },
        "CheckpointEnd" => Event::CheckpointEnd {
            flushed_lines: field_num(line, "flushed_lines")?,
        },
        "PowerOff" => Event::PowerOff,
        "RestoreBegin" => Event::RestoreBegin,
        "RestoreEnd" => Event::RestoreEnd,
        "RunEnd" => Event::RunEnd,
        "DqEnqueue" => Event::DqEnqueue {
            base: field_num(line, "base")?,
        },
        "DqAck" => Event::DqAck {
            base: field_num(line, "base")?,
        },
        "DqStall" => Event::DqStall {
            until: field_num(line, "until")?,
        },
        "DqStaleDrop" => Event::DqStaleDrop {
            dropped: field_num(line, "dropped")?,
        },
        "WritebackIssued" => Event::WritebackIssued {
            base: field_num(line, "base")?,
            ack_at: field_num(line, "ack_at")?,
        },
        "Reconfigure" => Event::Reconfigure {
            maxline: field_num(line, "maxline")?,
            waterline: field_num(line, "waterline")?,
        },
        "DynRaise" => Event::DynRaise {
            maxline: field_num(line, "maxline")?,
        },
        "VoltageCross" => Event::VoltageCross {
            rail: match field_str(line, "rail")? {
                "Von" => ehsim_energy::Rail::Von,
                "Vbackup" => ehsim_energy::Rail::Vbackup,
                "Vmin" => ehsim_energy::Rail::Vmin,
                other => return Err(format!("unknown rail {}", quoted(other))),
            },
            rising: field_bool(line, "rising")?,
        },
        "VoltageSample" => Event::VoltageSample {
            voltage: field_num(line, "voltage")?,
        },
        "EnergySample" => Event::EnergySample {
            harvested_pj: field_num(line, "harvested_pj")?,
            consumed_pj: field_num(line, "consumed_pj")?,
        },
        other => return Err(format!("unknown event kind {}", quoted(other))),
    };
    Ok((ts, ev))
}

/// Appended to a first-line parse error: the input is not an event
/// capture at all, most likely one of the write-only exports.
const NOT_A_CAPTURE: &str = "not a JSONL event capture; only JSONL captures load \
     (write one with `ehsim-cli run --stream-out <p.jsonl>` or \
     `EHSIM_TRACE_WORKLOAD=<kernel>`); Chrome JSON and the interval-metrics \
     TSV are export-only";

impl RunTrace {
    /// Loads a JSON-lines event capture (see [`RunTrace::from_jsonl`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the file for I/O and parse errors.
    pub fn load(path: &str) -> Result<RunTrace, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        RunTrace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Parses a JSON-lines event capture (`ehsim-cli run --stream-out`,
    /// `EHSIM_TRACE_WORKLOAD`, [`RunTrace::jsonl`]). Lossless: the
    /// events are replayed through a live [`Recorder`], so counters,
    /// histograms and interval rows reconcile exactly with the
    /// recording that wrote them.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line (1-indexed), or the line at
    /// which the stale-drop total would overflow `u64`.
    pub fn from_jsonl(text: &str) -> Result<RunTrace, String> {
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
        Ok(rec.finish(end))
    }
}

/// Summary statistics published by a [`StreamingObserver`] through its
/// shared handle — the streaming twin of a [`crate::Recorder`]'s
/// counters and histograms, plus buffer accounting for the
/// constant-memory claim.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Events delivered (including the final `RunEnd`).
    pub events: u64,
    /// Peak number of events retained in the buffer *between* deliveries
    /// (measured after the flush decision, so it reflects standing
    /// backlog and is strictly below the configured capacity — an
    /// exactly-full buffer drains within the same delivery and used to
    /// saturate this stat at `capacity`, making it carry no
    /// information).
    pub peak_buffered: usize,
    /// Number of buffer flushes that attempted sink writes. Flushes
    /// after a sink error write nothing and are not counted (they used
    /// to be, double-counting dead flushes); the discarded events show
    /// up in `dropped_events` instead.
    pub flushes: u64,
    /// Events discarded without reaching the sink because an earlier
    /// write failed (tallying continues, so counters/histograms still
    /// cover them).
    pub dropped_events: u64,
    /// Event counts, identical to what a [`crate::Recorder`] tallies.
    pub counters: ObsCounters,
    /// Metric histograms, identical to a [`crate::Recorder`]'s.
    pub histograms: ObsHistograms,
    /// Whether the stream was closed with a `RunEnd`.
    pub ended: bool,
    /// The first sink I/O error, if any (the stream stops writing but
    /// keeps tallying so the simulation is never perturbed).
    pub io_error: Option<String>,
}

/// The bounded-buffer line sink shared by [`StreamingObserver`] and the
/// sweep progress stream ([`crate::ProgressStream`]): items accumulate
/// in a fixed-capacity buffer and are rendered to JSONL only at flush
/// time, one `render` call and one `write_all` per line. Sink errors
/// latch: the first failure is recorded, later items are dropped (and
/// counted) rather than retried, and the owner keeps running — a
/// broken pipe must never perturb a simulation or a sweep.
pub(crate) struct BoundedSink<T> {
    out: Box<dyn io::Write + Send>,
    buf: Vec<T>,
    capacity: usize,
    render: fn(&T, &mut String),
    /// Flushes that attempted sink writes.
    pub(crate) flushes: u64,
    /// Peak items retained between pushes (post-flush; `< capacity`).
    pub(crate) peak_buffered: usize,
    /// Items discarded after the sink error latched.
    pub(crate) dropped: u64,
    /// First sink error, if any.
    pub(crate) io_error: Option<String>,
}

impl<T> BoundedSink<T> {
    pub(crate) fn new(
        out: Box<dyn io::Write + Send>,
        capacity: usize,
        render: fn(&T, &mut String),
    ) -> Self {
        let capacity = capacity.max(1);
        BoundedSink {
            out,
            buf: Vec::with_capacity(capacity),
            capacity,
            render,
            flushes: 0,
            peak_buffered: 0,
            dropped: 0,
            io_error: None,
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Buffers one item, flushing if the buffer reached capacity.
    pub(crate) fn push(&mut self, item: T) {
        self.buf.push(item);
        if self.buf.len() >= self.capacity {
            self.flush_buf();
        }
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
    }

    /// Drains the buffer to the sink (or drops it if a write already
    /// failed).
    pub(crate) fn flush_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if self.io_error.is_some() {
            self.dropped += self.buf.len() as u64;
            self.buf.clear();
            return;
        }
        self.flushes += 1;
        let mut line = String::with_capacity(64);
        let mut written = 0usize;
        for item in &self.buf {
            line.clear();
            (self.render)(item, &mut line);
            line.push('\n');
            if let Err(e) = self.out.write_all(line.as_bytes()) {
                self.io_error = Some(e.to_string());
                break;
            }
            written += 1;
        }
        self.dropped += (self.buf.len() - written) as u64;
        self.buf.clear();
    }

    /// Flushes the buffer and the underlying sink.
    pub(crate) fn finish(&mut self) {
        self.flush_buf();
        if self.io_error.is_none() {
            if let Err(e) = self.out.flush() {
                self.io_error = Some(e.to_string());
            }
        }
    }
}

/// Shared view of a running stream's [`StreamStats`], updated at every
/// flush and at end-of-observation. Keep a clone to read results after
/// the machine consumed the observer (the [`crate::ObserverBox::custom`]
/// pattern from `examples/`).
pub type StreamStatsHandle = Arc<Mutex<StreamStats>>;

/// A bounded-buffer [`Observer`] that writes the event timeline
/// incrementally as JSON-lines.
///
/// Attach it with [`crate::ObserverBox::custom`]; memory stays constant
/// (at most `capacity` buffered events) regardless of run length, so
/// Default-scale multi-minute runs can be recorded without holding the
/// ~million-event timeline in RAM. The emitted file loads back as the
/// full [`RunTrace`] with [`RunTrace::load`] (or converts with
/// `ehsim-cli convert-trace`), so streamed traces diff exactly like
/// in-memory ones.
///
/// Sink errors never panic and never reach the simulation: the first
/// error is recorded in [`StreamStats::io_error`], writing stops, and
/// tallying continues.
pub struct StreamingObserver {
    sink: BoundedSink<(Ps, Event)>,
    stats: StreamStats,
    last_ts: Ps,
    sample_voltage: bool,
    shared: StreamStatsHandle,
}

impl std::fmt::Debug for StreamingObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingObserver")
            .field("capacity", &self.sink.capacity())
            .field("events", &self.stats.events)
            .finish_non_exhaustive()
    }
}

fn render_event(item: &(Ps, Event), line: &mut String) {
    line.push_str(&event_to_jsonl(item.0, &item.1));
}

impl StreamingObserver {
    /// Streams to `sink` with the default buffer capacity
    /// ([`DEFAULT_STREAM_CAPACITY`] events).
    pub fn new(sink: impl io::Write + Send + 'static) -> Self {
        Self::with_capacity(sink, DEFAULT_STREAM_CAPACITY)
    }

    /// Streams to `sink`, flushing whenever `capacity` events are
    /// buffered (clamped to at least 1).
    pub fn with_capacity(sink: impl io::Write + Send + 'static, capacity: usize) -> Self {
        StreamingObserver {
            sink: BoundedSink::new(Box::new(sink), capacity, render_event),
            stats: StreamStats::default(),
            last_ts: 0,
            sample_voltage: false,
            shared: Arc::new(Mutex::new(StreamStats::default())),
        }
    }

    /// Creates the stream writing to a freshly created file at `path`
    /// (buffered).
    ///
    /// # Errors
    ///
    /// Returns the file-creation error.
    pub fn to_path(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(io::BufWriter::new(file)))
    }

    /// Additionally asks the machine for per-settlement voltage samples.
    #[must_use]
    pub fn with_voltage_sampling(mut self) -> Self {
        self.sample_voltage = true;
        self
    }

    /// Configured buffer capacity (the bound on in-memory events).
    pub fn capacity(&self) -> usize {
        self.sink.capacity()
    }

    /// Shared handle to the stream's statistics; refreshed at every
    /// flush and when observation ends.
    pub fn stats_handle(&self) -> StreamStatsHandle {
        Arc::clone(&self.shared)
    }

    /// Copies the sink's buffer accounting into the stats snapshot and
    /// publishes it through the shared handle.
    fn publish(&mut self) {
        self.stats.flushes = self.sink.flushes;
        self.stats.peak_buffered = self.sink.peak_buffered;
        self.stats.dropped_events = self.sink.dropped;
        self.stats.io_error = self.sink.io_error.clone();
        if let Ok(mut s) = self.shared.lock() {
            *s = self.stats.clone();
        }
    }

    fn close(&mut self, at: Ps) {
        if self.stats.ended {
            return;
        }
        self.event(at, Event::RunEnd);
        self.stats.ended = true;
        self.sink.finish();
        self.publish();
    }
}

impl Observer for StreamingObserver {
    fn event(&mut self, at: Ps, ev: Event) {
        tally(
            &mut self.stats.counters,
            &mut self.stats.histograms,
            at,
            &ev,
        );
        self.stats.events += 1;
        self.last_ts = self.last_ts.max(at);
        let before = self.sink.flushes;
        self.sink.push((at, ev));
        if self.sink.flushes != before || self.sink.io_error.is_some() {
            self.publish();
        }
    }

    fn wants_voltage(&self) -> bool {
        self.sample_voltage
    }

    fn end(&mut self, at: Ps) {
        self.close(at);
    }
}

/// Safety net for abandoned streams (error paths that never reach
/// [`Observer::end`]): closes the stream at the last seen timestamp so
/// the file on disk is still a complete, parseable timeline.
impl Drop for StreamingObserver {
    fn drop(&mut self) {
        let at = self.last_ts;
        self.close(at);
    }
}

/// Every single-byte mutation (`^ 0x01`, `^ 0x80`, `^ 0xff`) and every
/// truncation of `line`, decoded lossily as a line reader handed
/// arbitrary bytes would pass them on. Shared by the JSONL codecs'
/// mutation tests.
#[cfg(test)]
pub(crate) fn damaged_lines(line: &str) -> Vec<String> {
    let bytes = line.as_bytes();
    let mut out = Vec::with_capacity(4 * bytes.len());
    for i in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut bad = bytes.to_vec();
            bad[i] ^= mask;
            out.push(String::from_utf8_lossy(&bad).into_owned());
        }
    }
    out.extend((0..bytes.len()).map(|cut| String::from_utf8_lossy(&bytes[..cut]).into_owned()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehsim_energy::Rail;

    fn all_variants() -> Vec<(Ps, Event)> {
        vec![
            (
                0,
                Event::InitialThresholds {
                    maxline: 6,
                    waterline: 2,
                },
            ),
            (0, Event::PowerOn { interval: 0 }),
            (5, Event::DqEnqueue { base: 64 }),
            (
                7,
                Event::WritebackIssued {
                    base: 64,
                    ack_at: 107,
                },
            ),
            (107, Event::DqAck { base: 64 }),
            (120, Event::DqStall { until: 140 }),
            (150, Event::DqStaleDrop { dropped: 2 }),
            (
                200,
                Event::OutageBegin {
                    on_ps: 200,
                    voltage: 2.9531,
                },
            ),
            (200, Event::CheckpointBegin { dirty_lines: 3 }),
            (
                230,
                Event::EnergySample {
                    harvested_pj: 123.456789,
                    consumed_pj: 98.7654321,
                },
            ),
            (230, Event::CheckpointEnd { flushed_lines: 3 }),
            (230, Event::PowerOff),
            (
                400,
                Event::VoltageCross {
                    rail: Rail::Von,
                    rising: true,
                },
            ),
            (400, Event::RestoreBegin),
            (410, Event::RestoreEnd),
            (410, Event::PowerOn { interval: 1 }),
            (
                420,
                Event::Reconfigure {
                    maxline: 5,
                    waterline: 2,
                },
            ),
            (430, Event::DynRaise { maxline: 6 }),
            (440, Event::VoltageSample { voltage: 3.0125 }),
            (500, Event::RunEnd),
        ]
    }

    #[test]
    fn jsonl_round_trips_every_variant_exactly() {
        for (at, ev) in all_variants() {
            let line = event_to_jsonl(at, &ev);
            let (ts2, ev2) = parse_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!((at, ev), (ts2, ev2), "{line}");
        }
    }

    /// Event lines carry no checksum, so a damaged digit can parse to
    /// another value. What must hold is no panic, and that whatever is
    /// accepted is a value the writer reproduces exactly.
    #[test]
    fn every_byte_mutation_and_truncation_rejects_or_round_trips() {
        let (mut rejected, mut accepted) = (0, 0);
        for (at, ev) in all_variants() {
            for bad in damaged_lines(&event_to_jsonl(at, &ev)) {
                match parse_jsonl_line(&bad) {
                    Err(_) => rejected += 1,
                    Ok(got) => {
                        accepted += 1;
                        let again = event_to_jsonl(got.0, &got.1);
                        assert_eq!(parse_jsonl_line(&again), Ok(got), "{bad:?} -> {again}");
                    }
                }
            }
        }
        assert!(rejected > 0 && accepted > 0, "{rejected}/{accepted}");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl_line("{}").is_err());
        assert!(parse_jsonl_line("{\"ts\":1}").is_err());
        assert!(parse_jsonl_line("{\"ts\":1,\"ev\":\"Nope\"}").is_err());
        assert!(parse_jsonl_line("{\"ts\":1,\"ev\":\"DqEnqueue\"}").is_err());
        assert!(parse_jsonl_line("{\"ts\":x,\"ev\":\"PowerOff\"}").is_err());
        assert!(parse_jsonl_line(
            "{\"ts\":1,\"ev\":\"VoltageCross\",\"rail\":\"Vx\",\"rising\":true}"
        )
        .is_err());
    }

    #[test]
    fn errors_quote_at_most_a_bounded_prefix_of_a_huge_line() {
        let mb = 1 << 20;
        let lines = [
            "x".repeat(mb),
            format!("{{\"ts\":{}}}", "9".repeat(mb)),
            format!("{{\"ts\":1,\"ev\":\"{}\"}}", "é".repeat(mb)),
            format!("{{\"ts\":1,\"ev\":\"DqAck\",\"base\":{}", "7".repeat(mb)),
            format!(
                "{{\"ts\":1,\"ev\":\"VoltageCross\",\"rail\":\"{}\",\"rising\":true}}",
                "V".repeat(mb)
            ),
        ];
        for line in &lines {
            let err = parse_jsonl_line(line).unwrap_err();
            assert!(err.len() < 200, "{}-byte error", err.len());
            assert!(err.contains("more bytes)"), "cut not marked: {err}");
        }
    }

    #[test]
    fn streaming_observer_bounds_its_buffer_and_matches_recorder() {
        use crate::recorder::Recorder;

        let events = all_variants();
        let sink: Vec<u8> = Vec::new();
        let shared_sink = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl io::Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if let Ok(mut v) = self.0.lock() {
                    v.extend_from_slice(buf);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        drop(sink);

        let mut stream =
            StreamingObserver::with_capacity(SharedWriter(Arc::clone(&shared_sink)), 4)
                .with_voltage_sampling();
        assert!(stream.wants_voltage());
        let handle = stream.stats_handle();
        let mut recorder = Recorder::default();
        // Deliver everything except the trailing RunEnd, which arrives
        // through end-of-observation on both sinks.
        for &(at, ev) in events.iter().take(events.len() - 1) {
            stream.event(at, ev);
            recorder.event(at, ev);
        }
        stream.end(500);
        let trace = recorder.finish(500);
        drop(stream);

        let stats = handle.lock().map(|s| s.clone()).unwrap_or_default();
        assert!(stats.ended);
        assert!(stats.io_error.is_none(), "{:?}", stats.io_error);
        assert_eq!(stats.events as usize, events.len());
        assert!(
            stats.peak_buffered <= 4,
            "buffer exceeded its bound: {}",
            stats.peak_buffered
        );
        assert!(stats.flushes >= 2, "a 4-cap buffer must flush repeatedly");
        // Summary statistics agree with the in-memory recorder exactly.
        assert_eq!(stats.counters, trace.counters);
        assert_eq!(stats.histograms, trace.histograms);

        // The JSONL on the sink reconciles event-for-event.
        let bytes = shared_sink.lock().map(|v| v.clone()).unwrap_or_default();
        let text = String::from_utf8(bytes).expect("jsonl is utf-8");
        let parsed: Vec<(Ps, Event)> = text
            .lines()
            .map(|l| parse_jsonl_line(l).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        assert_eq!(parsed, trace.events);
    }

    #[test]
    fn peak_buffered_reflects_retained_backlog_not_capacity() {
        let sink = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl io::Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if let Ok(mut v) = self.0.lock() {
                    v.extend_from_slice(buf);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut stream = StreamingObserver::with_capacity(SharedWriter(Arc::clone(&sink)), 4);
        let handle = stream.stats_handle();
        // 8 deliveries: the buffer fills to 4 twice and drains within
        // the same delivery both times, so the retained backlog never
        // exceeds 3 — an exactly-full buffer must not saturate the stat
        // at capacity (it used to, making the peak carry no signal).
        for i in 0..8u64 {
            stream.event(i, Event::DqEnqueue { base: i as u32 });
        }
        stream.end(8);
        drop(stream);
        let stats = handle.lock().map(|s| s.clone()).unwrap_or_default();
        assert_eq!(stats.events, 9);
        assert_eq!(stats.peak_buffered, 3, "retained backlog, not capacity");
        assert_eq!(stats.dropped_events, 0);
    }

    #[test]
    fn sink_errors_latch_count_drops_and_stop_counting_flushes() {
        struct FailingWriter {
            allow_lines: usize,
        }
        impl io::Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.allow_lines == 0 {
                    return Err(io::Error::other("sink gone"));
                }
                self.allow_lines -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut stream = StreamingObserver::with_capacity(FailingWriter { allow_lines: 1 }, 2);
        let handle = stream.stats_handle();
        for i in 0..6u64 {
            stream.event(i, Event::DqEnqueue { base: i as u32 });
        }
        stream.end(6);
        drop(stream);
        let stats = handle.lock().map(|s| s.clone()).unwrap_or_default();
        assert_eq!(stats.events, 7);
        assert!(stats
            .io_error
            .as_deref()
            .is_some_and(|e| e.contains("sink gone")));
        assert_eq!(
            stats.flushes, 1,
            "flushes after the error latched write nothing and must not count"
        );
        assert_eq!(
            stats.dropped_events, 6,
            "one event reached the sink; the rest were discarded and counted"
        );
        // Tallying is never interrupted by sink failures.
        assert_eq!(stats.counters.dq_enqueues, 6);
        assert!(stats.ended);
    }

    #[test]
    fn drop_closes_an_unfinished_stream_at_the_last_timestamp() {
        let shared_sink = Arc::new(Mutex::new(Vec::new()));
        struct SharedWriter(Arc<Mutex<Vec<u8>>>);
        impl io::Write for SharedWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if let Ok(mut v) = self.0.lock() {
                    v.extend_from_slice(buf);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut stream = StreamingObserver::new(SharedWriter(Arc::clone(&shared_sink)));
        stream.event(42, Event::PowerOn { interval: 0 });
        drop(stream);
        let bytes = shared_sink.lock().map(|v| v.clone()).unwrap_or_default();
        let text = String::from_utf8(bytes).expect("utf-8");
        let last = text.lines().last().expect("stream closed on drop");
        assert_eq!(parse_jsonl_line(last), Ok((42, Event::RunEnd)));
    }

    /// The capture behind the loader tests: one outage with a
    /// checkpoint, a restore and two energy samples.
    fn sample_trace() -> RunTrace {
        let mut rec = Recorder::default();
        for (at, ev) in [
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
        ] {
            rec.event(at, ev);
        }
        rec.finish(1000)
    }

    #[test]
    fn jsonl_round_trip_reconciles_exactly() {
        let trace = sample_trace();
        let run = RunTrace::from_jsonl(&trace.jsonl()).unwrap();
        assert_eq!(run.events, trace.events);
        assert_eq!(run.counters, trace.counters);
        assert_eq!(run.histograms, trace.histograms);
        assert_eq!(run.intervals(), trace.intervals());
    }

    #[test]
    fn exports_are_rejected_with_where_captures_come_from() {
        let trace = sample_trace();
        for export in [trace.chrome_trace("x"), trace.interval_metrics_tsv()] {
            let err = RunTrace::from_jsonl(&export).unwrap_err();
            assert!(err.starts_with("line 1: "), "{err}");
            assert!(err.contains("only JSONL captures load"), "{err}");
        }
        // Damage past the first event is an ordinary line error.
        let mut text = trace.jsonl();
        text.push_str("garbage\n");
        let err = RunTrace::from_jsonl(&text).unwrap_err();
        assert!(!err.contains("only JSONL"), "{err}");
        assert!(RunTrace::from_jsonl("\n\n").is_err());
    }

    /// Two stale drops of `u64::MAX` entries: the recorder's unchecked
    /// tally would overflow, so the loader refuses the capture.
    #[test]
    fn stale_drop_total_overflow_is_an_error() {
        let line = "{\"ts\":1,\"ev\":\"DqStaleDrop\",\"dropped\":18446744073709551615}\n";
        assert!(RunTrace::from_jsonl(line).is_ok());
        let err = RunTrace::from_jsonl(&line.repeat(2)).unwrap_err();
        assert_eq!(err, "line 2: stale-drop total overflows u64");
    }
}
