//! The sweep progress stream: one JSONL heartbeat per completed
//! simulation, after one sweep metadata line.
//!
//! `ehsim-cli sweep --progress-out` and `EHSIM_PROGRESS` write it, and
//! `ehsim-cli profile-sweep` reads it back. Two line kinds share one
//! file:
//!
//! * `{"kind":"meta",...}` — once at stream open: host core count,
//!   worker count, engine, git revision, scale.
//! * `{"kind":"sim",...}` — one [`SimHeartbeat`] per *executed*
//!   simulation (memo hits are not re-announced).
//!
//! The heartbeats are the sweep's one timing source: the same
//! `elapsed_ns` feeds the bench-side metrics registry's
//! `sim_elapsed_us` histogram. Streams written before the phase
//! profiler was retired end in a `{"kind":"profile",...}` line, which
//! [`parse_progress_line`] rejects as an unknown kind.
//!
//! Heartbeats flow through the same bounded-buffer machinery as the
//! [`crate::StreamingObserver`] (`BoundedSink`), so the stream's
//! memory is constant in sweep length and sink errors latch without
//! ever perturbing the sweep.
//!
//! String fields are sanitized on write ([`sanitize_field`]): the
//! hand-rolled field scanner terminates values on `,`/`}`/`"`, so
//! those characters (and `\`) are replaced with `_`. Design, trace,
//! workload and engine labels never contain them today.

use crate::stream::{field_num, field_str, quoted, BoundedSink};
use std::fmt::Write as _;
use std::io;

/// Default heartbeat buffer capacity. Heartbeats are a live progress
/// feed at per-simulation rate (one every ~0.1–10 s), so the default
/// writes each line through immediately; a caller that wants batched
/// writes can raise it via [`ProgressStream::with_capacity`].
pub const DEFAULT_PROGRESS_CAPACITY: usize = 1;

/// Replaces the characters the JSONL field scanner cannot represent
/// inside string values (`"`, `\`, `,`, `{`, `}`) with `_`.
pub(crate) fn sanitize_field(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '"' | '\\' | ',' | '{' | '}' => '_',
            c => c,
        })
        .collect()
}

/// One completed simulation, as announced on the progress stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SimHeartbeat {
    /// 1-based completion ordinal within the process (assignment order
    /// is scheduling-dependent; the ordinal only says "how many done").
    pub ordinal: u64,
    /// Design label (`SimConfig::design.label()`).
    pub design: String,
    /// Power-trace label.
    pub trace: String,
    /// Workload name.
    pub workload: String,
    /// Execution engine label (always `direct`: sweeps execute every
    /// kernel on the simulated machine).
    pub engine: String,
    /// Wall-clock time this simulation took, in nanoseconds.
    pub elapsed_ns: u64,
    /// Power outages survived.
    pub outages: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Simulated instructions per wall-clock second.
    pub instr_per_s: f64,
}

impl SimHeartbeat {
    /// Serializes the heartbeat as one JSONL object (no trailing
    /// newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(160);
        let _ = write!(
            s,
            "{{\"kind\":\"sim\",\"ordinal\":{},\"design\":\"{}\",\"trace\":\"{}\",\"workload\":\"{}\",\"engine\":\"{}\",\"elapsed_ns\":{},\"outages\":{},\"instructions\":{},\"instr_per_s\":{}}}",
            self.ordinal,
            sanitize_field(&self.design),
            sanitize_field(&self.trace),
            sanitize_field(&self.workload),
            sanitize_field(&self.engine),
            self.elapsed_ns,
            self.outages,
            self.instructions,
            self.instr_per_s
        );
        s
    }

    /// Parses a line written by [`SimHeartbeat::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn parse(line: &str) -> Result<SimHeartbeat, String> {
        if field_str(line, "kind")? != "sim" {
            return Err(format!("not a sim heartbeat: {}", quoted(line)));
        }
        Ok(SimHeartbeat {
            ordinal: field_num(line, "ordinal")?,
            design: field_str(line, "design")?.to_string(),
            trace: field_str(line, "trace")?.to_string(),
            workload: field_str(line, "workload")?.to_string(),
            engine: field_str(line, "engine")?.to_string(),
            elapsed_ns: field_num(line, "elapsed_ns")?,
            outages: field_num(line, "outages")?,
            instructions: field_num(line, "instructions")?,
            instr_per_s: field_num(line, "instr_per_s")?,
        })
    }
}

/// Sweep-level metadata announced once at stream open (and stamped
/// into `BENCH_*.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMeta {
    /// Host CPU count (`available_parallelism`).
    pub host_cores: usize,
    /// Worker count the executor will use (`EHSIM_JOBS` or core count).
    pub jobs: usize,
    /// Execution engine label.
    pub engine: String,
    /// Git revision of the working tree, or `"unknown"`.
    pub git_rev: String,
    /// Workload scale label (`small`/`default`).
    pub scale: String,
}

impl SweepMeta {
    /// Serializes the metadata as one JSONL object (no trailing
    /// newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"kind\":\"meta\",\"host_cores\":{},\"jobs\":{},\"engine\":\"{}\",\"git_rev\":\"{}\",\"scale\":\"{}\"}}",
            self.host_cores,
            self.jobs,
            sanitize_field(&self.engine),
            sanitize_field(&self.git_rev),
            sanitize_field(&self.scale)
        );
        s
    }

    /// Parses a line written by [`SweepMeta::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or malformed field.
    pub fn parse(line: &str) -> Result<SweepMeta, String> {
        if field_str(line, "kind")? != "meta" {
            return Err(format!("not a meta line: {}", quoted(line)));
        }
        Ok(SweepMeta {
            host_cores: field_num(line, "host_cores")?,
            jobs: field_num(line, "jobs")?,
            engine: field_str(line, "engine")?.to_string(),
            git_rev: field_str(line, "git_rev")?.to_string(),
            scale: field_str(line, "scale")?.to_string(),
        })
    }
}

/// One parsed line of a progress stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressLine {
    /// Sweep metadata (`"kind":"meta"`).
    Meta(SweepMeta),
    /// Per-simulation heartbeat (`"kind":"sim"`).
    Sim(SimHeartbeat),
}

/// Parses any progress-stream line by its `kind` discriminator.
///
/// # Errors
///
/// Returns a message naming the unknown kind or the malformed field.
pub fn parse_progress_line(line: &str) -> Result<ProgressLine, String> {
    match field_str(line, "kind")? {
        "meta" => SweepMeta::parse(line).map(ProgressLine::Meta),
        "sim" => SimHeartbeat::parse(line).map(ProgressLine::Sim),
        other => Err(format!("unknown progress line kind {}", quoted(other))),
    }
}

/// Buffer/sink accounting for a [`ProgressStream`] (the progress twin
/// of [`crate::StreamStats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgressStats {
    /// Heartbeats delivered.
    pub heartbeats: u64,
    /// Peak lines retained between deliveries (post-flush; strictly
    /// below the configured capacity).
    pub peak_buffered: usize,
    /// Flushes that attempted sink writes.
    pub flushes: u64,
    /// Lines discarded after a sink error latched.
    pub dropped_lines: u64,
    /// First sink error, if any.
    pub io_error: Option<String>,
}

/// The bounded per-sim progress stream: heartbeats (after the meta
/// line) written as JSONL through the same
/// bounded-buffer machinery as [`crate::StreamingObserver`].
pub struct ProgressStream {
    sink: BoundedSink<String>,
    heartbeats: u64,
}

impl std::fmt::Debug for ProgressStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressStream")
            .field("capacity", &self.sink.capacity())
            .field("heartbeats", &self.heartbeats)
            .finish_non_exhaustive()
    }
}

impl ProgressStream {
    /// Streams to `sink`, writing each line through immediately
    /// ([`DEFAULT_PROGRESS_CAPACITY`]).
    pub fn new(sink: impl io::Write + Send + 'static) -> Self {
        Self::with_capacity(sink, DEFAULT_PROGRESS_CAPACITY)
    }

    /// Streams to `sink`, flushing whenever `capacity` lines are
    /// buffered (clamped to at least 1).
    pub fn with_capacity(sink: impl io::Write + Send + 'static, capacity: usize) -> Self {
        ProgressStream {
            sink: BoundedSink::new(Box::new(sink), capacity, |line, out| out.push_str(line)),
            heartbeats: 0,
        }
    }

    /// Creates the stream writing to a freshly created file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the file-creation error.
    pub fn to_path(path: &std::path::Path) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(io::BufWriter::new(file)))
    }

    /// Configured buffer capacity (the bound on in-memory lines).
    pub fn capacity(&self) -> usize {
        self.sink.capacity()
    }

    /// Writes the sweep metadata line.
    pub fn meta(&mut self, meta: &SweepMeta) {
        self.sink.push(meta.to_jsonl());
    }

    /// Writes one per-sim heartbeat.
    pub fn heartbeat(&mut self, hb: &SimHeartbeat) {
        self.heartbeats += 1;
        self.sink.push(hb.to_jsonl());
    }

    /// Flushes buffered lines through to the sink.
    pub fn flush(&mut self) {
        self.sink.finish();
    }

    /// Current buffer/sink accounting.
    pub fn stats(&self) -> ProgressStats {
        ProgressStats {
            heartbeats: self.heartbeats,
            peak_buffered: self.sink.peak_buffered,
            flushes: self.sink.flushes,
            dropped_lines: self.sink.dropped,
            io_error: self.sink.io_error.clone(),
        }
    }
}

/// Flush-on-drop safety net: abandoned streams still deliver whatever
/// they buffered.
impl Drop for ProgressStream {
    fn drop(&mut self) {
        self.sink.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn hb(ordinal: u64) -> SimHeartbeat {
        SimHeartbeat {
            ordinal,
            design: "WL-Cache".into(),
            trace: "RF-1".into(),
            workload: "sha".into(),
            engine: "replay".into(),
            elapsed_ns: 123_456_789,
            outages: 17,
            instructions: 9_876_543,
            instr_per_s: 80.0125e6,
        }
    }

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

    #[test]
    fn heartbeat_round_trips_exactly() {
        let h = hb(42);
        let line = h.to_jsonl();
        assert_eq!(SimHeartbeat::parse(&line), Ok(h), "{line}");
    }

    #[test]
    fn meta_round_trips_exactly() {
        let m = SweepMeta {
            host_cores: 1,
            jobs: 4,
            engine: "replay+check".into(),
            git_rev: "0123abcd".into(),
            scale: "default".into(),
        };
        let line = m.to_jsonl();
        assert_eq!(SweepMeta::parse(&line), Ok(m), "{line}");
    }

    #[test]
    fn sanitize_defangs_scanner_terminators() {
        let mut h = hb(1);
        h.workload = "we\"ird,na{me}\\".into();
        let line = h.to_jsonl();
        let back = SimHeartbeat::parse(&line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back.workload, "we_ird_na_me__");
    }

    fn to_jsonl(line: &ProgressLine) -> String {
        match line {
            ProgressLine::Meta(m) => m.to_jsonl(),
            ProgressLine::Sim(h) => h.to_jsonl(),
        }
    }

    /// Progress lines carry no checksum, so a damaged digit can parse to
    /// another value. What must hold is no panic, and that whatever is
    /// accepted is a value the writer reproduces exactly.
    #[test]
    fn every_byte_mutation_and_truncation_rejects_or_round_trips() {
        let lines = [
            ProgressLine::Meta(SweepMeta {
                host_cores: 2,
                jobs: 2,
                engine: "direct".into(),
                git_rev: "0123abcd".into(),
                scale: "small".into(),
            }),
            ProgressLine::Sim(hb(7)),
        ];
        let (mut rejected, mut accepted) = (0, 0);
        for line in &lines {
            for bad in crate::stream::damaged_lines(&to_jsonl(line)) {
                match parse_progress_line(&bad) {
                    Err(_) => rejected += 1,
                    Ok(got) => {
                        accepted += 1;
                        let again = to_jsonl(&got);
                        assert_eq!(parse_progress_line(&again), Ok(got), "{bad:?} -> {again}");
                    }
                }
            }
        }
        assert!(rejected > 0 && accepted > 0, "{rejected}/{accepted}");
    }

    #[test]
    fn parse_dispatches_on_kind_and_rejects_unknown() {
        let m = SweepMeta {
            host_cores: 2,
            jobs: 2,
            engine: "exact".into(),
            git_rev: "unknown".into(),
            scale: "small".into(),
        };
        assert_eq!(
            parse_progress_line(&m.to_jsonl()),
            Ok(ProgressLine::Meta(m))
        );
        assert_eq!(
            parse_progress_line(&hb(7).to_jsonl()),
            Ok(ProgressLine::Sim(hb(7)))
        );
        assert!(parse_progress_line("{\"kind\":\"nope\"}").is_err());
        assert!(
            parse_progress_line("{\"kind\":\"profile\",\"wall_ns\":1}").is_err(),
            "the retired profile line is an unknown kind"
        );
        assert!(parse_progress_line("{}").is_err());
    }

    #[test]
    fn stream_delivers_one_line_per_heartbeat_with_bounded_buffer() {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let mut stream = ProgressStream::with_capacity(SharedWriter(Arc::clone(&sink)), 3);
        for i in 1..=10 {
            stream.heartbeat(&hb(i));
        }
        let stats = stream.stats();
        assert_eq!(stats.heartbeats, 10);
        assert!(
            stats.peak_buffered < 3,
            "retained backlog must stay below capacity: {}",
            stats.peak_buffered
        );
        assert!(stats.io_error.is_none());
        drop(stream);

        let bytes = sink.lock().map(|v| v.clone()).unwrap_or_default();
        let text = String::from_utf8(bytes).expect("utf-8");
        let parsed: Vec<ProgressLine> = text
            .lines()
            .map(|l| parse_progress_line(l).unwrap_or_else(|e| panic!("{e}")))
            .collect();
        assert_eq!(parsed.len(), 10);
        let ordinals: Vec<u64> = parsed
            .iter()
            .map(|l| match l {
                ProgressLine::Sim(h) => h.ordinal,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ordinals, (1..=10).collect::<Vec<u64>>());
    }

    #[test]
    fn sink_errors_latch_and_count_dropped_lines() {
        struct FailingWriter {
            allow: usize,
        }
        impl io::Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.allow == 0 {
                    return Err(io::Error::other("disk full"));
                }
                self.allow -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut stream = ProgressStream::with_capacity(FailingWriter { allow: 2 }, 1);
        for i in 1..=5 {
            stream.heartbeat(&hb(i));
        }
        stream.flush();
        let stats = stream.stats();
        assert_eq!(stats.heartbeats, 5);
        assert_eq!(stats.flushes, 3, "only write-attempting flushes count");
        assert_eq!(stats.dropped_lines, 3);
        assert!(stats
            .io_error
            .as_deref()
            .is_some_and(|e| e.contains("disk full")));
    }
}
