//! Reading and writing power traces as text.
//!
//! Real deployments record harvesting power with a data logger; this
//! module lets such recordings drive the simulator. The format is a
//! plain text table, one segment per line: `<duration_us> <power_uw>`,
//! whitespace-separated, with `#` comments and blank lines ignored —
//! the same shape as the CSV exports of common source-meter tools.

use crate::PowerTrace;
use ehsim_mem::Ps;
use std::error::Error;
use std::fmt;
use std::path::Path;

/// A parse failure, with its 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl Error for TraceParseError {}

/// Parses a trace from its text form.
///
/// # Errors
///
/// Returns [`TraceParseError`] for malformed lines, non-positive
/// durations, durations that round to 0 ps or do not fit in a `u64`
/// of picoseconds, negative/non-finite power, a trace whose total
/// length overflows a `u64` of picoseconds, or an empty trace.
///
/// # Examples
///
/// ```
/// let trace = ehsim_energy::parse_trace(
///     "# bursty source\n\
///      500 12000\n\
///      1500 80\n",
/// )?;
/// assert_eq!(trace.total_ps(), 2_000_000_000);
/// # Ok::<(), ehsim_energy::TraceParseError>(())
/// ```
pub fn parse_trace(text: &str) -> Result<PowerTrace, TraceParseError> {
    let mut segments: Vec<(Ps, f64)> = Vec::new();
    let mut total_ps: Ps = 0;
    for (ix, raw) in text.lines().enumerate() {
        let line = ix + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split([' ', '\t', ',']).filter(|p| !p.is_empty());
        let err = |message: String| TraceParseError { line, message };
        let dur_us: f64 = parts
            .next()
            .ok_or_else(|| err("missing duration".into()))?
            .parse()
            .map_err(|e| err(format!("bad duration: {e}")))?;
        let power_uw: f64 = parts
            .next()
            .ok_or_else(|| err("missing power".into()))?
            .parse()
            .map_err(|e| err(format!("bad power: {e}")))?;
        if parts.next().is_some() {
            return Err(err("trailing fields".into()));
        }
        if dur_us <= 0.0 || !dur_us.is_finite() {
            return Err(err(format!("duration must be positive, got {dur_us}")));
        }
        if power_uw < 0.0 || !power_uw.is_finite() {
            return Err(err(format!("power must be >= 0, got {power_uw}")));
        }
        let dur_ps = (dur_us * 1e6).round();
        if dur_ps < 1.0 {
            return Err(err(format!("duration {dur_us} us rounds to 0 ps")));
        }
        // 2^64: the first value a `u64` cannot hold (`as` would saturate).
        if dur_ps >= 18_446_744_073_709_551_616.0 {
            return Err(err(format!(
                "duration {dur_us} us overflows u64 picoseconds"
            )));
        }
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "rounded and range-checked to [1, 2^64) above, so the cast is exact"
        )]
        let dur_ps = dur_ps as Ps;
        total_ps = total_ps
            .checked_add(dur_ps)
            .ok_or_else(|| err("total trace length overflows u64 picoseconds".into()))?;
        segments.push((dur_ps, power_uw));
    }
    if segments.is_empty() {
        return Err(TraceParseError {
            line: 0,
            message: "trace has no segments".into(),
        });
    }
    Ok(PowerTrace::from_segments(segments))
}

/// Renders a trace back to the text form accepted by [`parse_trace`].
pub fn format_trace(trace: &PowerTrace) -> String {
    let mut out = String::from("# duration_us power_uw\n");
    for (dur_ps, uw) in trace.segments_iter() {
        out.push_str(&format!("{} {:.3}\n", dur_ps as f64 / 1e6, uw));
    }
    out
}

/// Loads a trace from a file.
///
/// # Errors
///
/// Returns I/O errors and parse errors as boxed errors.
pub fn load_trace(path: impl AsRef<Path>) -> Result<PowerTrace, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_trace(&text)?)
}

/// Saves a trace to a file in the text format.
///
/// # Errors
///
/// Returns I/O errors.
pub fn save_trace(trace: &PowerTrace, path: impl AsRef<Path>) -> std::io::Result<()> {
    std::fs::write(path, format_trace(trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceKind;
    use proptest::prelude::*;

    /// Checks the invariants every parsed trace must hold, and that the
    /// same text parses to an identical trace a second time.
    fn assert_well_formed(text: &str, trace: &PowerTrace) {
        let mut sum: u128 = 0;
        for (d, p) in trace.segments_iter() {
            assert!(d > 0, "zero-length segment from {text:?}");
            assert!(p >= 0.0 && p.is_finite(), "power {p} from {text:?}");
            sum += u128::from(d);
        }
        assert_eq!(u128::from(trace.total_ps()), sum, "total of {text:?}");
        assert!(parse_trace(text).is_ok_and(|again| again == *trace));
    }

    /// A small trace with comments on every kind of line.
    const SAMPLE: &str = "# logger export\n\
        120.5 8000 # burst\n\
        \n\
        900,35.25\n\
        # fade\n\
        1e-3\t0\n";

    #[test]
    fn sub_picosecond_duration_is_an_error_not_a_panic() {
        let e = parse_trace("1e-7 100").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("rounds to 0 ps"), "{e}");
        let e = parse_trace("100 5\n0.0000004 1\n").unwrap_err();
        assert_eq!(e.line, 2);
        // Half a picosecond rounds up to one.
        assert_eq!(parse_trace("5e-7 1").unwrap().total_ps(), 1);
    }

    #[test]
    fn overflowing_durations_are_errors_not_wraps() {
        let e = parse_trace("1e13 5\n1e13 5").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("total trace length overflows"), "{e}");
        let e = parse_trace("1e20 5").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("overflows u64"), "{e}");
        // The longest representable single segment still parses.
        let t = parse_trace("1.8e13 5").unwrap();
        assert_eq!(t.total_ps(), 18_000_000_000_000_000_000);
    }

    #[test]
    fn every_byte_mutation_is_an_error_or_a_well_formed_trace() {
        let original = parse_trace(SAMPLE).unwrap();
        let bytes = SAMPLE.as_bytes();
        for i in 0..bytes.len() {
            let line_start = bytes[..i]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1);
            let in_comment = bytes[line_start..i].contains(&b'#') && bytes[i] != b'\n';
            for b in [
                0x00, b'0', b'9', b'#', b'\n', b' ', b'-', b'e', b'.', 0x80, 0xff,
            ] {
                let mut m = bytes.to_vec();
                m[i] = b;
                let text = String::from_utf8_lossy(&m);
                if let Ok(t) = parse_trace(&text) {
                    assert_well_formed(&text, &t);
                    // A byte inside a comment carries no data unless it
                    // ends the comment's line early.
                    if in_comment && b != b'\n' {
                        assert_eq!(t, original, "comment byte {i} -> {b:#x}");
                    }
                }
            }
        }
        for cut in 0..bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..cut]);
            if let Ok(t) = parse_trace(&text) {
                assert_well_formed(&text, &t);
            }
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_parse_to_an_error_or_a_well_formed_trace(
            bytes in prop::collection::vec(any::<u8>(), 0..96),
        ) {
            let text = String::from_utf8_lossy(&bytes);
            if let Ok(t) = parse_trace(&text) {
                assert_well_formed(&text, &t);
            }
        }

        #[test]
        fn arbitrary_numeric_lines_parse_to_an_error_or_a_well_formed_trace(
            lines in prop::collection::vec((0usize..8, 0usize..8, any::<u64>()), 1..6),
        ) {
            // Bytes alone rarely spell a number; these lines are built
            // from numeric tokens at every scale the checks guard.
            const TOKENS: [&str; 8] = ["0", "1e-7", "5e-7", "1", "-3", "1e13", "1.8e13", "1e308"];
            let mut text = String::new();
            for (d, p, bits) in lines {
                let power = if bits % 2 == 0 {
                    TOKENS[p].to_string()
                } else {
                    f64::from_bits(bits).to_string()
                };
                text.push_str(&format!("{} {power}\n", TOKENS[d]));
            }
            if let Ok(t) = parse_trace(&text) {
                assert_well_formed(&text, &t);
            }
        }
    }

    #[test]
    fn parse_accepts_comments_blanks_and_separators() {
        let t = parse_trace(
            "# a comment\n\
             \n\
             100 5000   # inline comment\n\
             200,125.5\n\
             50\t0\n",
        )
        .unwrap();
        assert_eq!(t.total_ps(), 350_000_000);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_trace("100 5\nbogus 7\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
        let e = parse_trace("100 5 9\n").unwrap_err();
        assert!(e.message.contains("trailing"));
        let e = parse_trace("-5 100\n").unwrap_err();
        assert!(e.message.contains("positive"));
        let e = parse_trace("# only comments\n").unwrap_err();
        assert!(e.message.contains("no segments"));
    }

    #[test]
    fn round_trips_builtin_traces() {
        let original = TraceKind::Rf1.build();
        let text = format_trace(&original);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.total_ps(), original.total_ps());
        assert!((parsed.mean_power_uw() - original.mean_power_uw()).abs() < 0.01);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ehsim-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("solar.trace");
        let t = TraceKind::Solar.build();
        save_trace(&t, &path).unwrap();
        let back = load_trace(&path).unwrap();
        assert_eq!(back.total_ps(), t.total_ps());
        let _ = std::fs::remove_file(&path);
    }
}
