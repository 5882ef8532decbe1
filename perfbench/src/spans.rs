//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! simulator's public functions, so the program under test is unchanged.
//! They stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.replay`.
    pub name: String,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The batch or job the span belongs to (0 = the run itself).
    pub job: u64,
}

/// Collects spans; a disabled recorder records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Spans {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Pauses (`false`) or resumes recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; returns its index
    /// for [`Spans::close`].
    pub fn open(&mut self, name: &str, job: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job,
        });
        self.stack.push(ix);
        Some(ix)
    }

    /// Closes the span `open` returned (and any left open inside it).
    pub fn close(&mut self, ix: Option<usize>) {
        let Some(ix) = ix else { return };
        let end = self.now_ns();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = end;
            if top == ix {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &str, job: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, job);
        let r = f();
        self.close(s);
        r
    }

    /// Adds a finished span measured elsewhere (a child process), nested
    /// in the innermost open span.
    pub fn add(&mut self, name: &str, start_ns: u64, end_ns: u64, job: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            job,
        });
    }

    /// Per-name totals: (count, total ns, self ns). A span's self time is
    /// its duration minus the part of it that its direct children cover.
    pub fn summary(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(kids);
        }
        out
    }

    /// All spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
    /// `parent`, `run`, `job`).
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":\"{run}\",\"job\":{}}}",
                s.name, s.start_ns, s.end_ns, s.job
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.open("outer", 0);
        s.add("inner", s.spans[0].start_ns, s.spans[0].start_ns, 1);
        s.close(outer);
        let sum = s.summary();
        let (n, total, own) = sum["outer"];
        assert_eq!(n, 1);
        assert_eq!(total, own);
        assert_eq!(s.spans[1].parent, Some(0));
        assert!(s.to_jsonl("r").contains("\"parent\":0"));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        let x = s.open("a", 0);
        s.close(x);
        s.add("b", 0, 1, 0);
        assert!(s.summary().is_empty());
    }
}
