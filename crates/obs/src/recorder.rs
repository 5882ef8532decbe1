//! The recording sink: timeline + counters + histograms.

use crate::event::Event;
use crate::histogram::Histogram;
use crate::observer::Observer;
use ehsim_mem::Ps;

/// Event counts accumulated by a [`Recorder`].
///
/// These reconcile exactly with the run's aggregate `Report`: e.g.
/// `outages` equals the report's outage count and `reconfigurations +
/// dyn_raises` equals the WL report's `reconfigurations` (the adaptive
/// controller counts a dynamic raise as a reconfiguration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsCounters {
    /// `PowerOn` events (initial boot + one per completed restore).
    pub power_ons: u64,
    /// `OutageBegin` events.
    pub outages: u64,
    /// `CheckpointBegin` events.
    pub checkpoints: u64,
    /// `Reconfigure` events (reboot-time threshold moves).
    pub reconfigurations: u64,
    /// `DynRaise` events (§4 mid-interval raises).
    pub dyn_raises: u64,
    /// `DqEnqueue` events.
    pub dq_enqueues: u64,
    /// `DqAck` events.
    pub dq_acks: u64,
    /// `DqStall` events.
    pub dq_stalls: u64,
    /// `WritebackIssued` events.
    pub writebacks_issued: u64,
    /// Total entries dropped across `DqStaleDrop` events.
    pub stale_drops: u64,
    /// `VoltageCross` events.
    pub voltage_crossings: u64,
    /// `VoltageSample` events (zero unless sampling was opted into).
    pub voltage_samples: u64,
    /// `EnergySample` events (one per completed checkpoint + one at run
    /// end on an instrumented machine).
    pub energy_samples: u64,
}

/// The lightweight metric histograms kept by a [`Recorder`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsHistograms {
    /// Length of each completed on-interval (ps), fed by `OutageBegin`.
    pub outage_interval_ps: Histogram,
    /// Lines flushed per JIT checkpoint, fed by `CheckpointEnd`.
    pub dirty_at_checkpoint: Histogram,
    /// Async write-back latency (ps), fed by `WritebackIssued`.
    pub writeback_latency_ps: Histogram,
}

/// Folds one event into counters and histograms.
///
/// Shared by [`Recorder`] (which additionally stores the timeline) and
/// the bounded-buffer [`crate::StreamingObserver`] (which writes the
/// timeline to disk instead): both therefore report identical summary
/// statistics for the same event stream.
pub(crate) fn tally(
    counters: &mut ObsCounters,
    histograms: &mut ObsHistograms,
    at: Ps,
    ev: &Event,
) {
    match *ev {
        Event::PowerOn { .. } => counters.power_ons += 1,
        Event::OutageBegin { on_ps, .. } => {
            counters.outages += 1;
            histograms.outage_interval_ps.record(on_ps);
        }
        Event::CheckpointBegin { .. } => counters.checkpoints += 1,
        Event::CheckpointEnd { flushed_lines } => {
            histograms.dirty_at_checkpoint.record(flushed_lines);
        }
        Event::Reconfigure { .. } => counters.reconfigurations += 1,
        Event::DynRaise { .. } => counters.dyn_raises += 1,
        Event::DqEnqueue { .. } => counters.dq_enqueues += 1,
        Event::DqAck { .. } => counters.dq_acks += 1,
        Event::DqStall { .. } => counters.dq_stalls += 1,
        Event::DqStaleDrop { dropped } => counters.stale_drops += dropped as u64,
        Event::WritebackIssued { ack_at, .. } => {
            counters.writebacks_issued += 1;
            histograms
                .writeback_latency_ps
                .record(ack_at.saturating_sub(at));
        }
        Event::VoltageCross { .. } => counters.voltage_crossings += 1,
        Event::VoltageSample { .. } => counters.voltage_samples += 1,
        Event::EnergySample { .. } => counters.energy_samples += 1,
        Event::InitialThresholds { .. }
        | Event::PowerOff
        | Event::RestoreBegin
        | Event::RestoreEnd
        | Event::RunEnd => {}
    }
}

/// Entries per arena chunk: at 32 bytes per `(Ps, Event)` pair a chunk
/// is ~1 MiB — big enough that chunk turnover is off the hot path, small
/// enough that a short run wastes little.
const ARENA_CHUNK: usize = 32 * 1024;

/// An [`Observer`] that records every event with its timestamp and
/// maintains [`ObsCounters`] and [`ObsHistograms`] incrementally.
///
/// The timeline is stored in an arena of fixed-capacity chunks rather
/// than one growable vector: a long recording run (hundreds of millions
/// of events) never pays a realloc-and-copy of the whole history on the
/// emission path — each chunk is allocated once at full capacity and
/// then only ever appended to. The chunk being filled (`head`) is a
/// direct field rather than `chunks.last_mut()`: the steady-state emit
/// path is one length-vs-capacity compare and a push, with no
/// `Option` round-trip through the chunk list (the `Vec`-of-`Vec`s
/// double lookup of the seed layout; DESIGN.md §2.11 keeps the last
/// measured per-event costs). [`Recorder::finish`] assembles the
/// contiguous timeline exactly once, when recording is over.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    /// Sealed full chunks, oldest first.
    full: Vec<Vec<(Ps, Event)>>,
    /// The chunk currently being filled (capacity [`ARENA_CHUNK`] once
    /// the first event arrives).
    head: Vec<(Ps, Event)>,
    counters: ObsCounters,
    histograms: ObsHistograms,
    sample_voltage: bool,
    ended: bool,
}

impl Observer for Recorder {
    fn event(&mut self, at: Ps, ev: Event) {
        tally(&mut self.counters, &mut self.histograms, at, &ev);
        if matches!(ev, Event::RunEnd) {
            self.ended = true;
        }
        if self.head.len() == self.head.capacity() {
            // Full head (or the never-allocated default): seal it and
            // start a fresh full-capacity chunk. The branch is taken
            // once per ARENA_CHUNK events; every other emission takes
            // the straight-line push below.
            let sealed = std::mem::replace(&mut self.head, Vec::with_capacity(ARENA_CHUNK));
            if !sealed.is_empty() {
                self.full.push(sealed);
            }
        }
        self.head.push((at, ev));
    }

    fn wants_voltage(&self) -> bool {
        self.sample_voltage
    }
}

impl Recorder {
    /// A recorder that additionally asks the machine for per-settlement
    /// capacitor-voltage samples ([`Event::VoltageSample`]). Sampling is
    /// too hot for the default recording path, so it is opt-in only.
    pub fn with_voltage_sampling() -> Self {
        Recorder {
            sample_voltage: true,
            ..Recorder::default()
        }
    }

    /// Recorded events so far, in emission order.
    pub fn events(&self) -> impl Iterator<Item = (Ps, Event)> + '_ {
        self.full.iter().flatten().chain(self.head.iter()).copied()
    }

    /// Number of events recorded so far.
    pub fn events_len(&self) -> usize {
        self.full.iter().map(Vec::len).sum::<usize>() + self.head.len()
    }

    /// Counters so far.
    pub fn counters(&self) -> &ObsCounters {
        &self.counters
    }

    /// Closes the timeline at `end` (unless the machine already
    /// delivered [`Event::RunEnd`]) and yields the finished trace,
    /// collecting the arena into one contiguous vector — the single
    /// copy the arena deferred out of the emission path.
    pub fn finish(mut self, end: Ps) -> RunTrace {
        if !self.ended {
            self.event(end, Event::RunEnd);
        }
        let mut events = Vec::with_capacity(self.events_len());
        for mut chunk in self.full {
            events.append(&mut chunk);
        }
        events.append(&mut self.head);
        RunTrace {
            events,
            counters: self.counters,
            histograms: self.histograms,
        }
    }
}

/// A completed run's timeline, ready for export.
#[derive(Debug, Clone)]
pub struct RunTrace {
    /// `(timestamp, event)` pairs in emission order, terminated by
    /// [`Event::RunEnd`].
    pub events: Vec<(Ps, Event)>,
    /// Event counts.
    pub counters: ObsCounters,
    /// Metric histograms.
    pub histograms: ObsHistograms,
}

impl RunTrace {
    /// Renders the timeline as Chrome `trace_event` JSON. `name` labels
    /// the process in the viewer (typically `workload/design`).
    pub fn chrome_trace(&self, name: &str) -> String {
        crate::export::chrome_trace(self, name)
    }

    /// Renders per-power-on-interval metrics as a TSV table.
    pub fn interval_metrics_tsv(&self) -> String {
        crate::export::interval_metrics_tsv(self)
    }

    /// The per-power-on-interval rows behind
    /// [`RunTrace::interval_metrics_tsv`], as typed values.
    pub fn intervals(&self) -> Vec<crate::TraceInterval> {
        crate::export::intervals(self)
    }

    /// Renders the timeline as JSON-lines (one event per line), the
    /// format the [`crate::StreamingObserver`] writes incrementally.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for (at, ev) in &self.events {
            out.push_str(&crate::stream::event_to_jsonl(*at, ev));
            out.push('\n');
        }
        out
    }

    /// The opt-in capacitor-voltage trajectory: `(ts, volts)` per
    /// [`Event::VoltageSample`]. Empty unless the run was recorded with
    /// [`Recorder::with_voltage_sampling`].
    pub fn voltage_series(&self) -> Vec<(Ps, f64)> {
        self.events
            .iter()
            .filter_map(|&(at, ev)| match ev {
                Event::VoltageSample { voltage } => Some((at, voltage)),
                _ => None,
            })
            .collect()
    }

    /// Number of recorded events matching `pred` (test convenience).
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> u64 {
        self.events.iter().filter(|(_, e)| pred(e)).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms_track_events() {
        let mut r = Recorder::default();
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(
            100,
            Event::OutageBegin {
                on_ps: 100,
                voltage: 2.95,
            },
        );
        r.event(100, Event::CheckpointBegin { dirty_lines: 3 });
        r.event(150, Event::CheckpointEnd { flushed_lines: 3 });
        r.event(150, Event::PowerOff);
        r.event(
            40,
            Event::WritebackIssued {
                base: 64,
                ack_at: 90,
            },
        );
        r.event(200, Event::RestoreBegin);
        r.event(210, Event::RestoreEnd);
        r.event(210, Event::PowerOn { interval: 1 });
        let t = r.finish(300);
        assert_eq!(t.counters.power_ons, 2);
        assert_eq!(t.counters.outages, 1);
        assert_eq!(t.counters.checkpoints, 1);
        assert_eq!(t.counters.writebacks_issued, 1);
        assert_eq!(t.histograms.outage_interval_ps.count(), 1);
        assert_eq!(t.histograms.outage_interval_ps.sum(), 100);
        assert_eq!(t.histograms.dirty_at_checkpoint.sum(), 3);
        assert_eq!(t.histograms.writeback_latency_ps.sum(), 50);
        assert_eq!(t.events.last(), Some(&(300, Event::RunEnd)));
        assert_eq!(t.count(|e| matches!(e, Event::PowerOn { .. })), 2);
    }

    #[test]
    fn voltage_sampling_is_opt_in() {
        let off = Recorder::default();
        assert!(!off.wants_voltage());
        let mut on = Recorder::with_voltage_sampling();
        assert!(on.wants_voltage());
        on.event(10, Event::VoltageSample { voltage: 3.1 });
        on.event(
            20,
            Event::EnergySample {
                harvested_pj: 5.0,
                consumed_pj: 4.0,
            },
        );
        let t = on.finish(30);
        assert_eq!(t.counters.voltage_samples, 1);
        assert_eq!(t.counters.energy_samples, 1);
        assert_eq!(t.voltage_series(), vec![(10, 3.1)]);
    }

    #[test]
    fn arena_preserves_order_across_chunk_boundaries() {
        let mut r = Recorder::default();
        let n = ARENA_CHUNK + 5;
        for i in 0..n {
            r.event(i as Ps, Event::DqEnqueue { base: i as u32 });
        }
        assert_eq!(r.events_len(), n);
        assert!(
            r.events()
                .enumerate()
                .all(|(i, (at, ev))| at == i as Ps && ev == Event::DqEnqueue { base: i as u32 }),
            "pre-finish iteration must walk sealed chunks then the head, in order"
        );
        let t = r.finish(n as Ps);
        assert_eq!(t.events.len(), n + 1, "finish appends RunEnd");
        assert!(t
            .events
            .iter()
            .take(n)
            .enumerate()
            .all(|(i, &(at, ev))| at == i as Ps && ev == Event::DqEnqueue { base: i as u32 }));
        assert_eq!(t.counters.dq_enqueues, n as u64);
    }

    #[test]
    fn finish_is_idempotent_when_run_end_already_arrived() {
        let mut r = Recorder::default();
        r.event(0, Event::PowerOn { interval: 0 });
        r.event(50, Event::RunEnd);
        let t = r.finish(50);
        assert_eq!(
            t.count(|e| matches!(e, Event::RunEnd)),
            1,
            "finish must not duplicate a machine-delivered RunEnd"
        );
    }
}
