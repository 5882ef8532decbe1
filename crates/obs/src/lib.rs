//! Observability layer for the energy-harvesting simulator.
//!
//! The simulator's [`Report`](https://docs.rs/) aggregates answer *how
//! much* (outages, stalls, cleanings) but not *when*. This crate adds an
//! event timeline with a strict contract:
//!
//! * **Observation only.** An [`Observer`] receives [`Event`]s; it can
//!   never mutate simulation state, so a run with any observer attached
//!   computes bit-identical results to a run without one. The pinned
//!   figure goldens enforce this.
//! * **Zero cost when disabled.** The default sink is
//!   [`ObserverBox::Noop`]; every instrumentation site is guarded by
//!   [`ObserverBox::enabled`], a single enum-discriminant test that the
//!   optimizer folds into the surrounding code. The hot path takes no
//!   virtual call and allocates nothing.
//!
//! A [`Recorder`] sink accumulates the timeline plus counters and
//! log-scale [`Histogram`]s; [`RunTrace`] exports it as a Chrome
//! `trace_event` JSON (viewable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)) or a per-interval metrics TSV.
//! [`validate_chrome_trace`] checks an emitted trace for monotonic
//! timestamps and balanced begin/end pairs — used by CI.
//!
//! The JSON-lines capture is the one format that loads back:
//! [`RunTrace::load`] replays it through a live [`Recorder`], so a
//! loaded run reconciles bit-for-bit with the recording that wrote it.
//! [`diff_runs`] aligns two runs by power-on interval and names their
//! first divergence; [`dq_occupancy`] and [`energy_series`] fold a run
//! into the DirtyQueue depth over time and the per-interval energy.

mod analysis;
mod event;
mod export;
mod histogram;
mod metrics;
mod observer;
mod progress;
mod recorder;
mod stream;

pub use analysis::{
    diff_runs, dq_occupancy, energy_series, render_diff, DiffReport, Divergence, EnergyPoint,
    FieldDiff, OccupancyPoint, ThresholdState,
};
pub use event::Event;
pub use export::{validate_chrome_trace, TraceCheck, TraceInterval};
pub use histogram::{Histogram, Quantile};
pub use metrics::{MetricValue, MetricsRegistry};
pub use observer::{NoopObserver, Observer, ObserverBox};
pub use progress::{
    parse_progress_line, ProgressLine, ProgressStats, ProgressStream, SimHeartbeat, SweepMeta,
    DEFAULT_PROGRESS_CAPACITY,
};
pub use recorder::{ObsCounters, ObsHistograms, Recorder, RunTrace};
pub use stream::{
    event_to_jsonl, parse_jsonl_line, StreamStats, StreamStatsHandle, StreamingObserver,
    DEFAULT_STREAM_CAPACITY,
};

pub use ehsim_energy::Rail;
