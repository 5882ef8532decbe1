//! Trace analysis for the WL-Cache energy-harvesting simulator: turns
//! recorded timelines into answers.
//!
//! The observability layer records *what happened*; this crate answers
//! *so what*. It has six parts:
//!
//! * **Trace model** — [`Run`]: the event timeline plus the counters,
//!   histograms and per-power-on-interval rows a live `Recorder`
//!   derives from it. It loads from one format, the lossless
//!   JSON-lines capture ([`Run::from_jsonl`]; `ehsim-cli run
//!   --stream-out`, `EHSIM_TRACE_WORKLOAD`), replayed through the live
//!   `Recorder` so it reconciles bit-for-bit with the recording that
//!   wrote it; or it wraps an in-memory recording ([`Run::from_trace`]). Chrome `trace_event` JSON
//!   (`--trace-out`) and the interval-metrics TSV (`--metrics-out`) are
//!   write-only exports of `RunTrace`.
//! * **Cross-run diffing** — [`diff_runs`] aligns two runs by power-on
//!   interval and reports the first divergence (outage timing,
//!   dirty-at-checkpoint counts, threshold/DynRaise state) plus a
//!   summary table; `ehsim-cli diff-traces` is the command-line front
//!   end. A/B-ing a cache-policy change is one command.
//! * **Voltage trajectory export** — [`voltage_tsv`] / [`voltage_svg`]
//!   render the opt-in capacitor-voltage samples as data or as a
//!   self-contained Fig-1-style chart (`ehsim-cli voltage-plot`).
//! * **Capture conversion** — [`Run::to_trace`] turns a loaded
//!   capture back into a `RunTrace`, so a constant-memory stream
//!   re-exports as Chrome JSON (`ehsim-cli convert-trace`).
//! * **Event-series export** — [`dq_occupancy`] / [`energy_series`]
//!   derive the DirtyQueue depth over time and the per-interval
//!   harvested/consumed energy from a run, with TSV and SVG renderers
//!   (`ehsim-cli dq-plot` / `energy-plot`); both reconcile bit-exactly
//!   with the recorder's tallies.
//! * **Sweep-profile reading** — [`load_progress_log`] parses the
//!   telemetry progress stream (`EHSIM_PROGRESS`, `sweep
//!   --progress-out`) and renders the per-phase attribution and
//!   per-design tables plus an SVG (`ehsim-cli profile-sweep`).

mod diff;
mod model;
mod plot;
mod profile;
mod series;

pub use diff::{diff_runs, render_diff, DiffReport, Divergence, FieldDiff, ThresholdState};
pub use model::Run;
pub use plot::{voltage_svg, voltage_tsv};
pub use profile::{
    design_table_tsv, load_progress_log, parse_progress_log, profile_phase_tsv, profile_svg,
    ProgressLog,
};
pub use series::{
    dq_occupancy, dq_occupancy_svg, dq_occupancy_tsv, energy_series, energy_svg, energy_tsv,
    EnergyPoint, OccupancyPoint,
};
