//! Custom-observer cookbook: a runtime invariant monitor.
//!
//! The protocol check in `crates/core/tests/protocol_exhaustive.rs`
//! proves the §5 protocol invariants over every short event sequence
//! on a small cache; this example is the dynamic twin — a custom
//! [`Observer`] that shadows the DirtyQueue from the event stream of a
//! full simulation and asserts, live at every event, that occupancy
//! never exceeds `maxline`.
//!
//! ```sh
//! cargo run --release --example invariant_observer
//! ```

use std::sync::{Arc, Mutex};
use wl_cache_repro::ehsim::Event;
use wl_cache_repro::ehsim_obs::Observer;
use wl_cache_repro::prelude::*;

/// What the monitor learned, shared with `main` across the run (the
/// observer itself is consumed by the machine).
#[derive(Debug, Default, Clone, Copy)]
struct DqStats {
    maxline: usize,
    peak: i64,
    events: u64,
    checks: u64,
}

/// Shadows the DirtyQueue occupancy and the current `maxline` from
/// observable events alone (the same bookkeeping the Chrome-trace
/// exporter uses for its `dq_occupancy` counter track).
#[derive(Debug, Default)]
struct DqInvariantMonitor {
    occupancy: i64,
    stats: Arc<Mutex<DqStats>>,
}

impl Observer for DqInvariantMonitor {
    fn event(&mut self, at: u64, ev: Event) {
        let Ok(mut stats) = self.stats.lock() else {
            return;
        };
        stats.events += 1;
        match ev {
            Event::InitialThresholds { maxline, .. }
            | Event::Reconfigure { maxline, .. }
            | Event::DynRaise { maxline } => stats.maxline = maxline,
            Event::DqEnqueue { .. } => self.occupancy += 1,
            Event::DqAck { .. } => self.occupancy = (self.occupancy - 1).max(0),
            Event::DqStaleDrop { dropped } => {
                self.occupancy = (self.occupancy - dropped as i64).max(0)
            }
            // The JIT checkpoint flushes the queue wholesale.
            Event::CheckpointEnd { .. } => self.occupancy = 0,
            _ => return,
        }
        stats.peak = stats.peak.max(self.occupancy);
        stats.checks += 1;
        // The live invariant — the runtime twin of the protocol check's
        // I2 (`DirtyQueue occupancy ≤ maxline`).
        assert!(
            self.occupancy <= stats.maxline as i64,
            "t={at}: DirtyQueue occupancy {} exceeds maxline {}",
            self.occupancy,
            stats.maxline
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // FFT under the paper's rf3 trace: frequent outages, heavy
    // DirtyQueue churn — the harshest schedule for the invariant.
    let workload = all23(Scale::Small)
        .into_iter()
        .find(|w| w.name() == "FFT_i")
        .ok_or("FFT_i kernel missing")?;

    let stats = Arc::new(Mutex::new(DqStats::default()));
    let monitor = DqInvariantMonitor {
        occupancy: 0,
        stats: Arc::clone(&stats),
    };

    let cfg = SimConfig::wl_cache().with_trace(TraceKind::Rf3);
    let (report, _machine) =
        Simulator::new(cfg).run_with(workload.as_ref(), ObserverBox::custom(monitor))?;

    let s = *stats.lock().map_err(|_| "monitor mutex poisoned")?;
    assert!(
        s.checks > 0,
        "the monitor must have seen DirtyQueue traffic"
    );
    println!(
        "{} on {}: {} outages, {} events observed",
        report.workload, report.design, report.outages, s.events
    );
    println!(
        "DirtyQueue occupancy ≤ maxline held at all {} checks (peak {} of maxline {})",
        s.checks, s.peak, s.maxline
    );
    Ok(())
}
