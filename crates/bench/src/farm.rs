//! The bench side of the sweep farm: a [`Backend`] over
//! [`crate::figures::ALL`].
//!
//! `ehsim-farm` owns the key/store/server machinery but cannot depend
//! on this crate (the executor depends on farm's key and store — the
//! [`Backend`] trait breaks the cycle). This module closes the loop:
//! figure names map to figure functions, generation returns the
//! exact bytes [`crate::Table::contents`] would write to
//! `results/<name>.tsv`, heartbeats flow from
//! [`crate::telemetry::sim_completed`] into the server's fan-out, and
//! the executor counters (including the result-store hit/miss/reject
//! counters) surface on `status` and `done` lines.

use crate::{exec, figures, telemetry};
use ehsim_farm::server::{Backend, HeartbeatSink};
use ehsim_workloads::Scale;
use std::sync::Arc;

/// [`Backend`] implementation over the paper's figure/table set.
#[derive(Debug, Default)]
pub struct BenchBackend;

impl Backend for BenchBackend {
    fn figures(&self) -> Vec<String> {
        figures::ALL.iter().map(|(n, _)| n.to_string()).collect()
    }

    fn generate(&self, figure: &str, scale: Scale) -> Result<Vec<u8>, String> {
        let (_, f) = figures::ALL
            .iter()
            .find(|(n, _)| *n == figure)
            .ok_or_else(|| format!("unknown figure `{figure}`"))?;
        Ok(f(scale).contents().as_bytes().to_vec())
    }

    fn install_heartbeat_sink(&self, sink: HeartbeatSink) {
        telemetry::add_heartbeat_sink(Arc::new(move |hb| sink(&hb.to_jsonl())));
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let st = exec::stats();
        vec![
            ("sims_run", st.sims_run),
            ("memo_hits", st.memo_hits),
            ("simulated_instructions", st.simulated_instructions),
            ("store_hits", st.store_hits),
            ("store_misses", st.store_misses),
            ("store_rejects", st.store_rejects),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_knows_every_figure() {
        let b = BenchBackend;
        let names = b.figures();
        assert_eq!(names.len(), figures::ALL.len());
        assert!(names.iter().any(|n| n == "fig04"));
        assert!(b.generate("nope", Scale::Small).is_err());
    }
}
