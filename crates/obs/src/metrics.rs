//! The sweep metrics registry: one typed, exportable structure for the
//! executor's previously ad-hoc statistics.
//!
//! `BENCH_sweep.json` used to be assembled from loose counters
//! (sims run, memo hits, store hits, …) with the engine
//! label and throughput formatted inline at the call site. The
//! [`MetricsRegistry`] gives those one home: named counters, labels
//! and [`Histogram`]s with deterministic iteration order (`BTreeMap`)
//! and a JSON exporter for benchmark artifacts.

use crate::histogram::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One registered metric.
// The size gap between `Counter` and `Histogram` is deliberate: a
// registry holds tens of entries at end-of-sweep reporting time, so
// inline histograms (no box indirection) cost nothing that matters.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic event count.
    Counter(u64),
    /// Label-valued metadata (engine name, git revision, …).
    Text(String),
    /// Log₂-bucketed value distribution.
    Histogram(Histogram),
}

/// A named collection of [`MetricValue`]s with deterministic order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Sets counter `name` to `v`.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        self.entries
            .insert(name.to_string(), MetricValue::Counter(v));
    }

    /// Sets text metric `name` to `v`.
    pub fn set_text(&mut self, name: &str, v: &str) {
        self.entries
            .insert(name.to_string(), MetricValue::Text(v.to_string()));
    }

    /// The histogram registered under `name`, created empty on first
    /// use (a non-histogram entry under the same name is replaced).
    pub fn histogram_mut(&mut self, name: &str) -> &mut Histogram {
        if !matches!(self.entries.get(name), Some(MetricValue::Histogram(_))) {
            self.entries.insert(
                name.to_string(),
                MetricValue::Histogram(Histogram::default()),
            );
        }
        match self.entries.get_mut(name) {
            Some(MetricValue::Histogram(h)) => h,
            _ => unreachable!("histogram entry was just inserted"),
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.get(name)
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the registry as a JSON object, one line per metric,
    /// each line prefixed with `indent`. Histograms become summary
    /// objects of their exact fields (`count`/`sum`/`mean`/`min`/`max`);
    /// their log₂-bucket quantiles are bucket bounds, not sample
    /// values, so they are not exported.
    pub fn to_json(&self, indent: &str) -> String {
        let mut s = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            let _ = write!(s, "{indent}  \"{name}\": ");
            match value {
                MetricValue::Counter(c) => {
                    let _ = write!(s, "{c}");
                }
                MetricValue::Text(t) => {
                    let _ = write!(s, "\"{}\"", crate::progress::sanitize_field(t));
                }
                MetricValue::Histogram(h) => {
                    let _ = write!(
                        s,
                        "{{\"count\": {}, \"sum\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
                        h.count(),
                        h.sum(),
                        h.mean(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0)
                    );
                }
            }
            s.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        let _ = write!(s, "{indent}}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_text_and_histograms() {
        let mut m = MetricsRegistry::new();
        m.set_counter("sims_run", 552);
        m.set_counter("sims_run", 560);
        m.set_counter("fresh", 3);
        m.set_text("engine", "direct");
        m.histogram_mut("sim_rate").record(100);
        m.histogram_mut("sim_rate").record(200);
        assert_eq!(m.get("sims_run"), Some(&MetricValue::Counter(560)));
        assert_eq!(m.get("fresh"), Some(&MetricValue::Counter(3)));
        assert_eq!(m.len(), 4);
        match m.get("sim_rate") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn json_is_deterministic_and_name_ordered() {
        let mut m = MetricsRegistry::new();
        m.set_text("zeta", "z");
        m.set_counter("alpha", 1);
        let json = m.to_json("  ");
        let alpha = json.find("alpha").unwrap_or(usize::MAX);
        let zeta = json.find("zeta").unwrap_or(0);
        assert!(alpha < zeta, "{json}");
        assert_eq!(json, m.clone().to_json("  "), "rendering is stable");
    }

    /// A skewed distribution (98 samples of 10, 2 of 1e6): its true
    /// median is 10, but a log₂ bucket can only say "somewhere in
    /// [8, 15]". The export carries the exact fields and no quantile
    /// key, so no bucket bound is ever printed as a sample value.
    #[test]
    fn histograms_export_exact_fields_and_no_quantiles() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram_mut("sim_elapsed_us");
        for _ in 0..98 {
            h.record(10);
        }
        h.record(1_000_000);
        h.record(1_000_000);
        let json = m.to_json("");
        assert!(
            json.contains(
                "\"sim_elapsed_us\": {\"count\": 100, \"sum\": 2000980, \"mean\": 20009.8, \"min\": 10, \"max\": 1000000}"
            ),
            "{json}"
        );
        assert!(
            !json.contains("\"p50\"") && !json.contains("\"p99\""),
            "{json}"
        );
    }
}
