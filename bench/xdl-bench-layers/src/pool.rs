//! Sample pools: every probe adds to a metric by name; the report takes
//! the median of a timing and the total of a count.

use std::collections::BTreeMap;

use xdl_bench::metrics::{PerLayer, Source, PER_LAYER};
use xdl_bench::report::Report;
use xdl_bench::stats::median;

#[derive(Default)]
pub struct Pool {
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

fn catalog(name: &str) -> &'static PerLayer {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the per-layer catalog"))
}

impl Pool {
    /// One sample of a timing metric, given in nanoseconds and stored in
    /// the metric's own unit.
    pub fn time(&mut self, name: &'static str, ns: f64) {
        let per_unit = match catalog(name).unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            unit => panic!("{name} is not a timing (unit {unit})"),
        };
        self.samples.entry(name).or_default().push(ns / per_unit);
    }

    /// One sample of a metric already in its unit (ratios, bytes, MB/s).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        catalog(name);
        self.samples.entry(name).or_default().push(value);
    }

    /// Add to an exact count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        assert_eq!(catalog(name).source, Source::Count, "{name}");
        *self.counts.entry(name).or_default() += n;
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| median(v))
    }

    pub fn total(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every per-layer metric the probes produced, in catalog order.
    pub fn fill(&self, report: &mut Report) {
        for m in &PER_LAYER {
            match m.source {
                Source::Count => {
                    let n = self.total(m.name);
                    report.push(m.name, Some(n as f64), m.unit, 1);
                }
                Source::Probe => {
                    let n = self.samples.get(m.name).map_or(0, Vec::len);
                    report.push(m.name, self.median(m.name), m.unit, n);
                }
                // Header metrics are added by the replay, where they exist.
                Source::Header => {}
            }
        }
    }
}
