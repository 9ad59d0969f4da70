//! The metric registry: named families of counters, gauges and histograms
//! with Prometheus text exposition and [`Json`] readout.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s handed out at
//! registration time; the hot path touches only the handle's atomics and
//! never the registry lock, which is taken solely to register and to
//! render. Families keep registration order, so scrapes are stable and
//! diffable like every other JSON surface in the workspace.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::hist::{bucket_bounds, HistSnapshot, Histogram};
use crate::json::Json;

/// A monotone counter. One relaxed `fetch_add` per increment.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zero-valued counter.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value (in-flight queries, open connections). Signed so
/// transient dips below a sampled baseline cannot wrap.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Zero-valued gauge.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Overwrite the value (used for sampled gauges at scrape time).
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract 1.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Metric family kind, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Instantaneous value.
    Gauge,
    /// Log-linear latency histogram (nanosecond samples, rendered as
    /// seconds in Prometheus exposition).
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    series: Vec<Series>,
}

/// Process-wide metric registry. Every metric it hands out records.
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.families.lock().map(|fs| fs.len()).unwrap_or(0);
        f.debug_struct("Registry").field("families", &n).finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            families: Mutex::new(Vec::new()),
        }
    }

    fn families(&self) -> std::sync::MutexGuard<'_, Vec<Family>> {
        // A poisoned registry lock only means a panic elsewhere while
        // rendering; the data (all atomics) is still sound.
        self.families
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut families = self.families();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name} re-registered as a different kind"
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            return clone_metric(&s.metric);
        }
        let metric = make();
        family.series.push(Series {
            labels,
            metric: clone_metric(&metric),
        });
        metric
    }

    /// Register (or re-fetch) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, MetricKind::Counter, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or re-fetch) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, MetricKind::Gauge, labels, || {
            Metric::Gauge(Arc::new(Gauge::new()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Register (or re-fetch) a histogram series.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, MetricKind::Histogram, labels, || {
            Metric::Histogram(Arc::new(Histogram::new()))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked at registration"),
        }
    }

    /// Prometheus text exposition format (version 0.0.4): `# HELP` /
    /// `# TYPE` per family, one line per series, histograms as cumulative
    /// `_bucket{le="…"}` plus `_sum` / `_count`. Nanosecond samples are
    /// rendered as seconds, per Prometheus convention for `_seconds` names.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for f in self.families().iter() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.as_str()));
            for s in &f.series {
                match &s.metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_set(&s.labels, None),
                            c.get()
                        ));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_set(&s.labels, None),
                            g.get()
                        ));
                    }
                    Metric::Histogram(h) => {
                        render_histogram(&mut out, &f.name, &s.labels, &h.snapshot());
                    }
                }
            }
        }
        out
    }

    /// JSON readout in the workspace's house style: per family, per series,
    /// scalar values for counters/gauges and `{count, sum_ns, max_ns,
    /// mean_ns, p50_ns, p90_ns, p99_ns}` for histograms.
    pub fn to_json(&self) -> Json {
        let mut arr = Vec::new();
        for f in self.families().iter() {
            let mut series = Vec::new();
            for s in &f.series {
                let mut labels = Json::obj();
                for (k, v) in &s.labels {
                    labels.set(k, v.as_str());
                }
                let j = match &s.metric {
                    Metric::Counter(c) => Json::obj().with("labels", labels).with("value", c.get()),
                    Metric::Gauge(g) => Json::obj().with("labels", labels).with("value", g.get()),
                    Metric::Histogram(h) => {
                        let snap = h.snapshot();
                        Json::obj()
                            .with("labels", labels)
                            .with("count", snap.count)
                            .with("sum_ns", snap.sum)
                            .with("max_ns", snap.max)
                            .with("mean_ns", snap.mean())
                            .with("p50_ns", snap.quantile(0.50))
                            .with("p90_ns", snap.quantile(0.90))
                            .with("p99_ns", snap.quantile(0.99))
                    }
                };
                series.push(j);
            }
            arr.push(
                Json::obj()
                    .with("name", f.name.as_str())
                    .with("kind", f.kind.as_str())
                    .with("help", f.help.as_str())
                    .with("series", series),
            );
        }
        Json::obj().with("metrics", Json::Arr(arr))
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

fn clone_metric(m: &Metric) -> Metric {
    match m {
        Metric::Counter(c) => Metric::Counter(Arc::clone(c)),
        Metric::Gauge(g) => Metric::Gauge(Arc::clone(g)),
        Metric::Histogram(h) => Metric::Histogram(Arc::clone(h)),
    }
}

/// Render a `{k="v",…}` label set, optionally with a trailing `le`.
fn label_set(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Seconds rendering of a nanosecond boundary, shortest round-trip form.
fn secs(ns: u64) -> String {
    format!("{}", ns as f64 / 1e9)
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    snap: &HistSnapshot,
) {
    // Emit only occupied buckets (cumulatively) plus +Inf — the fixed
    // 496-slot layout would otherwise dominate the scrape. `le` values
    // stay sorted because bucket order is value order.
    let mut cumulative = 0u64;
    for (i, &n) in snap.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        cumulative += n;
        let (_, hi) = bucket_bounds(i);
        out.push_str(&format!(
            "{name}_bucket{} {cumulative}\n",
            label_set(labels, Some(&secs(hi)))
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{} {}\n",
        label_set(labels, Some("+Inf")),
        snap.count
    ));
    out.push_str(&format!(
        "{name}_sum{} {}\n",
        label_set(labels, None),
        secs(snap.sum)
    ));
    out.push_str(&format!(
        "{name}_count{} {}\n",
        label_set(labels, None),
        snap.count
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        let c = r.counter("xdl_requests_total", "Requests.", &[("verb", "QUERY")]);
        c.add(3);
        let g = r.gauge("xdl_inflight", "In-flight queries.", &[]);
        g.set(2);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP xdl_requests_total Requests.\n"));
        assert!(text.contains("# TYPE xdl_requests_total counter\n"));
        assert!(text.contains("xdl_requests_total{verb=\"QUERY\"} 3\n"));
        assert!(text.contains("xdl_inflight 2\n"));
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_consistent() {
        let r = Registry::new();
        let h = r.histogram("xdl_request_seconds", "Latency.", &[]);
        h.record(10);
        h.record(10);
        h.record(1_000_000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE xdl_request_seconds histogram\n"));
        assert!(text.contains("xdl_request_seconds_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("xdl_request_seconds_count 3\n"));
        // Cumulative: the +Inf bucket equals the count; earlier buckets
        // are non-decreasing (checked by the protocol-level parser test in
        // datalog-server too).
        let buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("xdl_request_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    }

    #[test]
    fn re_registration_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("xdl_x_total", "X.", &[]);
        let b = r.counter("xdl_x_total", "X.", &[]);
        a.inc();
        assert_eq!(b.get(), 1);
        // Distinct labels are distinct series under one family.
        let c = r.counter("xdl_x_total", "X.", &[("k", "v")]);
        c.add(5);
        assert_eq!(b.get(), 1);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE xdl_x_total").count(), 1);
    }

    #[test]
    fn json_readout_has_quantiles() {
        let r = Registry::new();
        let h = r.histogram("xdl_h_seconds", "H.", &[]);
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let j = r.to_json();
        let text = j.to_string();
        assert!(text.contains("\"p99_ns\""));
        assert!(text.contains("\"count\":100"));
    }
}
