//! What a run prints: the table `workload · metric · value · unit · n`,
//! and as the last line of standard output the one JSON object the
//! benchmark contract reads.

use std::fmt::Write as _;
use std::path::Path;

/// One measured metric. `value` is `None` when the run cannot support the
/// number (a p99 with fewer than 1 000 samples prints as `n/a`).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub value: Option<f64>,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Row {
    pub fn new(metric: &str, value: Option<f64>, unit: &'static str, n: usize) -> Row {
        Row {
            metric: metric.to_string(),
            value,
            unit,
            n,
        }
    }
}

/// The result of one run of one workload in one trace mode.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
    /// Design checks that did not hold, with the measured numbers.
    pub warnings: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report {
            workload: workload.to_string(),
            ..Report::default()
        }
    }

    pub fn push(&mut self, metric: &str, value: Option<f64>, unit: &'static str, n: usize) {
        self.rows.push(Row::new(metric, value, unit, n));
    }

    /// Count one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed operation (already counted as attempted).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let width = self.rows.iter().map(|r| r.metric.len()).max().unwrap_or(0);
        for r in &self.rows {
            let value = r.value.map_or("n/a".to_string(), format_value);
            let _ = writeln!(
                out,
                "{:<16} {:<width$} {:>14} {:<6} n={}",
                self.workload, r.metric, value, r.unit, r.n
            );
        }
        for w in &self.warnings {
            let _ = writeln!(out, "{:<16} WARNING: {w}", self.workload);
        }
        for f in &self.failures {
            let _ = writeln!(out, "{:<16} FAILED: {f}", self.workload);
        }
        out
    }

    /// Tab-separated rows, the table for programs:
    /// `workload\tmetric\tvalue\tunit\tn`.
    pub fn tsv(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            let value = r.value.map_or("n/a".to_string(), |v| format!("{v:?}"));
            let _ = writeln!(
                out,
                "{}\t{}\t{value}\t{}\t{}",
                self.workload, r.metric, r.unit, r.n
            );
        }
        out
    }

    /// The contract's result line, restricted to `names` — every one of
    /// which must have a value.
    pub fn contract_json(&self, names: &[&str]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for name in names {
            let row = self
                .rows
                .iter()
                .find(|r| r.metric == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let v = row
                .value
                .ok_or_else(|| format!("metric {name} has no value (n={})", row.n))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                row.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ))
    }

    pub fn write_tsv(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.tsv()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One row read back from a TSV file.
#[derive(Debug, Clone, PartialEq)]
pub struct TsvRow {
    pub workload: String,
    pub metric: String,
    pub value: Option<f64>,
    pub unit: String,
    pub n: usize,
}

/// Parse rows written by [`Report::tsv`] (any number of reports
/// concatenated).
pub fn parse_tsv(text: &str) -> Vec<TsvRow> {
    text.lines()
        .filter_map(|l| {
            let mut f = l.split('\t');
            Some(TsvRow {
                workload: f.next()?.to_string(),
                metric: f.next()?.to_string(),
                value: f.next()?.parse().ok(),
                unit: f.next()?.to_string(),
                n: f.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// Per-source shares and median latencies from the `cache=` tags of query
/// responses: `by_tag` maps a tag to the latencies (ms) of the responses
/// that carried it. `stale_answers` counts as `stale`.
pub fn push_source_rows(
    report: &mut Report,
    by_tag: &std::collections::BTreeMap<String, Vec<f64>>,
) {
    let queries: usize = by_tag.values().map(Vec::len).sum();
    for (name, tags) in [
        ("resident", &["resident"][..]),
        ("answers", &["answers"]),
        ("hit", &["hit"]),
        ("miss", &["miss"]),
        ("stale", &["stale", "stale_answers"]),
    ] {
        let ms: Vec<f64> = tags
            .iter()
            .filter_map(|t| by_tag.get(*t))
            .flatten()
            .copied()
            .collect();
        report.push(
            &format!("source.{name}_share"),
            Some(ms.len() as f64 / queries.max(1) as f64),
            "ratio",
            queries,
        );
        if name != "miss" {
            report.push(
                &format!("query.{name}_p50_ms"),
                crate::stats::median(&ms),
                "ms",
                ms.len(),
            );
        }
    }
}

/// Six significant digits for the table; the JSON and TSV carry every
/// digit.
fn format_value(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("serve-read");
        r.push("query_p50_ms", Some(3.527_825_999), "ms", 5000);
        r.push("query_p99_ms", None, "ms", 999);
        r.push("setup_s", Some(4.25), "s", 3);
        r.attempted = 5016;
        r
    }

    #[test]
    fn contract_line_has_exactly_the_asked_metrics() {
        let r = sample();
        assert_eq!(
            r.contract_json(&["query_p50_ms", "setup_s"]).unwrap(),
            "{\"correct\": true, \"attempted\": 5016, \"failed\": 0, \"metrics\": \
             {\"query_p50_ms\": {\"value\": 3.527825999, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 4.25, \"unit\": \"s\"}}}"
        );
        // A metric without a value cannot be reported to the contract.
        assert!(r.contract_json(&["query_p99_ms"]).is_err());
        assert!(r.contract_json(&["nope"]).is_err());
    }

    #[test]
    fn failures_flip_correct_and_are_listed() {
        let mut r = sample();
        r.check(true, || unreachable!());
        r.check(false, || "payload differs for ?- above(X, 3).".to_string());
        assert_eq!((r.attempted, r.failed), (5018, 1));
        assert!(!r.correct());
        assert!(r.table().contains("FAILED: payload differs"));
        assert!(r
            .contract_json(&["setup_s"])
            .unwrap()
            .starts_with("{\"correct\": false, \"attempted\": 5018, \"failed\": 1,"));
    }

    #[test]
    fn table_prints_na_and_tsv_round_trips() {
        let r = sample();
        let table = r.table();
        assert!(table.contains("query_p99_ms"));
        assert!(table.contains("n/a"));
        assert!(table.contains("3.52783"));
        let rows = parse_tsv(&r.tsv());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].value, Some(3.527_825_999));
        assert_eq!(rows[1].value, None);
        assert_eq!((rows[2].metric.as_str(), rows[2].n), ("setup_s", 3));
    }

    #[test]
    fn source_rows_pool_stale_tags_and_skip_a_miss_latency() {
        let mut by_tag = std::collections::BTreeMap::new();
        by_tag.insert("resident".to_string(), vec![3.0, 1.0, 2.0]);
        by_tag.insert("stale".to_string(), vec![5.0]);
        by_tag.insert("stale_answers".to_string(), vec![7.0]);
        by_tag.insert("miss".to_string(), vec![9.0]);
        let mut r = Report::new("w");
        push_source_rows(&mut r, &by_tag);
        let get = |m: &str| {
            r.rows
                .iter()
                .find(|x| x.metric == m)
                .map(|x| (x.value, x.n))
        };
        assert_eq!(get("source.resident_share"), Some((Some(0.5), 6)));
        assert_eq!(get("query.resident_p50_ms"), Some((Some(2.0), 3)));
        assert_eq!(get("source.stale_share"), Some((Some(2.0 / 6.0), 6)));
        assert_eq!(get("query.stale_p50_ms"), Some((Some(5.0), 2)));
        assert_eq!(get("query.hit_p50_ms"), Some((None, 0)));
        assert_eq!(get("query.miss_p50_ms"), None);
    }

    #[test]
    fn values_keep_six_significant_digits() {
        assert_eq!(format_value(1234.56789), "1234.57");
        assert_eq!(format_value(0.000123456789), "0.000123457");
        assert_eq!(format_value(29780.0), "29780.0");
        assert_eq!(format_value(0.0), "0");
    }
}
