//! The telemetry surface, end to end: a real server on an ephemeral
//! port, a workload, and a `METRICS` scrape validated by a small
//! Prometheus text-format parser (not substring checks). The parser
//! enforces the exposition-format invariants a real scraper relies on:
//! every sample belongs to a family announced by `# TYPE`, every family
//! carries `# HELP`, histogram bucket counts are cumulative and end in a
//! `+Inf` bucket equal to `_count`, and counters are monotone across two
//! scrapes. The JSON readouts (`METRICS JSON`, `STATS`, `TRACE`) are run
//! through a strict JSON syntax checker for the same reason.

mod util;

use std::collections::BTreeMap;

use datalog_server::metrics::Phase;
use datalog_server::{
    Client, Consistency, FaultPlan, Request, Response, Server, ServerConfig, ServerState,
};
use util::TempDir;

const TC_RULES: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n";

// ---------------------------------------------------------------------------
// A small Prometheus text-exposition parser.
// ---------------------------------------------------------------------------

/// One parsed sample: full series name (with label set), value.
#[derive(Debug)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: f64,
}

/// One metric family from a scrape.
#[derive(Debug)]
struct PromFamily {
    help: bool,
    kind: String,
    samples: Vec<Sample>,
}

/// Parse a Prometheus text exposition, panicking (with the offending
/// line) on anything malformed. Returns family name → family.
fn parse_prometheus(text: &str) -> BTreeMap<String, PromFamily> {
    let mut families: BTreeMap<String, PromFamily> = BTreeMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP without text");
            assert!(!help.is_empty(), "empty HELP for {name}");
            families
                .entry(name.to_string())
                .or_insert_with(|| PromFamily {
                    help: false,
                    kind: String::new(),
                    samples: Vec::new(),
                })
                .help = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE without kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown TYPE {kind} for {name}"
            );
            let fam = families
                .entry(name.to_string())
                .or_insert_with(|| PromFamily {
                    help: false,
                    kind: String::new(),
                    samples: Vec::new(),
                });
            assert!(fam.kind.is_empty(), "duplicate TYPE for {name}");
            fam.kind = kind.to_string();
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment line: {line}");
        // A sample: `name{l="v",...} value` or `name value`.
        let (series, value) = line.rsplit_once(' ').expect("sample without value");
        let value: f64 = value.parse().unwrap_or_else(|_| {
            if value == "+Inf" {
                f64::INFINITY
            } else {
                panic!("bad sample value in: {line}")
            }
        });
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("unterminated label set");
                let mut labels = BTreeMap::new();
                for pair in split_label_pairs(body) {
                    let (k, v) = pair.split_once('=').expect("label without =");
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .expect("unquoted label value");
                    labels.insert(k.to_string(), v.to_string());
                }
                (name.to_string(), labels)
            }
        };
        // `_bucket`/`_sum`/`_count` samples belong to the histogram family.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                let base = name.strip_suffix(suf)?;
                families.contains_key(base).then(|| base.to_string())
            })
            .unwrap_or_else(|| name.clone());
        let fam = families
            .get_mut(&family)
            .unwrap_or_else(|| panic!("sample for unannounced family: {line}"));
        fam.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    for (name, fam) in &families {
        assert!(fam.help, "family {name} has no HELP");
        assert!(!fam.kind.is_empty(), "family {name} has no TYPE");
        assert!(!fam.samples.is_empty(), "family {name} has no samples");
    }
    families
}

/// Split `a="b",c="d,e"` on commas outside quotes.
fn split_label_pairs(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut quoted) = (0usize, false);
    for (i, c) in body.char_indices() {
        match c {
            '"' => quoted = !quoted,
            ',' if !quoted => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

/// Check the histogram invariants for every series of one family:
/// cumulative buckets, a final `+Inf` bucket, `+Inf == _count`.
fn check_histogram(fam: &PromFamily, name: &str) {
    // Partition bucket samples by their label set minus `le`.
    let mut by_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for s in &fam.samples {
        let mut labels = s.labels.clone();
        let le = labels.remove("le");
        let series_key = format!("{labels:?}");
        if s.name == format!("{name}_bucket") {
            let le = le.expect("bucket without le");
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().expect("bad le")
            };
            by_series.entry(series_key).or_default().push((le, s.value));
        } else if s.name == format!("{name}_count") {
            counts.insert(series_key, s.value);
        }
    }
    for (series, buckets) in by_series {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = -1.0;
        for (le, count) in &buckets {
            assert!(*le > prev_le, "{name}{series}: le not increasing");
            assert!(
                *count >= prev_count,
                "{name}{series}: bucket counts not cumulative"
            );
            prev_le = *le;
            prev_count = *count;
        }
        let (last_le, last_count) = buckets.last().unwrap();
        assert!(last_le.is_infinite(), "{name}{series}: no +Inf bucket");
        assert_eq!(
            *last_count, counts[&series],
            "{name}{series}: +Inf bucket != _count"
        );
    }
}

// ---------------------------------------------------------------------------
// A strict JSON syntax checker (validity, not schema).
// ---------------------------------------------------------------------------

struct JsonCheck<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Panic unless `text` is exactly one valid JSON value.
fn assert_valid_json(text: &str) {
    let mut c = JsonCheck {
        bytes: text.as_bytes(),
        pos: 0,
    };
    c.skip_ws();
    c.value();
    c.skip_ws();
    assert_eq!(c.pos, c.bytes.len(), "trailing garbage after JSON value");
}

impl JsonCheck<'_> {
    fn peek(&self) -> u8 {
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }
    fn eat(&mut self, b: u8) {
        assert_eq!(
            self.peek(),
            b,
            "expected {:?} at byte {}",
            b as char,
            self.pos
        );
        self.pos += 1;
    }
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }
    fn value(&mut self) {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string(),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number(),
            other => panic!("unexpected byte {:?} at {}", other as char, self.pos),
        }
    }
    fn literal(&mut self, word: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(word.as_bytes()),
            "bad literal at {}",
            self.pos
        );
        self.pos += word.len();
    }
    fn number(&mut self) {
        if self.peek() == b'-' {
            self.pos += 1;
        }
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        assert!(self.pos > start, "empty number at {start}");
    }
    fn string(&mut self) {
        self.eat(b'"');
        loop {
            match self.peek() {
                b'"' => {
                    self.pos += 1;
                    return;
                }
                b'\\' => self.pos += 2,
                b => {
                    assert!(b >= 0x20, "unescaped control byte in string");
                    self.pos += 1;
                }
            }
        }
    }
    fn array(&mut self) {
        self.eat(b'[');
        self.skip_ws();
        if self.peek() == b']' {
            self.pos += 1;
            return;
        }
        loop {
            self.value();
            self.skip_ws();
            match self.peek() {
                b',' => {
                    self.pos += 1;
                    self.skip_ws();
                }
                b']' => {
                    self.pos += 1;
                    return;
                }
                other => panic!("expected , or ] got {:?}", other as char),
            }
        }
    }
    fn object(&mut self) {
        self.eat(b'{');
        self.skip_ws();
        if self.peek() == b'}' {
            self.pos += 1;
            return;
        }
        loop {
            self.string();
            self.skip_ws();
            self.eat(b':');
            self.skip_ws();
            self.value();
            self.skip_ws();
            match self.peek() {
                b',' => {
                    self.pos += 1;
                    self.skip_ws();
                }
                b'}' => {
                    self.pos += 1;
                    return;
                }
                other => panic!("expected , or }} got {:?}", other as char),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------------

/// Spin up a server with a WAL, run a mixed workload, and return both the
/// server and a connected client.
fn server_with_workload(dir: &TempDir, cfg: ServerConfig) -> (Server, Client) {
    let rules = dir.path().join("rules.dl");
    std::fs::write(&rules, TC_RULES).unwrap();
    let server = Server::spawn(&cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert!(c.load(rules.to_str().unwrap()).unwrap().ok);
    for i in 1..5 {
        assert!(c.fact(&format!("p({i}, {}).", i + 1)).unwrap().ok);
    }
    // Cold miss, prepared hit, memoized answer hit.
    assert!(c.query("?- a(1, X).").unwrap().ok);
    assert!(c.query("?- a(2, X).").unwrap().ok);
    assert!(c.query("?- a(2, X).").unwrap().ok);
    // Invalidate the memoized answers, then query again.
    assert!(c.fact("p(5, 6).").unwrap().ok);
    assert!(c.query("?- a(1, X).").unwrap().ok);
    assert!(c.stats().unwrap().ok);
    assert!(c.trace().unwrap().ok);
    (server, c)
}

#[test]
fn metrics_scrape_is_valid_prometheus_and_covers_the_surface() {
    let dir = TempDir::new("metrics-scrape");
    let cfg = ServerConfig {
        threads: 2,
        eval_threads: 2,
        wal_dir: Some(dir.path().join("wal")),
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    let resp = c.metrics(false).unwrap();
    assert!(resp.ok, "{}", resp.error);
    assert_eq!(
        resp.info_map().get("format").map(String::as_str),
        Some("prometheus")
    );
    let families = parse_prometheus(&resp.payload_text());

    // The acceptance surface: request latency per verb, cache hit/miss,
    // WAL fsync, shed/trip counters, per-worker eval histograms.
    for required in [
        "xdl_requests_total",
        "xdl_request_seconds",
        "xdl_query_phase_seconds",
        "xdl_queries_total",
        "xdl_cache_events_total",
        "xdl_wal_append_seconds",
        "xdl_wal_fsync_seconds",
        "xdl_shed_total",
        "xdl_limit_trips_total",
        "xdl_admission_rejected_total",
        "xdl_eval_task_enum_seconds",
        "xdl_eval_merge_seconds",
        "xdl_inflight_queries",
        "xdl_facts",
        "xdl_storage_runs",
        "xdl_bloom_probes_total",
        "xdl_bloom_skips_total",
        "xdl_storage_consolidations_total",
        "xdl_storage_consolidation_seconds",
        "xdl_index_rebuilds_total",
    ] {
        assert!(
            families.contains_key(required),
            "{required} missing from scrape"
        );
    }
    for (name, fam) in &families {
        if fam.kind == "histogram" {
            check_histogram(fam, name);
        }
    }

    // Spot-check values the workload determines exactly.
    let find = |family: &str, label: (&str, &str)| -> f64 {
        families[family]
            .samples
            .iter()
            .find(|s| s.labels.get(label.0).map(String::as_str) == Some(label.1))
            .unwrap_or_else(|| panic!("{family} has no series {label:?}"))
            .value
    };
    assert_eq!(find("xdl_requests_total", ("verb", "QUERY")), 4.0);
    assert_eq!(find("xdl_cache_events_total", ("kind", "miss")), 1.0);
    assert_eq!(find("xdl_cache_events_total", ("kind", "answer_hit")), 1.0);
    assert!(find("xdl_cache_events_total", ("kind", "invalidation")) >= 1.0);
    // 6 FACTs with an Always-fsync WAL: the fsync histogram saw them all.
    let fsync = &families["xdl_wal_fsync_seconds"];
    let count = fsync
        .samples
        .iter()
        .find(|s| s.name == "xdl_wal_fsync_seconds_count")
        .unwrap();
    assert!(count.value >= 6.0, "fsync count {}", count.value);

    server.shutdown();
    server.join();
}

#[test]
fn incremental_serving_surface_is_scraped_and_counted() {
    let dir = TempDir::new("metrics-incremental");
    let server = Server::spawn(&ServerConfig {
        threads: 1,
        ..ServerConfig::default() // resident forms on by default
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let rules = dir.path().join("rules.dl");
    std::fs::write(&rules, format!("{TC_RULES}p(1, 2).\n")).unwrap();
    assert!(c.load(rules.to_str().unwrap()).unwrap().ok);

    // Cold miss pins the resident; the FACTs are then propagated into it
    // as delta batches; the final query serves off the resident frontier.
    assert_eq!(c.query("?- a(X, _).").unwrap().get("cache"), Some("miss"));
    for i in 2..6 {
        assert!(c.fact(&format!("p({i}, {}).", i + 1)).unwrap().ok);
    }
    let resp = c.query("?- a(X, _).").unwrap();
    assert_eq!(resp.get("cache"), Some("resident"));

    let families = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    for required in [
        "xdl_incremental_applied_facts_total",
        "xdl_incremental_propagation_seconds",
        "xdl_resident_forms",
        "xdl_fallback_recomputes_total",
    ] {
        assert!(
            families.contains_key(required),
            "{required} missing from scrape"
        );
    }
    // Four new facts propagated, one resident pinned, zero fallbacks.
    assert_eq!(
        families["xdl_incremental_applied_facts_total"].samples[0].value,
        4.0
    );
    assert_eq!(families["xdl_resident_forms"].samples[0].value, 1.0);
    assert_eq!(
        families["xdl_fallback_recomputes_total"].samples[0].value,
        0.0
    );
    let prop_count = families["xdl_incremental_propagation_seconds"]
        .samples
        .iter()
        .find(|s| s.name == "xdl_incremental_propagation_seconds_count")
        .unwrap();
    assert!(
        prop_count.value >= 4.0,
        "per-FACT drains: {}",
        prop_count.value
    );

    // STATS reads the same surface.
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"resident_forms\":1"), "{stats}");
    assert!(stats.contains("\"incremental_applied_facts\":4"), "{stats}");
    assert!(stats.contains("\"fallback_recomputes\":0"), "{stats}");

    server.shutdown();
    server.join();
}

#[test]
fn bounded_staleness_surface_is_scraped_and_counted() {
    let dir = TempDir::new("metrics-staleness");
    // Zero sync budget defers every drain; the slow-drain fault keeps the
    // deferred drain in flight long enough that the stale serving and
    // refusal counters are deterministically reachable.
    let fault = std::sync::Arc::new(datalog_server::FaultPlan::default());
    let server = Server::spawn(&ServerConfig {
        threads: 2,
        drain_sync_cost: 0,
        fault: std::sync::Arc::clone(&fault),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    let rules = dir.path().join("rules.dl");
    std::fs::write(&rules, format!("{TC_RULES}p(1, 2).\n")).unwrap();
    assert!(c.load(rules.to_str().unwrap()).unwrap().ok);

    assert_eq!(c.query("?- a(X, _).").unwrap().get("cache"), Some("miss"));
    fault.slow_drains(300);
    assert!(c.fact("p(2, 3).").unwrap().ok);
    // One relaxed read off the old frontier, one refusal, one fresh.
    let resp = c.query_at(Consistency::Any, "?- a(X, _).").unwrap();
    assert!(resp.ok, "{}", resp.error);
    std::thread::sleep(std::time::Duration::from_millis(15));
    let resp = c.query_at(Consistency::Bounded(1), "?- a(X, _).").unwrap();
    let refusals = u64::from(!resp.ok);
    fault.slow_drains(0);
    assert!(c.query("?- a(X, _).").unwrap().ok);

    let families = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    for required in [
        "xdl_resident_rebuilds_total",
        "xdl_resident_poisonings_total",
        "xdl_stale_serves_total",
        "xdl_stale_refusals_total",
        "xdl_background_drains_total",
        "xdl_staleness_bound_seconds",
    ] {
        assert!(
            families.contains_key(required),
            "{required} missing from scrape"
        );
    }
    assert!(
        families["xdl_stale_serves_total"].samples[0].value >= 1.0,
        "the any-mode read was a stale serve"
    );
    assert_eq!(
        families["xdl_stale_refusals_total"].samples[0].value,
        refusals as f64
    );
    assert_eq!(
        families["xdl_resident_poisonings_total"].samples[0].value,
        0.0
    );
    // Every served query records into the staleness histogram.
    let bound_count = families["xdl_staleness_bound_seconds"]
        .samples
        .iter()
        .find(|s| s.name == "xdl_staleness_bound_seconds_count")
        .unwrap();
    assert!(
        bound_count.value >= 3.0,
        "bound count {}",
        bound_count.value
    );

    // STATS mirrors the same counters.
    let stats = c.stats().unwrap().payload_text();
    assert!(stats.contains("\"stale_serves\":"), "{stats}");
    assert!(stats.contains("\"stale_refusals\":"), "{stats}");
    assert!(stats.contains("\"resident_rebuilds\":"), "{stats}");
    assert!(stats.contains("\"resident_poisonings\":"), "{stats}");
    assert!(stats.contains("\"background_drains\":"), "{stats}");

    server.shutdown();
    server.join();
}

/// All six `cache=` sources leave through one response tail: same header
/// keys in the same order, one staleness sample and one cache-phase sample
/// per answer. In-process and without the maintenance thread, so a
/// deferred drain stays pending until a reader resolves it and every
/// source is reached deterministically.
#[test]
fn every_cache_source_answers_through_the_same_tail() {
    let dir = TempDir::new("metrics-tail");
    let fault = std::sync::Arc::new(FaultPlan::default());
    let state = std::sync::Arc::new(
        ServerState::from_config(&ServerConfig {
            drain_sync_cost: 0,
            fault: std::sync::Arc::clone(&fault),
            ..ServerConfig::default()
        })
        .unwrap(),
    );
    // `a` is monotone (pins a resident); `c` negates, so it never does.
    let rules = dir.path().join("rules.dl");
    let src = format!("{TC_RULES}c(X) :- n(X), not d(X).\np(1, 2).\nn(1).\nn(2).\nd(2).\n");
    std::fs::write(&rules, src).unwrap();
    assert!(state.handle(&Request::Load(rules.display().to_string())).ok);

    let samples = |state: &ServerState| {
        let m = state.metrics();
        (
            m.staleness_bound_seconds.snapshot().count,
            m.phase_seconds[Phase::Cache as usize].snapshot().count,
        )
    };
    let check = |source: &str, resp: &Response, before: (u64, u64), answered: u64| {
        assert!(resp.ok, "{source}: {}", resp.error);
        assert_eq!(resp.get("cache"), Some(source));
        let keys: Vec<&str> = resp.info.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["cache", "answers", "frontier", "staleness_us", "wall_us"],
            "{source}"
        );
        let after = samples(&state);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (answered, answered),
            "{source}: one staleness sample and one cache-phase sample per answer"
        );
    };
    let ask = |source: &str, consistency: Consistency, text: &str| {
        let before = samples(&state);
        let resp = state.handle(&Request::Query {
            text: text.into(),
            consistency,
        });
        check(source, &resp, before, 1);
    };

    let a = "?- a(X, _).";
    ask("miss", Consistency::Fresh, "?- c(X).");
    ask("hit", Consistency::Fresh, "?- c(1).");
    ask("answers", Consistency::Fresh, "?- c(1).");
    ask("miss", Consistency::Fresh, a);
    // The ingest-side drain is priced out and nobody runs it: the form lags.
    assert!(state.handle(&Request::Fact("p(2, 3).".into())).ok);
    ask("stale", Consistency::Any, a);
    // A fresh reader now drains under the form lock, slowly. Once the
    // fault has fired it is inside that lock, so a relaxed reader finds it
    // contended and is answered off the answer memo.
    fault.slow_drains(300);
    let fired = fault.fired();
    let before = samples(&state);
    let drainer = {
        let state = std::sync::Arc::clone(&state);
        std::thread::spawn(move || state.handle(&Request::query(a)))
    };
    while fault.fired() == fired {
        std::thread::yield_now();
    }
    ask("stale_answers", Consistency::Any, a);
    let drained = drainer.join().unwrap();
    fault.slow_drains(0);
    // Two answers since the drainer started: the relaxed read (counted
    // on its own above, while the drainer still slept) and the drainer's.
    check("resident", &drained, before, 2);
}

#[test]
fn storage_surface_is_scraped_and_counted() {
    let dir = TempDir::new("metrics-storage");
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    // The engine storage counters are process-wide (other tests in this
    // binary also evaluate), so assert reachability and the delta-sync
    // discipline rather than exact values: this server's own queries
    // probed bloom-gated runs, so after a scrape the synced counters are
    // non-zero and never exceed the globals they mirror.
    let families = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    let probes = families["xdl_bloom_probes_total"].samples[0].value;
    assert!(probes > 0.0, "queries probe sealed runs");
    let global = datalog_engine::storage_counters();
    assert!(
        probes <= global.bloom_probes as f64,
        "delta-sync never overshoots"
    );
    assert!(families["xdl_bloom_skips_total"].samples[0].value <= global.bloom_skips as f64);

    // STATS exposes the same surface as a nested object.
    let stats = c.stats().unwrap().payload_text();
    for key in [
        "\"storage\":{",
        "\"runs\":",
        "\"bloom_probes\":",
        "\"bloom_skips\":",
        "\"consolidations\":",
        "\"index_rebuilds\":",
    ] {
        assert!(stats.contains(key), "{key} missing from STATS: {stats}");
    }

    server.shutdown();
    server.join();
}

#[test]
fn counters_are_monotone_across_scrapes() {
    let dir = TempDir::new("metrics-monotone");
    let cfg = ServerConfig {
        threads: 1,
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    let first = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    assert!(c.query("?- a(1, X).").unwrap().ok);
    let second = parse_prometheus(&c.metrics(false).unwrap().payload_text());

    for (name, fam) in &first {
        if fam.kind != "counter" {
            continue;
        }
        for s in &fam.samples {
            let after = second[name]
                .samples
                .iter()
                .find(|t| t.labels == s.labels)
                .unwrap_or_else(|| panic!("{name} series vanished between scrapes"));
            assert!(
                after.value >= s.value,
                "{name}{:?} went backwards: {} -> {}",
                s.labels,
                s.value,
                after.value
            );
        }
    }
    let q = |fams: &BTreeMap<String, PromFamily>| {
        fams["xdl_requests_total"]
            .samples
            .iter()
            .find(|s| s.labels.get("verb").map(String::as_str) == Some("QUERY"))
            .unwrap()
            .value
    };
    assert_eq!(q(&second), q(&first) + 1.0);

    server.shutdown();
    server.join();
}

#[test]
fn json_readouts_are_valid_json() {
    let dir = TempDir::new("metrics-json");
    let cfg = ServerConfig {
        threads: 1,
        wal_dir: Some(dir.path().join("wal")),
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    let m = c.metrics(true).unwrap();
    assert!(m.ok);
    assert_eq!(m.info_map().get("format").map(String::as_str), Some("json"));
    assert_valid_json(&m.payload_text());
    assert!(m.payload_text().contains("\"xdl_requests_total\""));

    // STATS and TRACE payloads go through the same strict checker — the
    // guarantee that no hand-rolled (escaping-unsafe) JSON writer is left
    // on any readout path.
    assert_valid_json(&c.stats().unwrap().payload_text());
    assert_valid_json(&c.trace().unwrap().payload_text());

    server.shutdown();
    server.join();
}

#[test]
fn disabled_histograms_keep_counters_truthful() {
    let dir = TempDir::new("metrics-off");
    let cfg = ServerConfig {
        threads: 1,
        metrics: false,
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    let families = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    // Counters still count under --no-metrics...
    let queries = families["xdl_requests_total"]
        .samples
        .iter()
        .find(|s| s.labels.get("verb").map(String::as_str) == Some("QUERY"))
        .unwrap();
    assert_eq!(queries.value, 4.0);
    // ...while histograms record nothing (the no-op baseline e13 measures).
    let lat = families["xdl_request_seconds"]
        .samples
        .iter()
        .find(|s| s.name == "xdl_request_seconds_count")
        .unwrap();
    assert_eq!(lat.value, 0.0);

    // STATS agrees with the scrape.
    let stats = c.stats().unwrap().payload_text();
    assert!(
        stats.contains("\"queries\":4") || stats.contains("\"queries\": 4"),
        "{stats}"
    );

    server.shutdown();
    server.join();
}

#[test]
fn slow_query_threshold_zero_counts_every_query() {
    let dir = TempDir::new("metrics-slow");
    let cfg = ServerConfig {
        threads: 1,
        slow_query_ms: Some(0),
        ..ServerConfig::default()
    };
    let (server, mut c) = server_with_workload(&dir, cfg);

    let families = parse_prometheus(&c.metrics(false).unwrap().payload_text());
    // Threshold 0: all four queries crossed it (the log lines themselves
    // went to stderr; the counter is the observable here).
    assert_eq!(families["xdl_slow_queries_total"].samples[0].value, 4.0);

    server.shutdown();
    server.join();
}
