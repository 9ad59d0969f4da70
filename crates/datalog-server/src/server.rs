//! The server: shared state, request dispatch, `STATS`/`METRICS`/`TRACE`
//! and WAL recovery. `QUERY` runs through the staged pipeline in
//! `query.rs`, `FACT`/`LOAD` and compaction through `ingest.rs`, resident
//! forms are drained and dropped by `maintain.rs`, and connections are
//! accepted and served by `conn.rs`.
//!
//! Every connection thread shares one [`ServerState`]:
//!
//! * the rule set (plus its fingerprint), guarded by an `RwLock` — queries
//!   read it, `LOAD` extends it;
//! * the EDB in a [`SharedDatabase`]: writers ingest while readers evaluate
//!   against [`DbSnapshot`](datalog_engine::DbSnapshot)s, never blocking
//!   each other beyond per-access row locks;
//! * the WAL behind a `Mutex`, which every ingest holds from admission to
//!   apply (and across a due compaction) — the one lock that orders
//!   ingests; queries never take it;
//! * the [`PreparedCache`] behind a `Mutex` — held across a cold `prepare`
//!   (optimization is the expensive, memoized step; serializing it
//!   deduplicates concurrent cold misses of the same form);
//! * the last query's trace, served by `TRACE`.
//!
//! ## Fault tolerance
//!
//! The serving stack is built to refuse work it cannot finish rather than
//! wedge or lie:
//!
//! * **Durability** — with a WAL directory configured, every accepted
//!   `FACT`/`LOAD` is logged and fsynced, as one record batch, *before* it
//!   is applied and acknowledged; startup replays snapshot + log
//!   ([`crate::wal`]).
//! * **Deadlines & budgets** — each query evaluates under the configured
//!   wall-clock deadline, derived-fact budget, and the server's global
//!   [`CancelToken`]; a trip returns a coded `ERR` carrying the partial
//!   [`EvalStats`](datalog_engine::EvalStats), and the tripped result is
//!   **not** memoized.
//! * **Overload control** — a connection limit sheds excess accepts with
//!   `ERR busy`. A connection serves one request at a time, so the same
//!   limit caps the queries in flight.
//! * **Panic isolation** — each request runs under `catch_unwind`; a panic
//!   poisons no state (all lock accessors recover) and answers
//!   `ERR internal` while the server lives on.
//! * **Draining shutdown** — `SHUTDOWN` stops accepting new work, lets
//!   in-flight queries run for a bounded grace period, then cancels the
//!   stragglers, which surface as clean `ERR shutdown` responses.
//!
//! Every limit trip is recorded as a
//! [`PhaseEvent::LimitTripped`](datalog_trace::PhaseEvent) and counted in
//! `STATS`.
//!
//! ## Resident forms
//!
//! With `--resident-forms=N` (default 8) up to N stratifiable forms (with
//! or without negation) keep their fixpoint resident and absorb ingested facts as deltas before the ingest
//! is acknowledged; every `QUERY` answer is fresh and names the `frontier=`
//! it was read at. A form is live or cold
//! ([`Entry::resident`](crate::cache::Entry::resident)); who moves it,
//! under which lock, is `maintain.rs`'s module docs.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use datalog_ast::{PredRef, Program, Rule};
use datalog_engine::{AnswerSet, CancelToken, DbSnapshot, EngineError, SharedDatabase};
use datalog_opt::{fingerprint_rules, PreparedProgram};
use datalog_trace::{Json, PhaseEvent};

use crate::cache::{PreparedCache, PREPARED_CAPACITY};
use crate::fault::FaultPlan;
use crate::metrics::{verb_index, ServerMetrics};
use crate::protocol::{ErrCode, Request, Response, PROTOCOL_VERSION};
use crate::query::LastQuery;
use crate::wal::{FsyncPolicy, Wal};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Forms allowed to pin resident incremental state
    /// (`--resident-forms`; 0 disables pinning entirely and restores the
    /// invalidate-and-recompute serving behavior).
    pub resident_forms: usize,
    /// Run translation validation on every optimizer invocation
    /// (`OptimizerConfig::verify`): a query whose optimization cannot be
    /// re-justified is answered with an error instead of a wrong table.
    pub verify: bool,
    /// WAL directory; `None` runs without durability (the seed behavior).
    /// Every ingest is fsynced before it is acknowledged.
    pub wal_dir: Option<PathBuf>,
    /// Snapshot + truncate the log after this many appended records
    /// (0 disables compaction).
    pub compact_every: u64,
    /// Connections served concurrently before new accepts are shed with
    /// `ERR busy`. Each connection is a thread, so there is no unlimited
    /// value: [`ServerState::from_config`] raises 0 to 1.
    pub max_conns: usize,
    /// Per-query wall-clock deadline.
    pub deadline_ms: Option<u64>,
    /// Per-query derived-fact budget. A query whose static derivation
    /// bound, evaluated at current EDB cardinalities, already exceeds it is
    /// refused with `ERR bound` before evaluation; one that gets past that
    /// check and then derives too much trips with `ERR budget`.
    pub fact_budget: Option<u64>,
    /// Shutdown drain: how long in-flight queries may keep running before
    /// the global cancel token fires.
    pub grace_ms: u64,
    /// Log a structured JSON line to stderr for every query at or over
    /// this wall-clock threshold (request id, form, phase breakdown).
    pub slow_query_ms: Option<u64>,
    /// Fault-injection switches (the default plan injects nothing).
    pub fault: Arc<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            resident_forms: 8,
            verify: false,
            wal_dir: None,
            compact_every: 4096,
            max_conns: 64,
            deadline_ms: None,
            fact_budget: None,
            grace_ms: 2000,
            slow_query_ms: None,
            fault: Arc::new(FaultPlan::new()),
        }
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn read_lock<T>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn write_lock<T>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Decrement an [`AtomicUsize`] on scope exit (in-flight query guard).
pub(crate) struct Decrement<'a>(pub(crate) &'a AtomicUsize);

impl Drop for Decrement<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The rule set with everything derived from it, computed once per change.
pub(crate) struct RuleSet {
    pub(crate) rules: Vec<Rule>,
    /// [`fingerprint_rules`] of `rules` — the form-key component.
    pub(crate) fingerprint: u64,
    /// Base predicates some rule derives (the IDB, which holds no facts).
    pub(crate) heads: BTreeSet<PredRef>,
    /// Every predicate's arity when the set validates; otherwise the error
    /// each query over it reports (a `LOAD` validates its own file, so
    /// only two files that disagree get here).
    pub(crate) arities: Result<BTreeMap<PredRef, usize>, String>,
}

impl RuleSet {
    pub(crate) fn new(rules: Vec<Rule>) -> RuleSet {
        let program = Program::new(rules);
        let arities = program
            .validate()
            .and_then(|()| program.arities())
            .map_err(|e| e.to_string());
        RuleSet {
            fingerprint: fingerprint_rules(&program.rules),
            heads: program.rules.iter().map(|r| r.head.pred.base()).collect(),
            arities,
            rules: program.rules,
        }
    }
}

/// Everything the connection threads share.
pub struct ServerState {
    /// The configuration, normalized once by [`ServerState::from_config`]
    /// (`max_conns` is at least 1).
    pub(crate) cfg: ServerConfig,
    /// Replaced whole by a `LOAD` that adds rules; a query clones the
    /// handle and reads it without the lock.
    pub(crate) rules: RwLock<Arc<RuleSet>>,
    pub(crate) db: SharedDatabase,
    pub(crate) cache: Mutex<PreparedCache>,
    pub(crate) last_trace: Mutex<Option<LastQuery>>,
    shutdown: AtomicBool,
    /// The write-ahead log, when durability is configured. Its mutex is
    /// the one lock that orders ingests, with or without a log: each
    /// admits, appends, applies and compacts under it (`ingest.rs`).
    pub(crate) wal: Mutex<Option<Wal>>,
    /// Cancelled when the shutdown grace period expires; every evaluation
    /// carries a clone.
    pub(crate) cancel: CancelToken,
    pub(crate) inflight: AtomicUsize,
    /// Connections being served; the acceptor admits a connection only
    /// while this is below `max_conns`.
    pub(crate) active_conns: AtomicUsize,
    /// The metric surface every counter and span records into (see
    /// [`crate::metrics`]); `STATS` and `METRICS` read the same atomics.
    pub(crate) metrics: ServerMetrics,
    /// Startup recovery summary (present when a WAL was replayed).
    recovery: Option<Json>,
    /// Ring of recent `LimitTripped` events (as JSON), newest last.
    limit_events: Mutex<Vec<Json>>,
}

/// Capacity of the `limit_events` ring surfaced by `STATS`; evictions
/// beyond it are counted in `xdl_limit_events_dropped_total`.
const LIMIT_EVENT_RING: usize = 64;

impl ServerState {
    /// The metric surface (for `METRICS`, tests, and in-process drivers).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Build state from a config: an empty rule set and EDB, then — when a
    /// WAL directory is configured — the replay of snapshot + log.
    pub fn from_config(cfg: &ServerConfig) -> std::io::Result<ServerState> {
        let mut cfg = cfg.clone();
        cfg.max_conns = cfg.max_conns.max(1);
        let mut cache = PreparedCache::new(PREPARED_CAPACITY);
        cache.set_resident_capacity(cfg.resident_forms);
        let mut state = ServerState {
            rules: RwLock::new(Arc::new(RuleSet::new(Vec::new()))),
            db: SharedDatabase::new(),
            cache: Mutex::new(cache),
            last_trace: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            wal: Mutex::new(None),
            cancel: CancelToken::new(),
            inflight: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            metrics: ServerMetrics::new(),
            recovery: None,
            limit_events: Mutex::new(Vec::new()),
            cfg,
        };
        if let Some(dir) = state.cfg.wal_dir.clone() {
            let (mut wal, recovery) = Wal::open(
                &dir,
                FsyncPolicy::Always,
                state.cfg.compact_every,
                Arc::clone(&state.cfg.fault),
            )?;
            wal.set_metrics(
                Arc::clone(&state.metrics.wal_append_seconds),
                Arc::clone(&state.metrics.wal_fsync_seconds),
            );
            // The snapshot's records, then the log's, in the order they
            // were written. Everything here was admitted before it was
            // logged; `replay` does not admit it again.
            let (mut applied, mut skipped) = (0u64, 0u64);
            for op in recovery.ops {
                match state.replay(op) {
                    Ok(()) => applied += 1,
                    Err(_) => skipped += 1,
                }
            }
            state.recovery = Some(
                Json::obj()
                    .with("from_snapshot", recovery.from_snapshot)
                    .with("from_log", recovery.from_log)
                    .with("applied", applied)
                    .with("skipped", skipped)
                    .with("truncated_bytes", recovery.truncated_bytes),
            );
            *state.wal.get_mut().unwrap_or_else(|e| e.into_inner()) = Some(wal);
        }
        Ok(state)
    }

    /// Whether shutdown was requested.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Startup recovery summary, when a WAL was replayed.
    pub fn recovery(&self) -> Option<&Json> {
        self.recovery.as_ref()
    }

    /// Begin draining: refuse new work, give in-flight queries `grace_ms`,
    /// then cancel whatever is still running.
    pub(crate) fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.note_limit(
            "shutdown",
            &format!(
                "draining; in-flight queries get {}ms grace",
                self.cfg.grace_ms
            ),
        );
        let cancel = self.cancel.clone();
        let grace = Duration::from_millis(self.cfg.grace_ms);
        std::thread::spawn(move || {
            std::thread::sleep(grace);
            cancel.cancel();
        });
    }

    /// Record one limit trip in the event ring. Evictions are counted
    /// (`xdl_limit_events_dropped_total`), never silent.
    pub(crate) fn note_limit(&self, kind: &str, detail: &str) {
        let ev = PhaseEvent::LimitTripped {
            kind: kind.to_string(),
            detail: detail.to_string(),
        };
        let mut ring = lock(&self.limit_events);
        while ring.len() >= LIMIT_EVENT_RING {
            ring.remove(0);
            self.metrics.limit_events_dropped.inc();
        }
        ring.push(ev.to_json());
    }

    /// Handle one request with panic isolation: a panicking handler
    /// answers `ERR internal` and leaves the state serviceable (all lock
    /// accessors recover from poisoning). This is what the TCP loop calls.
    pub fn handle_safely(&self, req: &Request) -> Response {
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.handle(req))) {
            Ok(resp) => resp,
            Err(payload) => {
                self.metrics.panics_recovered.inc();
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                self.note_limit("panic", &msg);
                Response::err_code(
                    ErrCode::Internal,
                    format!("request handler panicked ({msg}); server continues"),
                )
            }
        }
    }

    /// Handle one request. Pure state-in/response-out — shared by the TCP
    /// loop, the tests, and the bench harness. Every request is counted
    /// and its end-to-end latency recorded under its verb.
    pub fn handle(&self, req: &Request) -> Response {
        let t0 = Instant::now();
        let resp = self.handle_inner(req);
        let verb = verb_index(req);
        self.metrics.requests_total[verb].inc();
        self.metrics.request_seconds[verb].record_duration(t0.elapsed());
        resp
    }

    fn handle_inner(&self, req: &Request) -> Response {
        if self.is_shutdown()
            && matches!(
                req,
                Request::Fact(_) | Request::Load(_) | Request::Query { .. }
            )
        {
            return Response::err_code(ErrCode::Shutdown, "server is draining");
        }
        match req {
            Request::Fact(text) => self.handle_fact(text),
            Request::Load(path) => self.handle_load(path),
            Request::Query { text } => self.handle_query(text),
            Request::Stats => self.handle_stats(),
            Request::Trace => self.handle_trace(),
            Request::Metrics { json } => self.handle_metrics(*json),
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ok().with_info("bye", true)
            }
        }
    }

    /// Convert a resource-limit trip into its coded `ERR` response, with
    /// the partial stats embedded, and record counters + trace event.
    pub(crate) fn limit_response(&self, e: &EngineError) -> Response {
        let (code, kind, counter) = match e {
            EngineError::DeadlineExceeded { .. } => {
                (ErrCode::Deadline, "deadline", &self.metrics.deadline_trips)
            }
            EngineError::BudgetExceeded { .. } => {
                (ErrCode::Budget, "budget", &self.metrics.budget_trips)
            }
            EngineError::IterationLimit { .. } => {
                (ErrCode::Budget, "iterations", &self.metrics.iteration_trips)
            }
            // Cancellation only comes from the shutdown drain.
            _ => (
                ErrCode::Shutdown,
                "shutdown",
                &self.metrics.cancelled_queries,
            ),
        };
        counter.inc();
        let stats = e.partial_stats().copied().unwrap_or_default();
        let detail = format!(
            "{e} (partial: iterations={} facts_derived={} tuples_scanned={})",
            stats.iterations, stats.facts_derived, stats.tuples_scanned
        );
        self.note_limit(kind, &detail);
        Response::err_code(code, detail)
    }

    /// The cardinality of every EDB predicate a form's bound polynomials
    /// mention, as `count` reports it for the base predicate.
    pub(crate) fn edb_cards(
        prepared: &PreparedProgram,
        count: impl Fn(&PredRef) -> usize,
    ) -> BTreeMap<String, u64> {
        let card = |p: &PredRef| (p.to_string(), count(&p.base()) as u64);
        prepared.bounds.edb.iter().map(card).collect()
    }

    /// Evaluate a prepared form's static derivation bound and join-cost
    /// hints against a snapshot's live EDB cardinalities. The bound is the
    /// admission ceiling (`ERR bound` when it exceeds the fact budget);
    /// the hints feed [`eval_opts`](ServerState::eval_opts).
    pub(crate) fn live_bound(
        prepared: &PreparedProgram,
        snapshot: &DbSnapshot,
    ) -> (u64, Arc<BTreeMap<String, u64>>) {
        let cards = Self::edb_cards(prepared, |p| snapshot.count(p));
        (
            prepared.bounds.eval_total(&cards),
            Arc::new(prepared.bounds.cost_hints(&cards)),
        )
    }

    fn handle_stats(&self) -> Response {
        self.metrics.sync_storage();
        let (rule_count, fingerprint) = {
            let g = read_lock(&self.rules);
            (g.rules.len(), g.fingerprint)
        };
        // Read before the cache lock: an ingest holds the log's lock across
        // its fsync and compaction, and queries must not wait behind that.
        let wal_doc = match lock(&self.wal).as_ref() {
            Some(wal) => Json::obj()
                .with("appended", wal.appended)
                .with("since_snapshot", wal.since_snapshot())
                .with("snapshots", wal.snapshots),
            None => Json::Null,
        };
        let cache = lock(&self.cache);
        // STATS reads the same atomics the METRICS registry renders — one
        // bookkeeping path, two readouts.
        let m = &self.metrics;
        let doc = Json::obj()
            .with("proto", PROTOCOL_VERSION)
            .with("rules", rule_count)
            .with("fingerprint", format!("{fingerprint:016x}"))
            .with("preds", self.db.pred_count())
            .with("facts", self.db.total_facts())
            .with("version", self.db.version())
            .with("queries", m.queries.get())
            .with("prepared_forms", cache.len())
            .with("prepared_hits", m.prepared_hits.get())
            .with("cache_misses", m.cache_misses.get())
            .with("answer_hits", m.answer_hits.get())
            .with("invalidations", m.invalidations.get())
            .with("resident_forms", cache.resident_count())
            .with(
                "incremental_applied_facts",
                m.incremental_applied_facts.get(),
            )
            .with("fallback_recomputes", m.fallback_recomputes.get())
            .with("resident_rebuilds", m.resident_rebuilds.get())
            .with("resident_poisonings", m.resident_poisonings.get())
            .with("covered_reads", m.covered_reads.get())
            .with("covered_retired", m.covered_retired.get())
            .with("max_conns", self.cfg.max_conns)
            .with("inflight", self.inflight.load(Ordering::Acquire) as u64)
            .with("shed_connections", m.shed_conns.get())
            .with("deadline_trips", m.deadline_trips.get())
            .with("budget_trips", m.budget_trips.get())
            .with("admission_rejected", m.admission_rejected.get())
            .with("iteration_trips", m.iteration_trips.get())
            .with("cancelled_queries", m.cancelled_queries.get())
            .with("panics_recovered", m.panics_recovered.get())
            .with("wal_errors", m.wal_errors.get())
            .with("faults_injected", self.cfg.fault.fired())
            .with(
                "storage",
                Json::obj().with("index_rebuilds", m.index_rebuilds.get()),
            )
            .with("wal", wal_doc)
            .with("recovery", self.recovery.clone().unwrap_or(Json::Null))
            .with("limit_events", Json::Arr(lock(&self.limit_events).clone()));
        Response::ok().with_payload_text(&doc.to_string())
    }

    /// `METRICS [JSON]`: scrape the registry. The point-in-time gauges
    /// (in-flight queries, live connections, fact and cache sizes) are
    /// sampled here rather than maintained on the hot path — a scrape is
    /// the only reader, so paying at scrape time keeps request handling
    /// free of gauge traffic.
    fn handle_metrics(&self, json: bool) -> Response {
        self.metrics.sync_storage();
        self.metrics
            .inflight
            .set(self.inflight.load(Ordering::Acquire) as i64);
        self.metrics
            .active_conns
            .set(self.active_conns.load(Ordering::Acquire) as i64);
        self.metrics.facts.set(self.db.total_facts() as i64);
        {
            let cache = lock(&self.cache);
            self.metrics.prepared_forms.set(cache.len() as i64);
            self.metrics
                .resident_forms
                .set(cache.resident_count() as i64);
        }
        let (format, body) = if json {
            ("json", self.metrics.to_json().to_string())
        } else {
            ("prometheus", self.metrics.render_prometheus())
        };
        Response::ok()
            .with_info("format", format)
            .with_payload_text(&body)
    }

    fn handle_trace(&self) -> Response {
        match &*lock(&self.last_trace) {
            Some(last) => Response::ok().with_payload_text(&last.to_json().to_string()),
            None => Response::err("no query has been evaluated yet"),
        }
    }
}

/// Render an answer set exactly as `xdl run` prints it: `true`/`false`
/// for boolean (zero-column) queries, otherwise the column header line
/// followed by the sorted rows.
pub fn render_answers(answers: &AnswerSet) -> String {
    match answers.as_bool() {
        Some(b) => format!("{b}\n"),
        None => answers.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(cfg: ServerConfig) -> ServerState {
        ServerState::from_config(&cfg).unwrap()
    }

    /// Unique-per-test temp dir, removed on drop (even on panic).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> TempDir {
            let p = std::env::temp_dir().join(format!(
                "xdl-server-{}-{name}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn render_matches_xdl_run_shapes() {
        let mut boolean = AnswerSet::default();
        assert_eq!(render_answers(&boolean), "false\n");
        boolean.rows.insert(vec![]);
        assert_eq!(render_answers(&boolean), "true\n");
        let mut unary = AnswerSet {
            columns: vec!["X".into()],
            rows: Default::default(),
        };
        unary.rows.insert(vec![datalog_ast::Value::int(1)]);
        unary.rows.insert(vec![datalog_ast::Value::int(2)]);
        assert_eq!(render_answers(&unary), "X\n1\n2\n");
    }

    #[test]
    fn state_rejects_idb_facts_and_bad_queries() {
        let state = state_with(ServerConfig::default());
        let dir = TempDir::new("idb");
        let file = dir.0.join("tc.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\n").unwrap();
        let resp = state.handle(&Request::Load(file.display().to_string()));
        assert!(resp.ok, "{}", resp.error);

        let resp = state.handle(&Request::Fact("a(1, 2).".into()));
        assert!(!resp.ok);
        assert!(resp.error.contains("derived by rules"), "{}", resp.error);

        let resp = state.handle(&Request::Fact("p(1, X).".into()));
        assert!(!resp.ok);
        assert!(resp.error.contains("not ground"), "{}", resp.error);

        let resp = state.handle(&Request::query("?- a(X, _"));
        assert!(!resp.ok);
        assert!(resp.error.starts_with("query:1:"), "{}", resp.error);

        let resp = state.handle(&Request::query("?- a(X, _)."));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.get("cache"), Some("miss"));
        assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1"]);
    }

    #[test]
    fn queries_over_two_files_that_disagree_report_the_rule_sets_error() {
        // Each LOAD validates its own file; the merged set is checked once,
        // when it changes, and every query over it reports that result.
        let state = state_with(ServerConfig::default());
        let dir = TempDir::new("disagree");
        for (name, text) in [
            ("one.dl", "a(X) :- p(X).\n"),
            ("two.dl", "b(X) :- p(X, X).\n"),
        ] {
            let file = dir.0.join(name);
            std::fs::write(&file, text).unwrap();
            assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        }
        for q in ["?- a(X).", "?- b(X).", "?- nosuch(X)."] {
            let resp = state.handle(&Request::query(q));
            assert_eq!(
                resp.error, "predicate p used with arity 2, expected 1",
                "{q}"
            );
        }
    }

    #[test]
    fn wal_state_recovers_facts_and_rules() {
        let dir = TempDir::new("walrec");
        let cfg = ServerConfig {
            wal_dir: Some(dir.0.clone()),
            ..ServerConfig::default()
        };
        let rules = dir.0.join("tc.dl");
        std::fs::write(
            &rules,
            "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n",
        )
        .unwrap();
        {
            let state = ServerState::from_config(&cfg).unwrap();
            assert!(state.handle(&Request::Load(rules.display().to_string())).ok);
            assert!(state.handle(&Request::Fact("p(1, 2).".into())).ok);
            assert!(state.handle(&Request::Fact("p(2, 3).".into())).ok);
            // No shutdown, no flush call: durability must not depend on a
            // clean exit.
        }
        let state = ServerState::from_config(&cfg).unwrap();
        let rec = state.recovery().expect("recovery info present");
        let rec = rec.to_string();
        assert!(rec.contains("\"applied\":4"), "{rec}");
        let resp = state.handle(&Request::query("?- a(1, X)."));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "2", "3"]);
    }

    #[test]
    fn query_deadline_returns_coded_error_and_is_not_memoized() {
        let dir = TempDir::new("deadline");
        let file = dir.0.join("path.dl");
        let mut text = String::from(
            "a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).\n\
             big(X, Y, Z, W) :- a(X, Y), a(Z, W).\n",
        );
        for i in 0..40 {
            for j in 0..40 {
                text.push_str(&format!("p({i}, {j}).\n"));
            }
        }
        std::fs::write(&file, &text).unwrap();
        let state = state_with(ServerConfig {
            deadline_ms: Some(5),
            ..ServerConfig::default()
        });
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        let resp = state.handle(&Request::query("?- big(1, X, Y, Z)."));
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrCode::Deadline), "{}", resp.error);
        assert!(resp.error.contains("partial:"), "{}", resp.error);
        // The trip is counted and the STATS doc shows it.
        let stats = state.handle(&Request::Stats);
        assert!(
            stats.payload_text().contains("\"deadline_trips\":1"),
            "{}",
            stats.payload_text()
        );
        assert!(
            stats.payload_text().contains("\"kind\":\"deadline\""),
            "limit event ring should hold the trip: {}",
            stats.payload_text()
        );
    }

    #[test]
    fn limit_event_ring_is_bounded_and_drops_are_counted() {
        let state = state_with(ServerConfig::default());
        for i in 0..LIMIT_EVENT_RING + 3 {
            state.note_limit("busy", &format!("event {i}"));
        }
        // The ring holds only the newest events...
        let ring = lock(&state.limit_events);
        assert_eq!(ring.len(), LIMIT_EVENT_RING);
        let held = Json::Arr(ring.clone()).to_string();
        drop(ring);
        let newest = LIMIT_EVENT_RING + 2;
        assert!(
            held.contains("event 3\"") && held.contains(&format!("event {newest}\"")),
            "{held}"
        );
        assert!(!held.contains("event 2\""), "{held}");
        // ...and the three evictions are visible as a metric, not silent.
        assert_eq!(state.metrics.limit_events_dropped.get(), 3);
        let scrape = state.metrics.render_prometheus();
        assert!(
            scrape.contains("xdl_limit_events_dropped_total 3"),
            "{scrape}"
        );
    }

    #[test]
    fn metrics_verb_renders_both_formats_and_samples_gauges() {
        let state = state_with(ServerConfig::default());
        let dir = TempDir::new("metrics-verb");
        let file = dir.0.join("tc.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\np(3, 4).\n").unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        assert!(state.handle(&Request::query("?- a(X, _).")).ok);

        let prom = state.handle(&Request::Metrics { json: false });
        assert!(prom.ok);
        assert_eq!(
            prom.info_map().get("format").map(String::as_str),
            Some("prometheus")
        );
        let text = prom.payload_text();
        assert!(
            text.contains("xdl_requests_total{verb=\"QUERY\"} 1"),
            "{text}"
        );
        // Gauges are sampled at scrape time from the live structures.
        assert!(text.contains("xdl_facts 2"), "{text}");
        assert!(text.contains("xdl_prepared_forms 1"), "{text}");

        let json = state.handle(&Request::Metrics { json: true });
        assert!(json.ok);
        assert_eq!(
            json.info_map().get("format").map(String::as_str),
            Some("json")
        );
        assert!(json.payload_text().contains("\"xdl_facts\""));
    }

    #[test]
    fn panic_in_handler_is_contained() {
        let fault = Arc::new(FaultPlan::new());
        let state = state_with(ServerConfig {
            fault: Arc::clone(&fault),
            ..ServerConfig::default()
        });
        let dir = TempDir::new("panic");
        let file = dir.0.join("tc.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\n").unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);

        fault.panic_on_query("a");
        let resp = state.handle_safely(&Request::query("?- a(X, _)."));
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrCode::Internal), "{}", resp.error);
        assert!(resp.error.contains("injected fault"), "{}", resp.error);

        // The fault is one-shot: the same query now succeeds, proving the
        // state survived the unwinding.
        let resp = state.handle_safely(&Request::query("?- a(X, _)."));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.payload_lines().collect::<Vec<_>>(), ["X", "1"]);
        let stats = state.handle(&Request::Stats);
        assert!(
            stats.payload_text().contains("\"panics_recovered\":1"),
            "{}",
            stats.payload_text()
        );
    }

    #[test]
    fn serving_path_defaults_to_reordered_joins() {
        // The prepared/serving path always wants the cheapest join order;
        // only `xdl run` keeps source order (for experiment counters).
        // Pin it so a regression here is loud.
        let state = state_with(ServerConfig::default());
        let opts = state.eval_opts(Instant::now(), Arc::new(BTreeMap::new()));
        assert!(opts.reorder_joins, "every served fixpoint reorders joins");
        assert!(!datalog_engine::EvalOptions::default().reorder_joins);
    }

    /// The tentpole identity: with resident forms enabled, every QUERY
    /// after every FACT batch must be byte-identical to the
    /// invalidate-and-recompute server.
    #[test]
    fn resident_serving_is_byte_identical_to_cold_recompute() {
        let run = |resident_forms: usize| -> Vec<String> {
            let state = ServerState::from_config(&ServerConfig {
                resident_forms,
                ..ServerConfig::default()
            })
            .unwrap();
            let dir = TempDir::new(&format!("res-{resident_forms}"));
            let file = dir.0.join("tc.dl");
            let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
            for i in 0..20 {
                src.push_str(&format!("p({}, {}).\n", i, (i * 3 + 1) % 20));
            }
            std::fs::write(&file, src).unwrap();
            assert!(state.handle(&Request::Load(file.display().to_string())).ok);
            let q = "?- a(X, _).";
            let first = state.handle(&Request::query(q));
            assert!(first.ok, "{}", first.error);
            assert_eq!(first.get("cache"), Some("miss"));
            let mut payloads = vec![first.payload_text()];
            for batch in 0..4u32 {
                for j in 0..3u32 {
                    let v = 100 + batch * 10 + j;
                    let resp = state.handle(&Request::Fact(format!("p({}, {}).", v, v + 1)));
                    assert!(resp.ok, "{}", resp.error);
                }
                let resp = state.handle(&Request::query(q));
                assert!(resp.ok, "{}", resp.error);
                if resident_forms > 0 {
                    assert_eq!(
                        resp.get("cache"),
                        Some("resident"),
                        "ingestion must propagate, not evict, the resident"
                    );
                }
                payloads.push(resp.payload_text());
            }
            payloads
        };
        assert_eq!(run(0), run(8), "resident must match recompute");
    }

    #[test]
    fn evicted_resident_falls_back_to_cold_and_repins() {
        // --resident-forms=1 with two eligible forms: each query of one
        // form evicts the other's resident, so the fallback counter
        // advances deterministically while answers stay correct.
        let state = ServerState::from_config(&ServerConfig {
            resident_forms: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = TempDir::new("fallback");
        let file = dir.0.join("two.dl");
        std::fs::write(
            &file,
            "a(X, Y) :- p(X, Y).\nb(X, Y) :- q(X, Y).\np(1, 2).\nq(3, 4).\n",
        )
        .unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        assert_eq!(
            state.handle(&Request::query("?- a(X, _).")).get("cache"),
            Some("miss")
        );
        assert_eq!(
            state.handle(&Request::query("?- b(X, _).")).get("cache"),
            Some("miss")
        );
        // Same forms, fresh constants (a memo hit would hide the resident
        // path): each finds its resident evicted by the other's pin.
        let resp = state.handle(&Request::query("?- a(1, _)."));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.get("cache"), Some("hit"), "fallback recomputes");
        assert_eq!(resp.payload_text(), "true\n");
        let resp = state.handle(&Request::query("?- b(3, _)."));
        assert_eq!(resp.get("cache"), Some("hit"));
        assert_eq!(resp.payload_text(), "true\n");
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(stats.contains("\"fallback_recomputes\":2"), "{stats}");
        assert!(stats.contains("\"resident_forms\":1"), "{stats}");
        // The fallback re-pinned: the same constant-query now serves from
        // the (re-)resident frontier.
        let resp = state.handle(&Request::query("?- b(4, _)."));
        assert_eq!(resp.get("cache"), Some("resident"));
        assert_eq!(resp.payload_text(), "false\n");
    }

    #[test]
    fn memo_watermarks_survive_unrelated_ingestion_without_residents() {
        // Satellite: with pinning disabled the seed behavior is intact —
        // memoized answers are validated against the per-relation
        // watermarks of the form's own EDB support set, so a fact for q
        // leaves the form over p serving from its memo slot.
        let state = ServerState::from_config(&ServerConfig {
            resident_forms: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = TempDir::new("memo-marks");
        let file = dir.0.join("two.dl");
        std::fs::write(
            &file,
            "a(X, Y) :- p(X, Y).\nb(X, Y) :- q(X, Y).\np(1, 2).\nq(3, 4).\n",
        )
        .unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        for q in ["?- a(X, _).", "?- b(X, _)."] {
            assert!(state.handle(&Request::query(q)).ok);
        }
        assert!(state.handle(&Request::Fact("q(5, 6).".into())).ok);
        assert_eq!(
            state.handle(&Request::query("?- a(X, _).")).get("cache"),
            Some("answers"),
            "a's support watermarks did not move"
        );
        assert_eq!(
            state.handle(&Request::query("?- b(X, _).")).get("cache"),
            Some("hit"),
            "b re-evaluates (and without residents never serves 'resident')"
        );
    }

    /// `STATS` and `METRICS` read one counter for prepared-form hits, so
    /// the hits of forms the prepared LRU has evicted stay in both.
    #[test]
    fn stats_and_metrics_agree_on_prepared_hits_past_eviction() {
        let state = state_with(ServerConfig {
            resident_forms: 0,
            ..ServerConfig::default()
        });
        let dir = TempDir::new("prepared-hits");
        let file = dir.0.join("w.dl");
        let vars = ["A", "B", "C", "D", "E", "F", "G", "H", "I"];
        let head = format!("w({})", vars.join(", "));
        let rule = format!(
            "{head} :- e({}).\ne(1, 2, 3, 4, 5, 6, 7, 8, 9).\n",
            vars.join(", ")
        );
        std::fs::write(&file, rule).unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        // Each wildcard pattern of the nine columns is its own form.
        let forms = PREPARED_CAPACITY as u32 + 44;
        for pattern in 0..forms {
            let terms: Vec<&str> = (0..vars.len())
                .map(|i| if pattern >> i & 1 == 1 { "_" } else { vars[i] })
                .collect();
            let q = format!("?- w({}).", terms.join(", "));
            for _ in 0..2 {
                let resp = state.handle(&Request::query(&q));
                assert!(resp.ok, "{q}: {}", resp.error);
            }
        }
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(
            stats.contains(&format!("\"prepared_forms\":{PREPARED_CAPACITY},")),
            "{stats}"
        );
        assert!(
            stats.contains(&format!("\"prepared_hits\":{forms},")),
            "{stats}"
        );
        let prom = state
            .handle(&Request::Metrics { json: false })
            .payload_text();
        assert!(
            prom.lines()
                .any(|l| l == format!("xdl_cache_events_total{{kind=\"prepared_hit\"}} {forms}")),
            "{prom}"
        );
    }

    #[test]
    fn poisoned_resident_rebuilds_lazily_without_restart() {
        // A failing drain poisons the resident; with no background loop
        // the next eligible QUERY must rebuild and re-pin it (counted as a
        // rebuild), not fall back forever.
        let fault = Arc::new(FaultPlan::new());
        let state = ServerState::from_config(&ServerConfig {
            resident_forms: 8,
            fault: Arc::clone(&fault),
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = TempDir::new("poison-lazy");
        let file = dir.0.join("s.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\n").unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        let q = "?- a(X, _).";
        assert!(state.handle(&Request::query(q)).ok);
        fault.fail_drains(1);
        // The inline ingest-side drain hits the armed fault and poisons
        // the form.
        assert!(state.handle(&Request::Fact("p(3, 4).".into())).ok);
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(stats.contains("\"resident_poisonings\":1"), "{stats}");
        assert!(stats.contains("\"resident_forms\":0"), "{stats}");
        // Next query: cold recompute, correct answers, resident re-pinned.
        let resp = state.handle(&Request::query(q));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.get("cache"), Some("hit"));
        assert_eq!(resp.payload_text(), "X\n1\n3\n");
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(stats.contains("\"resident_rebuilds\":1"), "{stats}");
        assert!(stats.contains("\"resident_forms\":1"), "{stats}");
        // And the healed resident serves (fresh constants dodge the memo).
        let resp = state.handle(&Request::query("?- a(3, _)."));
        assert_eq!(resp.get("cache"), Some("resident"));
        assert_eq!(resp.payload_text(), "true\n");
    }

    #[test]
    fn draining_state_refuses_new_work_with_shutdown_code() {
        let state = state_with(ServerConfig::default());
        assert!(state.handle(&Request::Shutdown).ok);
        let resp = state.handle(&Request::query("?- a(X)."));
        assert_eq!(resp.code, Some(ErrCode::Shutdown), "{}", resp.error);
        let resp = state.handle(&Request::Fact("p(1).".into()));
        assert_eq!(resp.code, Some(ErrCode::Shutdown), "{}", resp.error);
        // STATS still answers during the drain.
        assert!(state.handle(&Request::Stats).ok);
    }
}
