//! The server: shared state, request dispatch, `STATS`/`METRICS`/`TRACE`,
//! WAL compaction and the accept loop. `QUERY` runs through the staged
//! pipeline in `query.rs`, `FACT`/`LOAD` through `ingest.rs`, and resident
//! forms are drained and rebuilt by `maintain.rs`.
//!
//! N worker threads block in `accept()` on one shared listener; each
//! connection is served to completion by the worker that accepted it, so
//! the server handles up to N concurrent clients. All workers share one
//! [`ServerState`]:
//!
//! * the rule set (plus its fingerprint), guarded by an `RwLock` — queries
//!   read it, `LOAD` extends it;
//! * the EDB in a [`SharedDatabase`]: writers ingest while readers evaluate
//!   against [`DbSnapshot`](datalog_engine::DbSnapshot)s, never blocking
//!   each other beyond per-access row locks;
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
//!   `FACT`/`LOAD` is logged (and fsynced per policy) *before* it is
//!   applied and acknowledged; startup replays snapshot + log ([`crate::wal`]).
//! * **Deadlines & budgets** — each query evaluates under the configured
//!   wall-clock deadline, derived-fact budget, and the server's global
//!   [`CancelToken`]; a trip returns a coded `ERR` carrying the partial
//!   [`EvalStats`](datalog_engine::EvalStats), and the tripped result is
//!   **not** memoized.
//! * **Overload control** — a connection limit sheds excess accepts with
//!   `ERR busy`, and a global in-flight query budget sheds excess `QUERY`s
//!   before they touch the evaluator.
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
//! With `--resident-forms=N` (default 8) up to N monotone forms keep their
//! fixpoint resident and absorb ingested facts as deltas; `QUERY` takes a
//! consistency mode (`fresh` | `staleness=<ms>` | `any`) and every
//! response carries `frontier=` and `staleness_us=`. The states a form
//! moves through are [`cache::Residency`](crate::cache::Residency); who
//! moves it, under which lock, is `maintain.rs`'s module docs.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use datalog_ast::{PredRef, Program, Rule, Value};
use datalog_engine::{AnswerSet, CancelToken, DbSnapshot, EngineError, SharedDatabase};
use datalog_opt::{fingerprint_rules, PreparedProgram};
use datalog_trace::{Json, PhaseEvent};

use crate::cache::{PreparedCache, ResidentForm, PREPARED_CAPACITY};
use crate::fault::FaultPlan;
use crate::metrics::{verb_index, ServerMetrics};
use crate::protocol::{ErrCode, Request, Response, MAX_REQUEST_LINE, PROTOCOL_VERSION};
use crate::query::LastQuery;
use crate::wal::{FsyncPolicy, RunBatch, Wal, WalOp};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of worker threads (= max concurrent clients).
    pub threads: usize,
    /// Evaluation threads per query (the engine's fixpoint fan-out).
    /// Results are byte-identical at any value; the default honors the
    /// `XDL_EVAL_THREADS` environment variable and falls back to the
    /// machine's available parallelism.
    pub eval_threads: usize,
    /// Forms allowed to pin resident incremental state
    /// (`--resident-forms`; 0 disables pinning entirely and restores the
    /// invalidate-and-recompute serving behavior).
    pub resident_forms: usize,
    /// Run translation validation on every optimizer invocation
    /// (`OptimizerConfig::verify`): a query whose optimization cannot be
    /// re-justified is answered with an error instead of a wrong table.
    pub verify: bool,
    /// WAL directory; `None` runs without durability (the seed behavior).
    pub wal_dir: Option<PathBuf>,
    /// When to fsync the WAL.
    pub fsync: FsyncPolicy,
    /// Snapshot + truncate the log after this many appended records
    /// (0 disables compaction).
    pub compact_every: u64,
    /// Connections served concurrently before new accepts are shed with
    /// `ERR busy` (0 = no limit). Shedding needs an idle worker to issue
    /// the refusal, so a cap below `threads` is what makes it observable.
    pub max_conns: usize,
    /// Queries evaluating at once across all connections before `QUERY`
    /// is shed with `ERR busy` (0 = no limit).
    pub max_inflight: usize,
    /// Per-query wall-clock deadline.
    pub deadline_ms: Option<u64>,
    /// Per-query derived-fact budget.
    pub fact_budget: Option<u64>,
    /// Bound-aware admission (on by default, only meaningful with a
    /// `fact_budget`): refuse a query with `ERR bound` *before* evaluation
    /// when its static derivation bound, evaluated at current EDB
    /// cardinalities, already exceeds the budget. Off restores
    /// trip-at-runtime (`ERR budget` with partial stats).
    pub bound_admission: bool,
    /// Shutdown drain: how long in-flight queries may keep running before
    /// the global cancel token fires.
    pub grace_ms: u64,
    /// Telemetry histograms on (`true`, the default) or the no-op baseline
    /// (`--no-metrics`; counters still record, histograms stop sampling —
    /// the comparison the e13 overhead experiment makes).
    pub metrics: bool,
    /// Log a structured JSON line to stderr for every query at or over
    /// this wall-clock threshold (request id, form, phase breakdown).
    pub slow_query_ms: Option<u64>,
    /// Backpressure threshold for resident drains: a drain whose
    /// bound-polynomial-estimated cost (static derivation bound at current
    /// cardinalities minus the bound at the form's applied watermarks) is
    /// at or below this runs synchronously on the ingest/query path;
    /// anything costlier is deferred to the maintenance thread while
    /// readers serve off the published frontier. The default is high
    /// enough that typical workloads keep today's drain-inline behavior.
    pub drain_sync_cost: u64,
    /// Base delay of the capped exponential backoff between background
    /// rebuild attempts of a poisoned resident form (doubles per failed
    /// attempt, capped at [`REBUILD_BACKOFF_CAP_MS`]).
    pub rebuild_ms: u64,
    /// Fault-injection switches (the default plan injects nothing).
    pub fault: Arc<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            eval_threads: std::env::var("XDL_EVAL_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(default_parallelism),
            resident_forms: 8,
            verify: false,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            compact_every: 4096,
            max_conns: 0,
            max_inflight: 0,
            deadline_ms: None,
            fact_budget: None,
            bound_admission: true,
            grace_ms: 2000,
            metrics: true,
            slow_query_ms: None,
            drain_sync_cost: DRAIN_SYNC_COST,
            rebuild_ms: 50,
            fault: Arc::new(FaultPlan::new()),
        }
    }
}

/// Default `drain_sync_cost`: high enough that ordinary ingest keeps the
/// synchronous drain path (and its latency envelope) of PR 7.
const DRAIN_SYNC_COST: u64 = 250_000;

/// The machine's available parallelism (1 when it cannot be determined).
fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

/// Everything the worker threads share.
pub struct ServerState {
    /// The configuration, normalized once by [`ServerState::from_config`]
    /// (thread counts and the rebuild backoff are at least 1).
    pub(crate) cfg: ServerConfig,
    /// Replaced whole by a `LOAD` that adds rules; a query clones the
    /// handle and reads it without the lock.
    pub(crate) rules: RwLock<Arc<RuleSet>>,
    pub(crate) db: SharedDatabase,
    pub(crate) cache: Mutex<PreparedCache>,
    pub(crate) last_trace: Mutex<Option<LastQuery>>,
    shutdown: AtomicBool,
    /// The write-ahead log, when durability is configured.
    wal: Mutex<Option<Wal>>,
    /// Ingest/compaction coordination: ingests hold a read guard across
    /// (WAL append + DB apply), compaction holds the write guard across
    /// (state snapshot + log truncate), so the snapshot can never miss a
    /// record the truncation discards.
    pub(crate) ingest_gate: RwLock<()>,
    /// Cancelled when the shutdown grace period expires; every evaluation
    /// carries a clone.
    pub(crate) cancel: CancelToken,
    /// The maintenance thread's wake-up handle. Unset until
    /// [`ServerState::start_maintenance`] — deferred work is then picked
    /// up lazily by the next eligible query.
    pub(crate) maintenance: OnceLock<Thread>,
    pub(crate) inflight: AtomicUsize,
    active_conns: AtomicUsize,
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
        cfg.threads = cfg.threads.max(1);
        cfg.eval_threads = cfg.eval_threads.max(1);
        cfg.rebuild_ms = cfg.rebuild_ms.max(1);
        let mut cache = PreparedCache::new(PREPARED_CAPACITY);
        cache.set_resident_capacity(cfg.resident_forms);
        let mut state = ServerState {
            rules: RwLock::new(Arc::new(RuleSet::new(Vec::new()))),
            db: SharedDatabase::new(),
            cache: Mutex::new(cache),
            last_trace: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            wal: Mutex::new(None),
            ingest_gate: RwLock::new(()),
            cancel: CancelToken::new(),
            maintenance: OnceLock::new(),
            inflight: AtomicUsize::new(0),
            active_conns: AtomicUsize::new(0),
            metrics: ServerMetrics::new(cfg.metrics),
            recovery: None,
            limit_events: Mutex::new(Vec::new()),
            cfg,
        };
        if let Some(dir) = state.cfg.wal_dir.clone() {
            let (mut wal, mut recovery) = Wal::open(
                &dir,
                state.cfg.fsync,
                state.cfg.compact_every,
                Arc::clone(&state.cfg.fault),
            )?;
            wal.set_metrics(
                Arc::clone(&state.metrics.wal_append_seconds),
                Arc::clone(&state.metrics.wal_fsync_seconds),
            );
            let mut applied = 0u64;
            let mut skipped = 0u64;
            // Manifest recovery: rules, then each run file bulk-loaded —
            // one order-preserving sort-dedup per batch instead of per-row
            // parsing and hashing — then the log tail replayed on top, in
            // the order it was written. Everything here was admitted before
            // it was logged; `replay` does not admit it again.
            for rule in &recovery.rules {
                match state.replay(&WalOp::Rule(rule.clone())) {
                    Ok(()) => applied += 1,
                    Err(_) => skipped += 1,
                }
            }
            let mut batch_rows = 0u64;
            for batch in std::mem::take(&mut recovery.batches) {
                let pred = PredRef::new(&batch.pred);
                match state.db.load_batch(&pred, batch.arity, batch.rows) {
                    Ok(fresh) => batch_rows += fresh as u64,
                    Err(_) => skipped += 1,
                }
            }
            for op in &recovery.ops {
                match state.replay(op) {
                    Ok(()) => applied += 1,
                    Err(_) => skipped += 1,
                }
            }
            state.recovery = Some(
                Json::obj()
                    .with("run_files", recovery.run_files)
                    .with("lost_run_files", recovery.lost_run_files)
                    .with("run_rows", recovery.run_rows)
                    .with("batch_rows", batch_rows)
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
    fn begin_shutdown(&self) {
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
            Request::Query { text, consistency } => self.handle_query(text, *consistency),
            Request::Stats => self.handle_stats(),
            Request::Trace => self.handle_trace(),
            Request::Metrics { json } => self.handle_metrics(*json),
            Request::Shutdown => {
                self.begin_shutdown();
                Response::ok().with_info("bye", true)
            }
        }
    }

    /// Append accepted operations to the WAL (no-op without one). On
    /// failure the caller must not apply or acknowledge them. The caller
    /// holds the ingest gate (read).
    pub(crate) fn wal_append(&self, ops: &[WalOp]) -> Result<(), Response> {
        let mut guard = lock(&self.wal);
        let Some(wal) = guard.as_mut() else {
            return Ok(());
        };
        for op in ops {
            if let Err(e) = wal.append(op) {
                self.metrics.wal_errors.inc();
                return Err(Response::err_code(
                    ErrCode::Internal,
                    format!("wal append failed ({e}); write not applied"),
                ));
            }
        }
        Ok(())
    }

    /// Snapshot + truncate the log if enough records accumulated. Takes
    /// the ingest gate exclusively, so no in-flight ingest can sit between
    /// its WAL record and its DB apply while the state is snapshotted.
    pub(crate) fn maybe_compact(&self) {
        {
            let guard = lock(&self.wal);
            match guard.as_ref() {
                Some(wal) if wal.wants_compaction() => {}
                _ => return,
            }
        }
        let _gate = write_lock(&self.ingest_gate);
        let (rules, batches) = self.state_batches();
        let mut guard = lock(&self.wal);
        if let Some(wal) = guard.as_mut() {
            if wal.wants_compaction() {
                let t0 = Instant::now();
                if wal.compact(&rules, &batches).is_err() {
                    // The log stays; durability is unaffected, only restart
                    // cost. Count it and move on.
                    self.metrics.wal_errors.inc();
                } else {
                    self.metrics
                        .compaction_seconds
                        .record_duration(t0.elapsed());
                }
            }
        }
    }

    /// The full current state as manifest material: rule texts plus one
    /// [`RunBatch`] per stored predicate (rows in ingestion order, so a
    /// restart rebuilds identical row ids).
    fn state_batches(&self) -> (Vec<String>, Vec<RunBatch>) {
        let rules: Vec<String> = read_lock(&self.rules)
            .rules
            .iter()
            .map(|r| r.to_string())
            .collect();
        let snapshot = self.db.snapshot();
        let mut batches = Vec::new();
        for pred in snapshot.preds() {
            let rows: Vec<Box<[Value]>> = snapshot
                .rows(&pred)
                .into_iter()
                .map(Vec::into_boxed_slice)
                .collect();
            if rows.is_empty() {
                continue;
            }
            batches.push(RunBatch {
                pred: pred.to_string(),
                arity: rows[0].len(),
                rows,
            });
        }
        (rules, batches)
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

    /// Total sealed storage runs across the shared EDB and every resident
    /// form's saturated database. Residents are sampled with `try_lock` —
    /// a form mid-drain is skipped rather than blocking the scrape (the
    /// gauge is a point-in-time sample either way).
    fn storage_run_total(&self) -> u64 {
        let mut runs = self.db.storage_runs() as u64;
        let residents: Vec<Arc<Mutex<ResidentForm>>> = {
            let mut cache = lock(&self.cache);
            cache
                .iter_mut()
                .filter_map(|(_, e)| e.live_form().map(Arc::clone))
                .collect()
        };
        for form in residents {
            if let Ok(g) = form.try_lock() {
                runs += g.eval.storage_runs() as u64;
            }
        }
        runs
    }

    fn handle_stats(&self) -> Response {
        self.metrics.sync_storage(self.storage_run_total());
        let (rule_count, fingerprint) = {
            let g = read_lock(&self.rules);
            (g.rules.len(), g.fingerprint)
        };
        let cache = lock(&self.cache);
        let wal_doc = {
            let guard = lock(&self.wal);
            match guard.as_ref() {
                Some(wal) => Json::obj()
                    .with("appended", wal.appended)
                    .with("since_snapshot", wal.since_snapshot())
                    .with("snapshots", wal.snapshots),
                None => Json::Null,
            }
        };
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
            .with("prepared_hits", cache.total_hits())
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
            .with("stale_serves", m.stale_serves.get())
            .with("stale_refusals", m.stale_refusals.get())
            .with("background_drains", m.background_drains.get())
            .with("threads", self.cfg.threads)
            .with("inflight", self.inflight.load(Ordering::Acquire) as u64)
            .with("shed_connections", m.shed_conns.get())
            .with("shed_queries", m.shed_queries.get())
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
                Json::obj()
                    .with("runs", m.storage_runs.get() as u64)
                    .with("bloom_probes", m.bloom_probes.get())
                    .with("bloom_skips", m.bloom_skips.get())
                    .with("consolidations", m.storage_consolidations.get())
                    .with("index_rebuilds", m.index_rebuilds.get()),
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
        self.metrics.sync_storage(self.storage_run_total());
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

/// A running server: listener address plus worker threads.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start the worker threads, recovering from the WAL first
    /// when one is configured. Returns once the listener is accepting (the
    /// bound address is available immediately, which is what tests and the
    /// smoke script poll for).
    pub fn spawn(cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let addr = listener.local_addr()?;
        let threads = cfg.threads.max(1);
        let state = Arc::new(ServerState::from_config(cfg)?);
        let listener = Arc::new(listener);
        let mut workers: Vec<JoinHandle<()>> = (0..threads)
            .map(|_| {
                let listener = Arc::clone(&listener);
                let state = Arc::clone(&state);
                std::thread::spawn(move || accept_loop(&listener, &state))
            })
            .collect();
        // Background maintenance (deferred drains, rebuild backoff) rides
        // in the same worker pool lifecycle: joined on shutdown.
        if let Some(h) = state.start_maintenance() {
            workers.push(h);
        }
        Ok(Server {
            addr,
            state,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state handle (for in-process drivers like the bench harness).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Request a draining shutdown and wake any accept-blocked workers.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
        for _ in 0..self.workers.len() {
            // One nudge per worker: a throwaway connection unblocks accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Block until every worker has exited (i.e. shutdown was requested and
    /// in-flight connections drained).
    pub fn join(self) {
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        if state.is_shutdown() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if state.is_shutdown() {
                    return;
                }
                let active = state.active_conns.fetch_add(1, Ordering::AcqRel) + 1;
                if state.cfg.max_conns > 0 && active > state.cfg.max_conns {
                    state.active_conns.fetch_sub(1, Ordering::AcqRel);
                    state.metrics.shed_conns.inc();
                    state.note_limit(
                        "busy",
                        &format!("connection shed at limit {}", state.cfg.max_conns),
                    );
                    shed_connection(stream);
                    continue;
                }
                serve_connection(stream, state);
                state.active_conns.fetch_sub(1, Ordering::AcqRel);
            }
            Err(_) => {
                if state.is_shutdown() {
                    return;
                }
            }
        }
    }
}

/// Refuse a connection over the limit: one coded line, then close. The
/// client sees `ERR busy ...` instead of an unexplained hang in the
/// accept queue.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let resp = Response::err_code(ErrCode::Busy, "connection limit reached, retry later");
    let mut buf = Vec::with_capacity(64);
    let _ = resp.write_to(&mut buf);
    let _ = stream.write_all(&buf);
}

/// How long a worker waits on an idle client before it looks at the
/// shutdown flag again.
const READ_TIMEOUT: Duration = Duration::from_millis(200);

/// How long a response write may make no progress before the connection
/// is closed: a worker is also a connection slot, and a client that
/// stopped reading must not hold one forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Serve one client until it disconnects, errors, stops reading, or the
/// server shuts down. A short read timeout lets the worker notice shutdown
/// while a client idles; a request line that arrives in pieces across
/// timeouts is kept and completed, and one longer than
/// [`MAX_REQUEST_LINE`] is answered with one `ERR` and the connection
/// closed.
fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    // Responses are written as one buffered chunk; without TCP_NODELAY the
    // line-per-write pattern would stall ~40ms per exchange on loopback
    // (Nagle vs. delayed ACK).
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Bytes, not a `String`: a timeout may split a multi-byte character.
    let mut line: Vec<u8> = Vec::new();
    loop {
        // `line` holds at most the limit here, so there is room for at
        // least the one byte that proves a line over-long.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {}
            // `read_until` keeps what it read before the error: the next
            // round appends the rest of the line.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if state.is_shutdown() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_LINE {
            let resp = Response::err(format!(
                "request line exceeds {MAX_REQUEST_LINE} bytes; closing connection"
            ));
            let _ = write_buffered(&resp, &mut writer);
            return;
        }
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            line.clear();
            continue;
        }
        let resp = match Request::parse(trimmed) {
            Ok(req) => {
                let resp = state.handle_safely(&req);
                if req == Request::Shutdown {
                    let _ = write_buffered(&resp, &mut writer);
                    // Wake every accept()-blocked worker so join() returns.
                    // The accepted stream's local address IS the listening
                    // address, so a throwaway connection per worker suffices.
                    if let Ok(addr) = writer.local_addr() {
                        for _ in 0..state.cfg.threads {
                            let _ = TcpStream::connect(addr);
                        }
                    }
                    return;
                }
                resp
            }
            Err(msg) => Response::err(msg),
        };
        line.clear();
        if write_buffered(&resp, &mut writer).is_err() {
            return;
        }
        // Draining: this request got its complete response; the connection
        // closes so the worker can exit.
        if state.is_shutdown() {
            return;
        }
    }
}

/// Serialize the whole response into one buffer and send it with a single
/// `write_all`, so a multi-line payload costs one packet, not one per line.
fn write_buffered(resp: &Response, writer: &mut TcpStream) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(256);
    resp.write_to(&mut buf)?;
    writer.write_all(&buf)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Consistency;

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
        assert_eq!(resp.payload, vec!["X", "1"]);
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
        assert_eq!(resp.payload, vec!["X", "2", "3"]);
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
    fn shed_query_at_inflight_budget_zero_means_unlimited() {
        let state = state_with(ServerConfig::default());
        // max_inflight == 0: a query is admitted (and fails on substance,
        // not on admission).
        let resp = state.handle(&Request::query("?- nosuch(X)."));
        assert!(resp.code.is_none(), "{}", resp.error);
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
        assert_eq!(resp.payload, vec!["X", "1"]);
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

    #[test]
    fn queries_parallel_and_serial_agree_byte_for_byte() {
        let answers_at = |threads: usize| {
            let state = ServerState::from_config(&ServerConfig {
                eval_threads: threads,
                ..ServerConfig::default()
            })
            .unwrap();
            let dir = TempDir::new(&format!("par{threads}"));
            let file = dir.0.join("tc.dl");
            let mut src = String::from("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n");
            for i in 0..40 {
                src.push_str(&format!("p({}, {}).\n", i, (i * 7 + 3) % 40));
            }
            std::fs::write(&file, src).unwrap();
            assert!(state.handle(&Request::Load(file.display().to_string())).ok);
            let resp = state.handle(&Request::query("?- a(X, _)."));
            assert!(resp.ok, "{}", resp.error);
            resp.payload_text()
        };
        let serial = answers_at(1);
        assert_eq!(
            serial,
            answers_at(4),
            "server answers must not depend on eval_threads"
        );
    }

    #[test]
    fn eval_threads_default_to_available_parallelism() {
        // Satellite: an unconfigured server should use the machine, not a
        // hardcoded 1. Computed from the environment at runtime (tests run
        // in parallel; mutating the env here would race).
        let expected = std::env::var("XDL_EVAL_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        assert_eq!(ServerConfig::default().eval_threads, expected);
        let state = ServerState::from_config(&ServerConfig::default()).unwrap();
        assert_eq!(state.cfg.eval_threads, expected.max(1));
    }

    /// The tentpole identity: with resident forms enabled, every QUERY
    /// after every FACT batch must be byte-identical to the
    /// invalidate-and-recompute server — at 1 and at 4 eval threads.
    #[test]
    fn resident_serving_is_byte_identical_to_cold_recompute() {
        let run = |eval_threads: usize, resident_forms: usize| -> Vec<String> {
            let state = ServerState::from_config(&ServerConfig {
                eval_threads,
                resident_forms,
                ..ServerConfig::default()
            })
            .unwrap();
            let dir = TempDir::new(&format!("res-{eval_threads}-{resident_forms}"));
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
        let cold = run(1, 0);
        assert_eq!(cold, run(1, 8), "resident must match recompute");
        assert_eq!(cold, run(4, 8), "and be thread-count independent");
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

    #[test]
    fn deferred_drains_serve_stale_with_a_bound_and_fresh_catches_up() {
        // `drain_sync_cost: 0` forces every ingest-side drain to defer; no
        // maintenance thread runs on a plain state, so the lag sits until
        // a reader resolves it.
        let state = ServerState::from_config(&ServerConfig {
            resident_forms: 8,
            drain_sync_cost: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = TempDir::new("stale-defer");
        let file = dir.0.join("s.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\n").unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        let q = "?- a(X, _).";
        let first = state.handle(&Request::query(q));
        assert_eq!(first.get("cache"), Some("miss"));
        assert_eq!(first.get("staleness_us"), Some("0"));
        let frontier_v1 = first.get("frontier").unwrap().to_string();
        assert!(state.handle(&Request::Fact("p(3, 4).".into())).ok);
        // `any` reads the published frontier: the old payload, a non-zero
        // staleness bound, and the pre-ingest frontier version.
        let stale = state.handle(&Request::Query {
            text: q.into(),
            consistency: Consistency::Any,
        });
        assert!(stale.ok, "{}", stale.error);
        assert_eq!(stale.get("cache"), Some("stale"));
        assert_eq!(stale.payload_text(), first.payload_text());
        assert_eq!(stale.get("frontier"), Some(frontier_v1.as_str()));
        let bound_us: u64 = stale.get("staleness_us").unwrap().parse().unwrap();
        assert!(bound_us > 0, "lagging serve must report a bound");
        // A generous budget also serves stale; the bound never shrinks
        // below the true lag age.
        let bounded = state.handle(&Request::Query {
            text: q.into(),
            consistency: Consistency::Bounded(60_000),
        });
        assert_eq!(bounded.get("cache"), Some("stale"));
        // `fresh` (the default) catches up synchronously regardless of
        // drain cost and is byte-identical to a cold recompute.
        let fresh = state.handle(&Request::query(q));
        assert!(fresh.ok, "{}", fresh.error);
        assert_eq!(fresh.get("cache"), Some("resident"));
        assert_eq!(fresh.get("staleness_us"), Some("0"));
        assert_eq!(fresh.payload_text(), "X\n1\n3\n");
        assert_ne!(fresh.get("frontier"), Some(frontier_v1.as_str()));
        // Fully drained again: a bounded read is indistinguishable from
        // fresh and reports staleness zero.
        let drained = state.handle(&Request::Query {
            text: q.into(),
            consistency: Consistency::Any,
        });
        assert_eq!(drained.get("staleness_us"), Some("0"));
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(stats.contains("\"stale_serves\":2"), "{stats}");
    }

    #[test]
    fn over_budget_bounded_reads_refuse_with_the_stale_code() {
        let state = ServerState::from_config(&ServerConfig {
            resident_forms: 8,
            drain_sync_cost: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        let dir = TempDir::new("stale-refuse");
        let file = dir.0.join("s.dl");
        std::fs::write(&file, "a(X, Y) :- p(X, Y).\np(1, 2).\n").unwrap();
        assert!(state.handle(&Request::Load(file.display().to_string())).ok);
        let q = "?- a(X, _).";
        assert!(state.handle(&Request::query(q)).ok);
        assert!(state.handle(&Request::Fact("p(3, 4).".into())).ok);
        std::thread::sleep(Duration::from_millis(15));
        // 15ms of lag against a 1ms budget, with synchronous catch-up
        // priced out: the only honest answer is a refusal carrying the
        // current bound.
        let resp = state.handle(&Request::Query {
            text: q.into(),
            consistency: Consistency::Bounded(1),
        });
        assert!(!resp.ok);
        assert_eq!(resp.code, Some(ErrCode::Stale), "{}", resp.error);
        let bound = resp.stale_bound_ms().expect("refusal carries its bound");
        assert!(bound >= 10, "bound {bound}ms must reflect the real lag");
        // The same read with mode fresh still succeeds (sync catch-up is
        // mandatory there), proving the refusal is budget-driven.
        let fresh = state.handle(&Request::query(q));
        assert!(fresh.ok, "{}", fresh.error);
        assert_eq!(fresh.payload_text(), "X\n1\n3\n");
        let stats = state.handle(&Request::Stats).payload_text();
        assert!(stats.contains("\"stale_refusals\":1"), "{stats}");
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
