//! The query pipeline: one `QUERY` from request text to response.
//!
//! | stage | hand-off | span | lock held |
//! |---|---|---|---|
//! | [`resolve`](ServerState::resolve) | [`QueryCtx`] | parse | rules (read), briefly |
//! | [`choose_source`](ServerState::choose_source) | [`Source`] | cache | cache — across the optimizer on a miss |
//! | [`serve_resident`](ServerState::serve_resident) | [`Served`] | cache | form, then cache to memoize |
//! | [`serve_cold`](ServerState::serve_cold) | [`Served`] | eval, serialize | none while evaluating; cache to memoize and pin |
//! | [`respond`](ServerState::respond) | `Response` | — | `last_trace` |
//!
//! Lock order is cache → form, and a stage never *blocks* on a form lock
//! while it holds the cache lock: `choose_source` decides from the
//! cache-side mirror (`applied_mirror`, `pending_since`) and hands the form
//! handle out; the serve stages lock it after the cache lock has dropped.
//!
//! `respond` is the only place a QUERY `OK` header, a phase span, the
//! `TRACE` document, a slow-query line and a `staleness_bound_seconds`
//! sample are produced, so all six `cache=` sources answer with the same
//! header and move the same histograms. A query that ends in `ERR` records
//! no phase span; its own counter (trip, refusal, shed) is the record.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

use datalog_adorn::query_adornment;
use datalog_ast::{parse_program, Adornment, Atom, PredRef, Program, Query};
use datalog_engine::incremental::ResidentEval;
use datalog_engine::{
    query_answers_full, DbSnapshot, EngineError, EvalOptions, EvalStats, FactSet,
};
use datalog_opt::{prepare, OptimizerConfig, PreparedProgram};
use datalog_trace::Json;

use crate::cache::{CachedAnswers, Entry, FormKey, Rendered, ResidentForm};
use crate::metrics::{Phase, PHASES};
use crate::protocol::{Consistency, ErrCode, Response};
use crate::server::{lock, read_lock, render_answers, Decrement, DrainJob, ServerState};

/// A resolved query: everything the later stages read, fixed before the
/// cache is consulted.
pub(crate) struct QueryCtx {
    started: Instant,
    /// One id per admitted query; it appears in the slow-query log so a
    /// line on stderr can be correlated with client-side observations.
    req_id: u64,
    key: FormKey,
    query: Query,
    /// Rendered query atom: column names and constants matter for
    /// byte-identity of a memoized payload, not just the form.
    query_repr: String,
    /// The rule set with the query attached (what a cold miss optimizes).
    program: Program,
    adornment: Adornment,
    /// Taken before the answer slot is consulted: ingestion inserts first
    /// and invalidates after, so a slot whose watermarks still match this
    /// snapshot cannot be stale.
    snapshot: DbSnapshot,
    /// Staleness anchor for everything served off `snapshot`.
    t_snap: Instant,
    d_parse: Duration,
    t_cache: Instant,
    consistency: Consistency,
}

impl QueryCtx {
    /// The answer slot for `table`, valid while `watermarks` hold.
    fn slot(
        &self,
        table: &Rendered,
        watermarks: Vec<(PredRef, usize)>,
        published_at: Instant,
        stale: bool,
    ) -> CachedAnswers {
        CachedAnswers {
            query_repr: self.query_repr.clone(),
            watermarks,
            table: table.clone(),
            published_at,
            stale,
        }
    }
}

/// Where a query's answer comes from, decided under the cache lock.
pub(crate) enum Source {
    /// The answer slot matches this query at this snapshot's watermarks.
    Memo(Served),
    /// The form has live resident state.
    Resident(ResidentPlan),
    /// Evaluate from the snapshot.
    Cold(ColdPlan),
}

/// How to serve live resident state: the form handle plus a decision made
/// from mirror-only data (lag, staleness anchor, drain cost).
pub(crate) struct ResidentPlan {
    form: Arc<Mutex<ResidentForm>>,
    prepared: Arc<PreparedProgram>,
    /// The query atom spliced into the canonical program's namespace.
    q_atom: Atom,
    action: ResidentAction,
}

enum ResidentAction {
    /// Block on the form lock, propagate to the query snapshot, serve at
    /// staleness zero. Used for `fresh` reads and for over-budget bounded
    /// reads whose estimated drain cost is below the synchronous ceiling.
    Fresh,
    /// Serve the last published frontier without catching up. `anchor` is
    /// the conservative staleness origin — `pending_since` when the form
    /// lags, `None` when it was fully drained at decision time (the serve
    /// is then indistinguishable from fresh). `memo` is the answer slot's
    /// table and publication instant, the no-wait fallback when a drain
    /// holds the form lock; `budget` caps how old it may be (`None` = any
    /// age).
    Stale {
        anchor: Option<Instant>,
        memo: Option<(Rendered, Instant)>,
        budget: Option<Duration>,
    },
    /// Frontier older than the staleness budget and the drain too costly
    /// to run synchronously: answer `ERR stale <bound_ms>`, after queueing
    /// a drain when none is on its way.
    Refuse { bound_ms: u64, queue_drain: bool },
}

/// A cold evaluation of one prepared form.
pub(crate) struct ColdPlan {
    /// `miss` when this request ran the optimizer, `hit` otherwise.
    status: &'static str,
    prepared: Arc<PreparedProgram>,
    /// The spliced query atom when the form may pin: the evaluation then
    /// *builds* resident state instead of a throwaway fixpoint.
    pin: Option<Atom>,
    /// The form lost its resident (eviction, poisoning); pinning again is
    /// the lazy rebuild.
    rebuild: bool,
}

/// What the response tail needs from whichever source answered.
pub(crate) struct Served {
    /// The `cache=` header value.
    tag: &'static str,
    table: Rendered,
    /// Upper bound on how old the served frontier is.
    staleness: Duration,
    prepared: Arc<PreparedProgram>,
    /// Present when this request ran a fixpoint.
    cold: Option<ColdSpans>,
}

struct ColdSpans {
    d_cache: Duration,
    d_eval: Duration,
    d_serialize: Duration,
    stats: EvalStats,
}

/// One extraction off a locked form's frontier.
struct FrontierRead {
    table: Rendered,
    applied: BTreeMap<PredRef, usize>,
}

/// The one cold input: the snapshot restricted to a form's EDB support —
/// the only predicates that can affect its answers.
fn support_input(prepared: &PreparedProgram, snapshot: &DbSnapshot) -> FactSet {
    let mut input = FactSet::new();
    for pred in &prepared.support {
        for row in snapshot.rows(pred) {
            input.insert(pred.clone(), row);
        }
    }
    input
}

/// Run a form's canonical program over its support at `snapshot`, keeping
/// the working state for delta propagation. `applied` records the snapshot
/// it was built from, so the next catch-up starts exactly where
/// construction stopped. First pin, lazy rebuild and background rebuild
/// all build here.
pub(crate) fn build_resident(
    prepared: &PreparedProgram,
    snapshot: &DbSnapshot,
    opts: &EvalOptions,
) -> Result<ResidentForm, EngineError> {
    let eval = ResidentEval::new(&prepared.program, &support_input(prepared, snapshot), opts)?;
    Ok(ResidentForm {
        eval,
        applied: snapshot
            .watermarks_for(&prepared.support)
            .into_iter()
            .collect(),
    })
}

fn read_frontier(form: &ResidentForm, q_atom: &Atom) -> FrontierRead {
    let answers = form.eval.answers(q_atom);
    FrontierRead {
        table: Rendered {
            payload: render_answers(&answers).into(),
            answers: answers.len(),
            frontier: form.eval.frontier().version,
        },
        applied: form.applied.clone(),
    }
}

impl ServerState {
    pub(crate) fn handle_query(&self, text: &str, consistency: Consistency) -> Response {
        let started = Instant::now();
        // Admission control runs before any parsing or optimizer work:
        // under overload the cheapest thing to do with a query is refuse it.
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let _inflight = Decrement(&self.inflight);
        let max = self.cfg.max_inflight;
        if max > 0 && self.inflight.load(Ordering::Acquire) > max {
            self.metrics.shed_queries.inc();
            self.note_limit("busy", &format!("query shed at in-flight budget {max}"));
            return Response::err_code(
                ErrCode::Busy,
                format!("server at query capacity ({max} in flight), retry"),
            );
        }
        self.run_query(text, consistency, started)
            .unwrap_or_else(|refusal| refusal)
    }

    fn run_query(
        &self,
        text: &str,
        consistency: Consistency,
        started: Instant,
    ) -> Result<Response, Response> {
        let ctx = self.resolve(text, consistency, started)?;
        let served = match self.choose_source(&ctx)? {
            Source::Memo(served) => served,
            Source::Cold(plan) => self.serve_cold(&ctx, plan)?,
            Source::Resident(plan) => match self.serve_resident(&ctx, &plan)? {
                Some(served) => served,
                None => {
                    // The resident died under the plan (poisoned, already
                    // cleaned up): recompute this request from cold.
                    self.metrics.fallback_recomputes.inc();
                    let cold = ColdPlan {
                        status: "hit",
                        prepared: plan.prepared,
                        pin: Some(plan.q_atom),
                        rebuild: true,
                    };
                    self.serve_cold(&ctx, cold)?
                }
            },
        };
        Ok(self.respond(&ctx, served))
    }

    /// Request text → validated, adorned query against a snapshot.
    fn resolve(
        &self,
        text: &str,
        consistency: Consistency,
        started: Instant,
    ) -> Result<QueryCtx, Response> {
        let req_id = self.metrics.next_request_id();
        let parsed = parse_program(text).map_err(|e| Response::err(e.render_at("query")))?;
        if !parsed.program.rules.is_empty() || !parsed.facts.is_empty() {
            return Err(Response::err(
                "QUERY takes a single '?- atom.' (no rules or facts)",
            ));
        }
        let Some(query) = parsed.program.query else {
            return Err(Response::err("QUERY takes a single '?- atom.'"));
        };
        let pred = query.atom.pred.name.as_str();
        if self.cfg.fault.should_panic_on_query(&pred) {
            panic!(
                "injected fault: panic during query over {}",
                query.atom.pred
            );
        }
        let adornment = query_adornment(&query).map_err(|e| Response::err(e.to_string()))?;
        let (rules, fingerprint) = {
            let g = read_lock(&self.rules);
            (g.0.clone(), g.1)
        };
        let program = Program::with_query(rules, query.clone());
        program
            .validate()
            .map_err(|e| Response::err(e.to_string()))?;
        let d_parse = started.elapsed();
        let key = FormKey {
            fingerprint,
            pred,
            adornment: adornment.to_string(),
        };
        let query_repr = query.atom.to_string();
        let t_snap = Instant::now();
        let snapshot = self.db.snapshot();
        self.metrics.queries.inc();
        Ok(QueryCtx {
            started,
            req_id,
            key,
            query,
            query_repr,
            program,
            adornment,
            snapshot,
            t_snap,
            d_parse,
            t_cache: Instant::now(),
            consistency,
        })
    }

    /// Pick the answer source. Holds the cache lock throughout — across
    /// the optimizer on a cold miss, which deduplicates concurrent misses
    /// of the same form.
    fn choose_source(&self, ctx: &QueryCtx) -> Result<Source, Response> {
        let mut cache = lock(&self.cache);
        if let Some(entry) = cache.get_mut(&ctx.key) {
            entry.hits += 1;
            self.metrics.prepared_hits.inc();
            if let Some(slot) = &entry.answers {
                if slot.query_repr == ctx.query_repr
                    && slot.watermarks == ctx.snapshot.watermarks_for(&entry.prepared.support)
                {
                    // Watermark match means no acknowledged row is missing:
                    // staleness zero in any consistency mode.
                    self.metrics.answer_hits.inc();
                    return Ok(Source::Memo(Served {
                        tag: "answers",
                        table: slot.table.clone(),
                        staleness: Duration::ZERO,
                        prepared: Arc::clone(&entry.prepared),
                        cold: None,
                    }));
                }
            }
            let pin = self.pin_atom(ctx, entry);
            if let (Some(form), Some(q_atom)) = (&entry.resident, &pin) {
                return Ok(Source::Resident(ResidentPlan {
                    form: Arc::clone(form),
                    prepared: Arc::clone(&entry.prepared),
                    q_atom: q_atom.clone(),
                    action: self.resident_action(ctx, entry),
                }));
            }
            // Eligible but not resident: evicted by the resident LRU, or
            // dropped earlier as poisoned.
            let rebuild = pin.is_some() && entry.resident.is_none();
            if rebuild {
                self.metrics.fallback_recomputes.inc();
            }
            return Ok(Source::Cold(ColdPlan {
                status: "hit",
                prepared: Arc::clone(&entry.prepared),
                pin,
                rebuild,
            }));
        }
        self.metrics.cache_misses.inc();
        let cfg = OptimizerConfig {
            verify: self.cfg.verify,
            ..OptimizerConfig::default()
        };
        let prepared = prepare(
            &ctx.program.rules,
            &ctx.query.atom.pred,
            &ctx.adornment,
            &cfg,
        )
        .map_err(|e| Response::err(format!("optimizer: {e}")))?;
        let entry = cache.insert(ctx.key.clone(), prepared);
        Ok(Source::Cold(ColdPlan {
            status: "miss",
            prepared: Arc::clone(&entry.prepared),
            pin: self.pin_atom(ctx, entry),
            rebuild: false,
        }))
    }

    /// The query atom in the canonical program's namespace, when the form
    /// may hold resident state.
    fn pin_atom(&self, ctx: &QueryCtx, entry: &Entry) -> Option<Atom> {
        if self.cfg.resident_forms == 0 {
            return None;
        }
        entry.pin_target()?.instantiate_atom(&ctx.query.atom)
    }

    /// Decide how to read live resident state. Lag and the staleness
    /// anchor come from the cache-side mirror — no form lock.
    fn resident_action(&self, ctx: &QueryCtx, entry: &mut Entry) -> ResidentAction {
        let budget = match ctx.consistency {
            Consistency::Fresh => return ResidentAction::Fresh,
            Consistency::Any => None,
            Consistency::Bounded(ms) => Some(Duration::from_millis(ms)),
        };
        let lag = ctx
            .snapshot
            .lag_from(&entry.prepared.support, &entry.applied_mirror);
        let anchor = match entry.pending_since {
            // Fully drained: the frontier IS fresh; serve it via try-lock
            // so this read never queues behind a drain that is applying
            // even newer rows.
            _ if lag == 0 => None,
            Some(since) => Some(since),
            // Lag without an anchor should not happen (drains set
            // `pending_since` before releasing the cache lock):
            // correctness first.
            None => return ResidentAction::Fresh,
        };
        let staleness_now = anchor.map_or(Duration::ZERO, |a| a.elapsed());
        if budget.is_some_and(|b| staleness_now.as_millis() > b.as_millis()) {
            // Over budget: catch up synchronously only when the bound
            // polynomial says the drain is cheap; otherwise refuse and
            // make sure a drain is on its way.
            let cost = Self::drain_cost(&entry.prepared, &ctx.snapshot, &entry.applied_mirror);
            if cost <= self.cfg.drain_sync_cost {
                return ResidentAction::Fresh;
            }
            return ResidentAction::Refuse {
                bound_ms: u64::try_from(staleness_now.as_millis()).unwrap_or(u64::MAX),
                queue_drain: !std::mem::replace(&mut entry.drain_queued, true),
            };
        }
        let memo = entry
            .answers
            .as_ref()
            .filter(|s| s.query_repr == ctx.query_repr)
            .map(|s| (s.table.clone(), s.published_at));
        ResidentAction::Stale {
            anchor,
            memo,
            budget,
        }
    }

    /// Execute a [`ResidentPlan`] with the cache lock released. `Ok(None)`
    /// means the resident state died mid-plan (poisoned — already counted
    /// and cleaned up) and the caller must recompute from cold; `Err` is a
    /// staleness refusal.
    fn serve_resident(
        &self,
        ctx: &QueryCtx,
        plan: &ResidentPlan,
    ) -> Result<Option<Served>, Response> {
        let key = &ctx.key;
        let served = |tag, table, staleness| Served {
            tag,
            table,
            staleness,
            prepared: Arc::clone(&plan.prepared),
            cold: None,
        };
        // `publish_anchor` is the staleness origin recorded on the memo —
        // for a stale serve this is `pending_since`, NOT now: the payload
        // already misses rows that arrived at the anchor, so aging must
        // start there.
        let (read, publish_anchor, staleness, tag) = match &plan.action {
            ResidentAction::Refuse {
                bound_ms,
                queue_drain,
            } => return Err(self.refuse_stale(key, *bound_ms, *queue_drain)),
            ResidentAction::Fresh => {
                let read = {
                    let mut g = lock(&plan.form);
                    self.propagate(&plan.prepared.support, &mut g, &ctx.snapshot)
                        .ok()
                        .map(|_| read_frontier(&g, &plan.q_atom))
                };
                let Some(read) = read else {
                    self.poison_form(key);
                    return Ok(None);
                };
                self.finish_drain(key, &read.applied, ctx.t_snap);
                (read, ctx.t_snap, Duration::ZERO, "resident")
            }
            ResidentAction::Stale {
                anchor,
                memo,
                budget,
            } => {
                // Try the form lock first: a bounded/any reader must not
                // queue behind a drain that is busy applying newer rows.
                let g = match plan.form.try_lock() {
                    Ok(g) => g,
                    Err(TryLockError::Poisoned(p)) => p.into_inner(),
                    Err(TryLockError::WouldBlock) => {
                        // Contended: the answer memo is the no-wait asset
                        // when its age fits the budget; otherwise block
                        // after all (still correct, just slower).
                        if let Some((table, published_at)) = memo {
                            let age = published_at.elapsed();
                            if budget.map_or(true, |b| age <= b) {
                                return Ok(Some(served("stale_answers", table.clone(), age)));
                            }
                        }
                        lock(&plan.form)
                    }
                };
                if g.eval.poisoned() {
                    drop(g);
                    self.poison_form(key);
                    return Ok(None);
                }
                let read = read_frontier(&g, &plan.q_atom);
                match anchor {
                    None => (read, ctx.t_snap, Duration::ZERO, "resident"),
                    Some(a) => (read, *a, a.elapsed(), "stale"),
                }
            }
        };
        if let Some(entry) = lock(&self.cache).peek_mut(key) {
            // Memo-tag with the form's *applied* watermarks: if a drain
            // raced us past the query snapshot, the served frontier is the
            // newer (monotone superset) one, and the slot must advertise
            // what was served.
            let watermarks = read.applied.into_iter().collect();
            entry.answers = Some(ctx.slot(
                &read.table,
                watermarks,
                publish_anchor,
                !staleness.is_zero(),
            ));
        }
        Ok(Some(served(tag, read.table, staleness)))
    }

    fn refuse_stale(&self, key: &FormKey, bound_ms: u64, queue_drain: bool) -> Response {
        if queue_drain {
            match lock(&self.maintenance).clone() {
                Some(tx) => {
                    let _ = tx.send(DrainJob::Drain(key.clone()));
                }
                None => {
                    if let Some(e) = lock(&self.cache).peek_mut(key) {
                        e.drain_queued = false;
                    }
                }
            }
        }
        self.metrics.stale_refusals.inc();
        self.note_limit(
            "stale",
            &format!(
                "query over {} refused: resident frontier {bound_ms}ms stale, \
                 drain too costly to run synchronously",
                key.pred
            ),
        );
        Response::err_stale(
            bound_ms,
            "frontier exceeds staleness budget while a drain is pending; \
             retry, loosen the budget, or request fresh",
        )
    }

    /// The evaluation limits and knobs of every fixpoint the server runs,
    /// for a request (or rebuild) that began at `started`. Workers poll
    /// the same deadline/cancel the serial path does, so the limit
    /// envelope does not depend on `eval_threads`.
    pub(crate) fn eval_opts(
        &self,
        started: Instant,
        cost_hints: Arc<BTreeMap<String, u64>>,
    ) -> EvalOptions {
        EvalOptions {
            boolean_cut: true,
            // Serving always wants the cheapest join order, not source
            // order (`xdl run` keeps source order for experiment counters).
            reorder_joins: true,
            threads: self.cfg.eval_threads,
            deadline: self
                .cfg
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms)),
            fact_budget: self.cfg.fact_budget,
            cancel: Some(self.cancel.clone()),
            metrics: Some(self.metrics.eval.clone()),
            // Ties in the greedy join order break toward the predicate
            // with the smaller derivation bound at current cardinalities.
            cost_hints: Some(cost_hints),
            ..EvalOptions::default()
        }
    }

    /// Evaluate a prepared form from the snapshot, memoize the answer, and
    /// pin the state when the plan says so. A tripped evaluation is
    /// answered with its partial stats, NOT memoized, and nothing is
    /// pinned: the cache must never serve a truncated table.
    fn serve_cold(&self, ctx: &QueryCtx, plan: ColdPlan) -> Result<Served, Response> {
        let d_cache = ctx.t_cache.elapsed();
        let prepared = &plan.prepared;
        let (bound, cost_hints) = Self::live_bound(prepared, &ctx.snapshot);
        // Bound-aware admission: the static derivation bound at this
        // snapshot's cardinalities upper-bounds what the fixpoint can
        // derive. If that ceiling already exceeds the fact budget the trip
        // is inevitable — refuse before a single iteration.
        if let (true, Some(budget)) = (self.cfg.bound_admission, self.cfg.fact_budget) {
            if bound > budget {
                self.metrics.admission_rejected.inc();
                let detail = format!(
                    "static derivation bound {bound} facts exceeds fact budget {budget} \
                     at current cardinalities; refused before evaluation"
                );
                self.note_limit("bound", &detail);
                return Err(Response::err_code(ErrCode::Bound, detail));
            }
        }
        let opts = self.eval_opts(ctx.started, cost_hints);
        let t_eval = Instant::now();
        let evaluated = match &plan.pin {
            Some(q_atom) => build_resident(prepared, &ctx.snapshot, &opts).map(|form| {
                (
                    form.eval.answers(q_atom),
                    form.eval.initial_stats(),
                    Some(form),
                )
            }),
            None => {
                let program = prepared.instantiate(&ctx.query.atom).ok_or_else(|| {
                    Response::err_code(ErrCode::Internal, "query does not match its cached form")
                })?;
                query_answers_full(&program, &support_input(prepared, &ctx.snapshot), &opts)
                    .map(|(answers, out)| (answers, out.stats, None))
            }
        };
        let (answers, stats, pinned) = evaluated.map_err(|e| {
            if e.is_limit() {
                self.limit_response(&e)
            } else {
                Response::err(format!("evaluation: {e}"))
            }
        })?;
        let d_eval = t_eval.elapsed();

        let t_serialize = Instant::now();
        let table = Rendered {
            payload: render_answers(&answers).into(),
            answers: answers.len(),
            // The freshly built resident's version when one is pinned, the
            // DB snapshot version otherwise.
            frontier: pinned
                .as_ref()
                .map_or_else(|| ctx.snapshot.version(), |f| f.eval.frontier().version),
        };
        {
            let mut cache = lock(&self.cache);
            if let Some(entry) = cache.get_mut(&ctx.key) {
                let watermarks = ctx.snapshot.watermarks_for(&prepared.support);
                entry.answers = Some(ctx.slot(&table, watermarks, ctx.t_snap, false));
            }
            if let Some(form) = pinned {
                // Pin unless a concurrent query beat us to it. A re-pin
                // after eviction or poisoning IS the lazy rebuild.
                if cache
                    .peek_mut(&ctx.key)
                    .is_some_and(|e| e.resident.is_none())
                    && cache.pin_resident(&ctx.key, form)
                    && plan.rebuild
                {
                    self.metrics.resident_rebuilds.inc();
                }
            }
        }
        Ok(Served {
            tag: plan.status,
            table,
            staleness: Duration::ZERO,
            prepared: plan.prepared,
            cold: Some(ColdSpans {
                d_cache,
                d_eval,
                d_serialize: t_serialize.elapsed(),
                stats,
            }),
        })
    }

    /// The response tail, shared by every source.
    fn respond(&self, ctx: &QueryCtx, served: Served) -> Response {
        let mut spans = [None; PHASES.len()];
        spans[Phase::Parse as usize] = Some(ctx.d_parse);
        match &served.cold {
            // Without a fixpoint the cache span runs to here: lookup,
            // frontier read and memoization.
            None => spans[Phase::Cache as usize] = Some(ctx.t_cache.elapsed()),
            Some(cold) => {
                spans[Phase::Cache as usize] = Some(cold.d_cache);
                spans[Phase::Eval as usize] = Some(cold.d_eval);
                spans[Phase::Serialize as usize] = Some(cold.d_serialize);
            }
        }
        for (histogram, span) in self.metrics.phase_seconds.iter().zip(spans) {
            if let Some(d) = span {
                histogram.record_duration(d);
            }
        }
        self.metrics
            .staleness_bound_seconds
            .record_duration(served.staleness);
        if !served.staleness.is_zero() {
            self.metrics.stale_serves.inc();
        }
        *lock(&self.last_trace) = Some(Self::trace_json(ctx, &served));
        self.log_slow_query(ctx, &served, &spans);
        Response::ok()
            .with_info("cache", served.tag)
            .with_info("answers", served.table.answers)
            .with_info("frontier", served.table.frontier)
            .with_info("staleness_us", served.staleness.as_micros())
            .with_info("wall_us", ctx.started.elapsed().as_micros())
            .with_payload_text(&served.table.payload)
    }

    /// Emit one structured JSON line on stderr when a query's wall time
    /// crosses the `--slow-query-ms` threshold: request id, form identity,
    /// cache outcome, per-phase breakdown, and (when evaluation ran) the
    /// engine's [`EvalStats`].
    fn log_slow_query(&self, ctx: &QueryCtx, served: &Served, spans: &[Option<Duration>]) {
        let Some(threshold_ms) = self.cfg.slow_query_ms else {
            return;
        };
        let wall = ctx.started.elapsed();
        if wall.as_millis() < u128::from(threshold_ms) {
            return;
        }
        self.metrics.slow_queries.inc();
        let mut phase_doc = Json::obj();
        for (name, span) in PHASES.iter().zip(spans) {
            if let Some(d) = span {
                phase_doc = phase_doc.with(name, d.as_micros());
            }
        }
        let mut doc = Json::obj()
            .with("slow_query", true)
            .with("req_id", ctx.req_id)
            .with("pred", ctx.key.pred.as_str())
            .with("adornment", ctx.key.adornment.as_str())
            .with("cache", served.tag)
            .with("threshold_ms", threshold_ms)
            .with("wall_us", wall.as_micros())
            .with("phases_us", phase_doc);
        if let Some(ColdSpans { stats: s, .. }) = &served.cold {
            doc = doc.with(
                "stats",
                Json::obj()
                    .with("iterations", s.iterations)
                    .with("facts_derived", s.facts_derived)
                    .with("derivations", s.derivations)
                    .with("duplicates", s.duplicates)
                    .with("tuples_scanned", s.tuples_scanned)
                    .with("index_probes", s.index_probes),
            );
        }
        eprintln!("{doc}");
    }

    /// The `TRACE` document for one query. `new_events` holds the phase
    /// events the optimizer emitted *for this request* — the full trace on
    /// a cold miss, empty on any cache hit (the observable promised by the
    /// prepared-query cache).
    fn trace_json(ctx: &QueryCtx, served: &Served) -> Json {
        let report = &served.prepared.report;
        let new_events: Vec<Json> = if served.tag == "miss" {
            report.events().map(|e| e.to_json()).collect()
        } else {
            Vec::new()
        };
        Json::obj()
            .with("query", ctx.query.to_string())
            .with(
                "form",
                Json::obj()
                    .with("fingerprint", format!("{:016x}", ctx.key.fingerprint))
                    .with("pred", ctx.key.pred.as_str())
                    .with("adornment", ctx.key.adornment.as_str()),
            )
            .with("cache", served.tag)
            .with("new_events", Json::Arr(new_events))
            .with("prepared_report", report.to_json())
    }
}
