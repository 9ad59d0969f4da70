//! The query pipeline: one `QUERY` from request text to response.
//!
//! | stage | hand-off | span | lock held |
//! |---|---|---|---|
//! | [`resolve`](ServerState::resolve) | [`QueryCtx`] | parse | rules (read), briefly |
//! | [`choose_source`](ServerState::choose_source) | [`Source`] | cache | cache — across the optimizer on a miss |
//! | [`serve_resident`](ServerState::serve_resident) | [`Served`] | cache | form, then cache once to memoize |
//! | [`serve_cold`](ServerState::serve_cold) | [`Served`] | eval, serialize | none while evaluating; cache once to memoize and pin |
//! | [`respond`](ServerState::respond) | `Response` | — | `last_trace` |
//!
//! Every source answers at the query's snapshot or later: a memo only
//! while the snapshot sits at its watermarks, a resident form only after
//! draining to the snapshot, a cold evaluation from the snapshot itself.
//!
//! Lock order is cache → form, and a stage never *blocks* on a form lock
//! while it holds the cache lock: `choose_source` hands the form handle
//! out, and `serve_resident` locks it after the cache lock has dropped.
//!
//! `respond` is the only place a QUERY `OK` header, a phase span, the
//! `TRACE` document and a slow-query line are produced, so all four
//! `cache=` sources answer with the same header and move the same
//! histograms. A query that ends in `ERR` records no phase span; its own
//! counter (trip, refusal, shed) is the record.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use datalog_adorn::query_adornment;
use datalog_ast::{check_arity, parse_program, Adornment, Atom, Query};
use datalog_engine::incremental::ResidentEval;
use datalog_engine::{query_answers_full, DbSnapshot, EngineError, EvalOptions, EvalStats};
use datalog_opt::{prepare, OptimizerConfig, PreparedProgram};
use datalog_trace::Json;

use crate::cache::{watermarks_at, Entry, FormKey, Rendered, ResidentForm};
use crate::metrics::{Phase, PHASES};
use crate::protocol::{ErrCode, Response};
use crate::server::{lock, read_lock, render_answers, Decrement, RuleSet, ServerState};

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
    /// The rule set the query was checked against (what a cold miss
    /// optimizes).
    rules: Arc<RuleSet>,
    adornment: Adornment,
    /// Taken before the answer slot is consulted: a slot whose watermarks
    /// still match this snapshot misses no row acknowledged before it.
    snapshot: DbSnapshot,
    d_parse: Duration,
    t_cache: Instant,
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

/// How to serve live resident state: the form handle, read after draining
/// it to the query's snapshot.
pub(crate) struct ResidentPlan {
    form: Arc<Mutex<ResidentForm>>,
    prepared: Arc<PreparedProgram>,
    /// The query atom spliced into the canonical program's namespace.
    q_atom: Atom,
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

/// Run a form's canonical program over its support at `snapshot` (the
/// only predicates that can affect its answers, each row copied once
/// straight into the batch the engine bulk-loads), keeping the working
/// state for delta propagation. `applied` records the snapshot it was
/// built from, so the next catch-up starts exactly where construction
/// stopped. First pin, lazy rebuild and background rebuild all build here.
pub(crate) fn build_resident(
    prepared: &PreparedProgram,
    snapshot: &DbSnapshot,
    opts: &EvalOptions,
) -> Result<ResidentForm, EngineError> {
    let eval = ResidentEval::new(&prepared.program, snapshot.edb(&prepared.support), opts)?;
    Ok(ResidentForm {
        eval,
        applied: watermarks_at(prepared, snapshot),
    })
}

/// One extraction off a locked form's frontier.
pub(crate) fn read_frontier(form: &ResidentForm, q_atom: &Atom) -> Rendered {
    let answers = form.eval.answers(q_atom);
    Rendered {
        payload: render_answers(&answers).into(),
        answers: answers.len(),
        frontier: form.eval.frontier().version,
    }
}

impl ServerState {
    pub(crate) fn handle_query(&self, text: &str) -> Response {
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
        self.run_query(text, started)
            .unwrap_or_else(|refusal| refusal)
    }

    fn run_query(&self, text: &str, started: Instant) -> Result<Response, Response> {
        let ctx = self.resolve(text, started)?;
        let served = match self.choose_source(&ctx)? {
            Source::Memo(served) => served,
            Source::Cold(plan) => self.serve_cold(&ctx, plan)?,
            Source::Resident(plan) => match self.serve_resident(&ctx, &plan) {
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
        Ok(self.respond(ctx, served))
    }

    /// Request text → validated, adorned query against a snapshot.
    fn resolve(&self, text: &str, started: Instant) -> Result<QueryCtx, Response> {
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
        let rules = Arc::clone(&read_lock(&self.rules));
        // The rule set was validated when it last changed; the query adds
        // one atom to check against its arities.
        let known = rules.arities.as_ref().map_err(Response::err)?;
        check_arity(known.get(&query.atom.pred).copied(), &query.atom)
            .map_err(|e| Response::err(e.to_string()))?;
        let d_parse = started.elapsed();
        let key = FormKey {
            fingerprint: rules.fingerprint,
            pred,
            adornment: adornment.to_string(),
        };
        let query_repr = query.atom.to_string();
        let snapshot = self.db.snapshot();
        self.metrics.queries.inc();
        Ok(QueryCtx {
            started,
            req_id,
            key,
            query,
            query_repr,
            rules,
            adornment,
            snapshot,
            d_parse,
            t_cache: Instant::now(),
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
            if let Some(memo) = &entry.memo {
                if !memo.current_at(&ctx.snapshot) {
                    // Ingestion never touches the slot; this lookup is
                    // where it is found out of date.
                    self.metrics.invalidations.inc();
                } else if memo.query_repr == ctx.query_repr {
                    // Watermark match means no acknowledged row is missing.
                    self.metrics.answer_hits.inc();
                    return Ok(Source::Memo(Served {
                        tag: "answers",
                        table: memo.table.clone(),
                        prepared: Arc::clone(&entry.prepared),
                        cold: None,
                    }));
                }
            }
            let pin = self.pin_atom(ctx, entry);
            if let (Some(form), Some(q_atom)) = (entry.live_form(), &pin) {
                return Ok(Source::Resident(ResidentPlan {
                    form: Arc::clone(form),
                    prepared: Arc::clone(&entry.prepared),
                    q_atom: q_atom.clone(),
                }));
            }
            // Eligible but not live: evicted by the resident LRU, or lost
            // to a poisoning. Pinning again is the lazy rebuild.
            let rebuild = pin.is_some();
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
        let prepared = prepare(&ctx.rules.rules, &ctx.query.atom.pred, &ctx.adornment, &cfg)
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

    /// Execute a [`ResidentPlan`] with the cache lock released: drain the
    /// form to the query's snapshot and read it. `None` means the resident
    /// state died mid-plan (poisoned — already counted and `Lost`) and the
    /// caller must recompute from cold.
    fn serve_resident(&self, ctx: &QueryCtx, plan: &ResidentPlan) -> Option<Served> {
        let read = Some((&plan.q_atom, ctx.query_repr.as_str()));
        let table = self
            .drain(&ctx.key, &plan.form, &ctx.snapshot, read)
            .ok()
            .flatten()?;
        Some(Served {
            tag: "resident",
            table,
            prepared: Arc::clone(&plan.prepared),
            cold: None,
        })
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
                let input = ctx.snapshot.edb(&prepared.support);
                query_answers_full(&program, input, &opts)
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
                let watermarks = watermarks_at(prepared, &ctx.snapshot);
                entry.memoize(&ctx.query_repr, &table, watermarks);
            }
            if let Some(form) = pinned {
                self.pin_built(&mut cache, &ctx.key, form, plan.rebuild);
            }
        }
        Ok(Served {
            tag: plan.status,
            table,
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
    fn respond(&self, ctx: QueryCtx, served: Served) -> Response {
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
        self.log_slow_query(&ctx, &served, &spans);
        *lock(&self.last_trace) = Some(LastQuery {
            query: ctx.query,
            key: ctx.key,
            tag: served.tag,
            prepared: served.prepared,
        });
        Response::ok()
            .with_info("cache", served.tag)
            .with_info("answers", served.table.answers)
            .with_info("frontier", served.table.frontier)
            // Every answer is fresh; the key stays for protocol v4 clients.
            .with_info("staleness_us", 0)
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
}

/// What `TRACE` renders: the last answered query and how it was served.
pub(crate) struct LastQuery {
    query: Query,
    key: FormKey,
    tag: &'static str,
    prepared: Arc<PreparedProgram>,
}

impl LastQuery {
    /// The `TRACE` document. `new_events` holds the phase events the
    /// optimizer emitted *for this request* — the full trace on a cold
    /// miss, empty on any cache hit (the observable promised by the
    /// prepared-query cache).
    pub(crate) fn to_json(&self) -> Json {
        let report = &self.prepared.report;
        let new_events: Vec<Json> = if self.tag == "miss" {
            report.events().map(|e| e.to_json()).collect()
        } else {
            Vec::new()
        };
        Json::obj()
            .with("query", self.query.to_string())
            .with(
                "form",
                Json::obj()
                    .with("fingerprint", format!("{:016x}", self.key.fingerprint))
                    .with("pred", self.key.pred.as_str())
                    .with("adornment", self.key.adornment.as_str()),
            )
            .with("cache", self.tag)
            .with("new_events", Json::Arr(new_events))
            .with("prepared_report", report.to_json())
    }
}
