//! The query pipeline: one `QUERY` from request text to response.
//!
//! | stage | hand-off | span | lock held |
//! |---|---|---|---|
//! | [`resolve`](ServerState::resolve) | [`QueryCtx`] | parse | rules (read), briefly |
//! | [`choose_source`](ServerState::choose_source) | [`Source`] | cache | cache — across the optimizer on a miss |
//! | [`serve_resident`](ServerState::serve_resident) | [`Served`] | cache | form |
//! | [`serve_cold`](ServerState::serve_cold) | [`Served`] | eval, serialize | none while evaluating; cache once to pin |
//! | [`respond`](ServerState::respond) | `Response` | — | `last_trace` |
//!
//! There are two sources, and both answer at the query's snapshot or
//! later: a resident form after draining to the snapshot, a cold
//! evaluation from the snapshot itself. After the drain, a resident form
//! answers a repeat of the query text it last read for the query's form
//! from that read's slot (`cache=answers`), and any other text with a
//! fresh read of the frontier (`cache=resident`) that refills the slot.
//! A cold form keeps nothing: it evaluates on every query.
//!
//! The resident form that answers is the query's own when it is live, and
//! otherwise a live form that [covers](crate::cache::FormKey::covers) it
//! (Lemma 3.2: the query's answers are a projection of the covering
//! form's), found after the own-form lookup — on a first sighting after the
//! optimizer ran, so the entry and `TRACE` exist either way. A covered
//! form is never built while its cover is live; its read goes through the
//! covering form's program and read plan, and fills the covering form's
//! slot for the covered form. If the covering form dies mid-plan, the
//! covered form's own program is evaluated and pinned.
//!
//! Lock order is cache → form, and a stage never *blocks* on a form lock
//! while it holds the cache lock: `choose_source` hands the form handle
//! out, and `serve_resident` locks it after the cache lock has dropped.
//!
//! `respond` is the only place a QUERY `OK` header, a phase span, the
//! `TRACE` document and a slow-query line are produced, so every
//! `cache=` value comes with the same header and moves the same
//! histograms. A query that ends in `ERR` records no phase span; its own
//! counter (trip, refusal) is the record.

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

use crate::cache::{Entry, FormKey, Rendered, ResidentForm};
use crate::metrics::{Phase, PHASES};
use crate::protocol::{ErrCode, Response};
use crate::server::{lock, read_lock, Decrement, RuleSet, ServerState};

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
    /// byte-identity of a kept read, not just the form.
    query_repr: String,
    /// The rule set the query was checked against (what a cold miss
    /// optimizes).
    rules: Arc<RuleSet>,
    adornment: Adornment,
    /// Taken before the cache is consulted: every source answers at this
    /// snapshot or later, so no row acknowledged before it is missed.
    snapshot: DbSnapshot,
    d_parse: Duration,
    t_cache: Instant,
}

/// Where a query's answer comes from, decided under the cache lock.
pub(crate) enum Source {
    /// The form, or a form covering it, has live resident state.
    Resident(ResidentPlan),
    /// Evaluate from the snapshot.
    Cold(ColdPlan),
}

/// How to serve live resident state: the form handle, read after draining
/// it to the query's snapshot.
pub(crate) struct ResidentPlan {
    /// The live form that answers: the query's own, or one covering it.
    form: Arc<Mutex<ResidentForm>>,
    /// That form's program.
    prepared: Arc<PreparedProgram>,
    /// The query atom spliced into that program's namespace.
    q_atom: Atom,
    /// The covering form's key, when the form is not the query's own.
    cover: Option<FormKey>,
    /// What runs when the form dies mid-plan: the query's *own* form,
    /// evaluated cold and pinned under the query's key.
    fallback: ColdPlan,
}

/// A cold evaluation of one prepared form.
pub(crate) struct ColdPlan {
    /// `miss` when this request ran the optimizer, `hit` otherwise.
    status: &'static str,
    prepared: Arc<PreparedProgram>,
    /// The spliced query atom when the form may pin: the evaluation then
    /// *builds* resident state instead of a throwaway fixpoint. On a `hit`
    /// the form had lost its resident (eviction, poisoning, a covering
    /// form that pinned), so pinning again is the rebuild.
    pin: Option<Atom>,
}

/// What the response tail needs from whichever source answered.
pub(crate) struct Served {
    /// The `cache=` header value.
    tag: &'static str,
    table: Rendered,
    /// The answering form's program.
    prepared: Arc<PreparedProgram>,
    /// The covering form that answered, when it is not the query's own.
    served_by: Option<FormKey>,
    /// The program the optimizer built for this request, if it ran.
    optimized: Option<Arc<PreparedProgram>>,
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
/// straight into the batch the engine loads), keeping the working
/// state for delta propagation. `applied` records the snapshot it was
/// built from, so the next catch-up starts exactly where construction
/// stopped. First pin and rebuild both build here.
fn build_resident(
    prepared: &PreparedProgram,
    snapshot: &DbSnapshot,
    opts: &EvalOptions,
) -> Result<ResidentForm, EngineError> {
    let eval = ResidentEval::new(&prepared.program, snapshot.edb(&prepared.support), opts)?;
    Ok(ResidentForm {
        eval,
        applied: snapshot
            .watermarks_for(&prepared.support)
            .into_iter()
            .collect(),
        reads: BTreeMap::new(),
    })
}

impl ServerState {
    pub(crate) fn handle_query(&self, text: &str) -> Response {
        let started = Instant::now();
        self.inflight.fetch_add(1, Ordering::AcqRel);
        let _inflight = Decrement(&self.inflight);
        self.run_query(text, started)
            .unwrap_or_else(|refusal| refusal)
    }

    fn run_query(&self, text: &str, started: Instant) -> Result<Response, Response> {
        let ctx = self.resolve(text, started)?;
        let served = match self.choose_source(&ctx)? {
            Source::Cold(plan) => self.serve_cold(&ctx, plan)?,
            Source::Resident(plan) => self.serve_resident(&ctx, plan)?,
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
        let own = match cache.get_mut(&ctx.key) {
            Some(entry) => {
                self.metrics.prepared_hits.inc();
                let plan = ColdPlan {
                    status: "hit",
                    prepared: Arc::clone(&entry.prepared),
                    pin: self.pin_atom(ctx, entry),
                };
                if let (Some(form), Some(q_atom)) = (&entry.resident, &plan.pin) {
                    return Ok(Source::Resident(ResidentPlan {
                        form: Arc::clone(form),
                        prepared: Arc::clone(&entry.prepared),
                        q_atom: q_atom.clone(),
                        cover: None,
                        fallback: plan,
                    }));
                }
                plan
            }
            None => {
                self.metrics.cache_misses.inc();
                let cfg = OptimizerConfig {
                    verify: self.cfg.verify,
                    ..OptimizerConfig::default()
                };
                let prepared =
                    prepare(&ctx.rules.rules, &ctx.query.atom.pred, &ctx.adornment, &cfg)
                        .map_err(|e| Response::err(format!("optimizer: {e}")))?;
                let entry = cache.insert(ctx.key.clone(), prepared);
                ColdPlan {
                    status: "miss",
                    prepared: Arc::clone(&entry.prepared),
                    pin: self.pin_atom(ctx, entry),
                }
            }
        };
        // Not live itself: a live form that covers it answers it, by
        // Lemma 3.2, without building anything. An explicitly adorned
        // query may name a `d` position, which the covering read would
        // return as a column, so only a query whose `d` positions are its
        // wildcards is covered.
        if ctx.query.atom.pred.adornment.is_none() {
            if let Some((key, entry)) = cache.live_cover(&ctx.key) {
                let q_atom = entry.prepared.instantiate_atom(&ctx.query.atom);
                if let (Some(form), Some(q_atom)) = (&entry.resident, q_atom) {
                    return Ok(Source::Resident(ResidentPlan {
                        form: Arc::clone(form),
                        prepared: Arc::clone(&entry.prepared),
                        q_atom,
                        cover: Some(key.clone()),
                        fallback: own,
                    }));
                }
            }
        }
        Ok(Source::Cold(own))
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
    /// form to the query's snapshot and answer from the query form's read
    /// slot or a fresh read. If the form died mid-plan (poisoned — already
    /// counted and dropped) the plan's fallback recomputes from cold.
    fn serve_resident(&self, ctx: &QueryCtx, plan: ResidentPlan) -> Result<Served, Response> {
        let key = plan.cover.as_ref().unwrap_or(&ctx.key);
        let read = Some((&ctx.key, &plan.q_atom, ctx.query_repr.as_str()));
        let Ok(Some((tag, table))) = self.drain(key, &plan.form, &ctx.snapshot, read) else {
            return self.serve_cold(ctx, plan.fallback);
        };
        if tag == "answers" {
            self.metrics.answer_hits.inc();
        } else if plan.cover.is_some() {
            self.metrics.covered_reads.inc();
        }
        Ok(Served {
            tag,
            table,
            prepared: plan.prepared,
            served_by: plan.cover,
            optimized: (plan.fallback.status == "miss").then_some(plan.fallback.prepared),
            cold: None,
        })
    }

    /// The evaluation limits and knobs of every fixpoint the server runs,
    /// for a request that began at `started`.
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

    /// Evaluate a prepared form from the snapshot, and pin the state, with
    /// the query's read in its slot, when the plan says so. A tripped
    /// evaluation is answered with its partial stats and nothing is
    /// pinned: a resident must never hold a truncated fixpoint.
    fn serve_cold(&self, ctx: &QueryCtx, plan: ColdPlan) -> Result<Served, Response> {
        let d_cache = ctx.t_cache.elapsed();
        let rebuild = plan.status == "hit" && plan.pin.is_some();
        if rebuild {
            self.metrics.fallback_recomputes.inc();
        }
        let prepared = &plan.prepared;
        let (bound, cost_hints) = Self::live_bound(prepared, &ctx.snapshot);
        // Bound-aware admission: the static derivation bound at this
        // snapshot's cardinalities upper-bounds what the fixpoint can
        // derive. If that ceiling already exceeds the fact budget the trip
        // is inevitable — refuse before a single iteration.
        if let Some(budget) = self.cfg.fact_budget {
            if bound > budget && !self.cfg.fault.bound_admission_skipped() {
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
        let table = Rendered::of(&answers);
        if let Some(mut form) = pinned {
            // Built at this snapshot: the table is its frontier's read.
            let slot = (ctx.query_repr.clone(), table.clone());
            form.reads.insert(ctx.key.clone(), slot);
            self.pin_built(&ctx.key, prepared, form, rebuild);
        }
        Ok(Served {
            tag: plan.status,
            table,
            optimized: (plan.status == "miss").then(|| Arc::clone(&plan.prepared)),
            prepared: plan.prepared,
            served_by: None,
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
            // drain and read.
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
            served_by: served.served_by,
            optimized: served.optimized,
        });
        Response::ok()
            .with_info("cache", served.tag)
            .with_info("answers", served.table.answers)
            .with_info("frontier", ctx.snapshot.version())
            .with_info("wall_us", ctx.started.elapsed().as_micros())
            .with_payload(served.table.payload, served.table.lines)
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
            .with(
                "served_by",
                served.served_by.as_ref().map_or(Json::Null, form_json),
            )
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

/// A form's identity as `TRACE` and the slow-query line print it.
fn form_json(key: &FormKey) -> Json {
    Json::obj()
        .with("fingerprint", format!("{:016x}", key.fingerprint))
        .with("pred", key.pred.as_str())
        .with("adornment", key.adornment.as_str())
}

/// What `TRACE` renders: the last answered query and how it was served.
pub(crate) struct LastQuery {
    query: Query,
    key: FormKey,
    tag: &'static str,
    /// The answering form's program.
    prepared: Arc<PreparedProgram>,
    served_by: Option<FormKey>,
    optimized: Option<Arc<PreparedProgram>>,
}

impl LastQuery {
    /// The `TRACE` document. `form` is the query's own form, `served_by`
    /// the covering form that answered it (or `null`), and
    /// `prepared_report` the answering form's report. `new_events` holds
    /// the phase events the optimizer emitted *for this request* — the
    /// query's own form's full trace on a first sighting, empty on any
    /// cache hit (the observable promised by the prepared-query cache).
    pub(crate) fn to_json(&self) -> Json {
        let new_events: Vec<Json> = self
            .optimized
            .iter()
            .flat_map(|p| p.report.events().map(|e| e.to_json()))
            .collect();
        Json::obj()
            .with("query", self.query.to_string())
            .with("form", form_json(&self.key))
            .with(
                "served_by",
                self.served_by.as_ref().map_or(Json::Null, form_json),
            )
            .with("cache", self.tag)
            .with("new_events", Json::Arr(new_events))
            .with("prepared_report", self.prepared.report.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::protocol::Request;
    use crate::server::ServerConfig;
    use datalog_ast::{PredRef, Value};
    use datalog_engine::incremental::{DeltaLimits, Fact};
    use datalog_engine::CancelToken;

    const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\np(1, 2).\np(2, 3).\n";

    /// A server under `cfg` with `src` loaded.
    fn loaded(cfg: &ServerConfig, src: &str) -> ServerState {
        let state = ServerState::from_config(cfg).unwrap();
        let file = std::env::temp_dir().join(format!(
            "xdl-query-{}-{:?}.dl",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&file, src).unwrap();
        let loaded = state.handle(&Request::Load(file.display().to_string()));
        std::fs::remove_file(&file).unwrap();
        assert!(loaded.ok, "{}", loaded.error);
        state
    }

    /// Ingest always drains the covering form before a query plans, so
    /// only a plan in hand reaches the case where the covering form dies
    /// between `choose_source` and the read. The fallback must evaluate
    /// the *covered* form's own program and pin it under the covered key:
    /// pinning the covering form's state there would make every later read
    /// of the covered form ask an atom of the wrong arity.
    #[test]
    fn a_cover_poisoned_mid_plan_recomputes_and_pins_the_covered_form() {
        let state = loaded(&ServerConfig::default(), TC);
        let ask = |text: &str| {
            let resp = state.handle(&Request::query(text));
            assert!(resp.ok, "{text}: {}", resp.error);
            resp
        };
        // `a[nd]` pins, then `a[nn]` pins and retires it.
        assert_eq!(ask("?- a(X, _).").get("cache"), Some("miss"));
        assert_eq!(ask("?- a(X, Y).").get("cache"), Some("miss"));

        let ctx = state.resolve("?- a(W, _).", Instant::now()).unwrap();
        let Ok(Source::Resident(plan)) = state.choose_source(&ctx) else {
            panic!("a[nd] is covered by the live a[nn]");
        };
        assert_eq!(
            plan.cover.as_ref().map(|k| k.adornment.as_str()),
            Some("nn")
        );
        {
            // A propagation under a cancelled token poisons the state.
            let cancelled = CancelToken::new();
            cancelled.cancel();
            let limits = DeltaLimits {
                deadline: None,
                cancel: Some(cancelled),
            };
            let row = vec![Value::int(7), Value::int(8)];
            let mut form = lock(&plan.form);
            let fact = Fact::new(PredRef::new("p"), row);
            assert!(form.eval.apply_deltas(&[fact], &limits).is_err());
        }
        let served = state.serve_resident(&ctx, plan).unwrap();
        let resp = state.respond(ctx, served);
        assert_eq!(resp.get("cache"), Some("hit"), "recomputed from cold");
        assert_eq!(resp.payload_text(), "W\n1\n2\n");
        // The covered form is live with its own program.
        for (text, want) in [("?- a(V, _).", "V\n1\n2\n"), ("?- a(U, _).", "U\n1\n2\n")] {
            let resp = ask(text);
            assert_eq!(resp.get("cache"), Some("resident"), "{text}");
            assert_eq!(resp.payload_text(), want, "{text}");
        }
        let stats = state.handle(&Request::Stats).payload_text();
        for counter in [
            "\"resident_forms\":1",
            "\"resident_poisonings\":1",
            "\"fallback_recomputes\":1",
            "\"resident_rebuilds\":1",
            "\"covered_retired\":1",
            "\"covered_reads\":0",
        ] {
            assert!(stats.contains(counter), "{counter}: {stats}");
        }
    }

    /// A live `a[nn]` keeps one read per form it answers: a repeated text
    /// is `answers`, byte for byte the read that filled the slot. New rows
    /// clear every slot, so the next read is the frontier's again and
    /// equals the form's own cold evaluation; a duplicate row clears
    /// nothing. Retiring, poisoning or evicting the form drops its slots
    /// (a retiring form reads their texts again off its own frontier), and
    /// a cold form recomputes on every repeat.
    #[test]
    fn kept_reads_repeat_until_rows_arrive_and_go_with_their_form() {
        let fault = Arc::new(FaultPlan::new());
        let src = format!("{TC}b(X, Y) :- p(Y, X).\n");
        let state = loaded(
            &ServerConfig {
                resident_forms: 1,
                fault: Arc::clone(&fault),
                ..ServerConfig::default()
            },
            &src,
        );
        let cold = loaded(
            &ServerConfig {
                resident_forms: 0,
                ..ServerConfig::default()
            },
            &src,
        );
        let ask = |state: &ServerState, text: &str, want: &str| {
            let resp = state.handle(&Request::query(text));
            assert!(resp.ok, "{text}: {}", resp.error);
            assert_eq!(resp.get("cache"), Some(want), "{text}");
            resp.payload_text()
        };
        let fact = |text: &str, new: &str| {
            for s in [&state, &cold] {
                let resp = s.handle(&Request::Fact(text.into()));
                assert_eq!(resp.get("new"), Some(new), "{text}");
            }
        };
        let stat = |name: &str| {
            let doc = state.handle(&Request::Stats).payload_text();
            let at = doc.find(&format!("\"{name}\":")).unwrap() + name.len() + 3;
            doc[at..]
                .split([',', '}'])
                .next()
                .unwrap()
                .parse::<u64>()
                .unwrap()
        };
        const FORMS: [&str; 2] = ["?- a(X, _).", "?- a(_, _)."];

        ask(&state, "?- a(X, Y).", "miss");
        for text in FORMS {
            let read = ask(&state, text, "resident");
            assert_eq!(ask(&state, text, "answers"), read, "{text}");
        }
        // Cold forms keep nothing: every repeat evaluates.
        for text in FORMS {
            let first = ask(&cold, text, "miss");
            assert_eq!(ask(&cold, text, "hit"), first, "{text}");
        }
        assert_eq!(stat("answer_hits"), 2);

        fact("p(3, 4).", "true");
        assert_eq!(stat("invalidations"), 3, "a(X, Y), a(X, _), a(_, _)");
        for text in FORMS {
            let read = ask(&state, text, "resident");
            assert_eq!(read, ask(&cold, text, "hit"), "{text}");
            assert_eq!(ask(&state, text, "answers"), read, "{text}");
        }
        fact("p(3, 4).", "false");
        for text in FORMS {
            ask(&state, text, "answers");
        }
        assert_eq!((stat("answer_hits"), stat("invalidations")), (6, 3));

        // Poisoned: `a[nn]` and its slots are gone, so `a[nd]` evaluates
        // its own program and pins it (with the query's read in its slot).
        fault.fail_drains(1);
        fact("p(4, 5).", "true");
        let read = ask(&state, FORMS[0], "hit");
        assert_eq!(read, ask(&cold, FORMS[0], "hit"));
        assert_eq!(ask(&state, FORMS[0], "answers"), read);
        // Retired: pinning `a[nn]` again drops `a[nd]` and its slot, and
        // `a[nn]` reads the slot's text off its own frontier instead.
        const ADORNED: &str = "?- a[nd](X, Y).";
        let adorned = ask(&state, ADORNED, "resident");
        assert_eq!(adorned, ask(&cold, ADORNED, "hit"));
        // One slot per form: the adorned text took `a[nd]`'s.
        assert_eq!(ask(&state, FORMS[0], "resident"), read);
        let nd = state.resolve(FORMS[0], Instant::now()).unwrap().key;
        let retired = lock(&state.cache).peek_mut(&nd).unwrap().resident.clone();
        let retired = retired.expect("a[nd] is live");
        ask(&state, "?- a(X, Y).", "hit");
        assert_eq!(Arc::strong_count(&retired), 1, "the cache let go of it");
        assert!(lock(&retired).reads.is_empty());
        assert_eq!(ask(&state, FORMS[0], "answers"), read);
        // An explicitly adorned text is never a covered read: it evaluates
        // its own form, which pins again (evicting `a[nn]`).
        assert_eq!(ask(&state, ADORNED, "hit"), adorned);
        // Evicted: one resident slot, and `b[nn]` takes it.
        ask(&state, "?- b(X, Y).", "miss");
        assert_eq!(ask(&state, FORMS[0], "hit"), read);
        assert_eq!(
            (stat("resident_poisonings"), stat("covered_retired")),
            (1, 1)
        );
    }
}
