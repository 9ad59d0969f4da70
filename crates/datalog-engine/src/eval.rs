//! Naive and semi-naive bottom-up fixpoint evaluation.
//!
//! This is the execution model of §1.1 of the paper: start from the EDB
//! (plus any seeded IDB facts, for uniform-equivalence tests), apply every
//! rule to a fixpoint, then select/project the query predicate.
//!
//! The semi-naive strategy addresses each rule once per *delta literal*: at
//! iteration `k` the literal designated as the delta ranges over the rows
//! its predicate gained during iteration `k-1`; literals at earlier body
//! positions range over the full relation as of the start of iteration `k`,
//! literals at later body positions over the relation as of the start of
//! iteration `k-1`. This enumerates every new body instantiation exactly
//! once.
//!
//! A literal's *range* is fixed by its body position; the *order* in which
//! the join walks the literals is not. Every rule compiles to a base order
//! (the body, left to right) and one delta-first order per body position
//! (that literal, then greedily the literal with the most bound columns).
//! A variant walks its delta-first order when its delta is shorter than the
//! range the base order would walk first, so propagating a handful of new
//! rows costs a handful of probes instead of a scan of the outer relation.
//! Both orders enumerate the same instantiations, so `derivations`,
//! `facts_derived`, `duplicates` and `iterations` do not depend on the
//! choice; only `tuples_scanned` and `index_probes` do.
//!
//! The **boolean-cut runtime** of §3.1 is implemented here: when the program
//! was rewritten so that existential subqueries became zero-arity `B`
//! predicates, enabling [`EvalOptions::boolean_cut`] retires each `B` rule
//! from the fixpoint as soon as `B` is proven, then transitively retires
//! rules whose head predicate no longer has any consumer (the paper's
//! "if `q4` does not appear anywhere else in the program, the rule defining
//! it can also be discarded after `B2` is shown true").
//!
//! The final select/project is [`extract_answers`]: the query atom is
//! compiled once into selections, equalities and output columns and read
//! off the relation as a membership test, an index probe or a projecting
//! scan — never by matching the atom against each row (that is
//! [`crate::oracle::extract_by_matching`], kept as the test reference).
//!
//! # Execution model: one loop over the join variants
//!
//! Each fixpoint iteration runs on the calling thread. At the iteration
//! barrier the marks are taken and the iteration's *join variants* are
//! fixed from that state: one per (rule, delta literal) pair whose delta
//! is non-empty, or one per rule in a seed or naive round. Then each
//! variant in turn ensures the indexes its join order probes, enumerates
//! its whole outer range into one flat candidate buffer (head values,
//! arity-strided; premise rows only when provenance is recorded), and is
//! merged right away. The merge is where deduplication, provenance, the
//! fact budget and the per-rule profile attribution happen.
//!
//! Enumeration reads only rows below the iteration-start marks, so what a
//! variant enumerates does not depend on the merges before it. With the
//! variant list fixed at the barrier and merged in order, the database,
//! stats, provenance and profile counters are a pure function of the
//! program and its input, row for row.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use datalog_ast::{PredRef, Program, Term, Value};
use datalog_trace::metrics::EvalHists;
use datalog_trace::{EvalProfile, IterationProfile, PredDelta, RuleProfile};

use crate::cancel::{CancelToken, Clock};
use crate::database::{Database, PredId};
use crate::facts::{AnswerSet, Batch, Edb};
use crate::provenance::Provenance;
use crate::stats::EvalStats;
use crate::EngineError;

/// How many joined rows a join variant may enumerate between cooperative
/// limit checks (deadline / cancellation). Small enough that a single
/// pathological cross product observes its deadline well within the 2×
/// envelope the server promises; large enough that the check (one
/// `Instant::now()` + two atomic loads) is amortized to noise.
const LIMIT_CHECK_INTERVAL: u32 = 4096;

/// Fixpoint strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Re-derive everything from the full relations each iteration.
    Naive,
    /// Standard semi-naive (delta-driven) evaluation.
    #[default]
    SemiNaive,
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Fixpoint strategy (default: semi-naive).
    pub strategy: Strategy,
    /// Enable the §3.1 boolean-cut runtime.
    pub boolean_cut: bool,
    /// Record derivation provenance (first derivation per fact).
    pub record_provenance: bool,
    /// Greedily reorder body literals at compile time so that each literal
    /// shares variables with (or has constants bound before) the ones
    /// already placed — turning cold scans into index probes. Off by
    /// default so the experiment counters reflect source order.
    pub reorder_joins: bool,
    /// Collect a per-rule / per-iteration [`EvalProfile`]: each rule's
    /// share of the [`EvalStats`] counters plus wall time, the
    /// per-iteration predicate-growth timeline, and the iteration at which
    /// the §3.1 cut retired each rule. Off by default; when off, the only
    /// cost is one branch per rule per iteration (the join inner loops are
    /// untouched either way — attribution works by differencing the global
    /// counters around each rule's join variants).
    pub profile: bool,
    /// Safety bound on fixpoint iterations.
    pub max_iterations: usize,
    /// Wall-clock deadline. Checked cooperatively at every iteration
    /// boundary and every [`LIMIT_CHECK_INTERVAL`] joined rows inside a
    /// rule application; exceeding it returns
    /// [`EngineError::DeadlineExceeded`] with the partial [`EvalStats`].
    pub deadline: Option<Instant>,
    /// The clock the deadline is read against (and the evaluation's start,
    /// for the `elapsed_ms` a trip reports). Monotonic by default; a
    /// [`ManualClock`](crate::ManualClock) makes the tripping poll exact.
    pub clock: Clock,
    /// Bound on *new* derived facts. Checked exactly, at every successful
    /// derivation; exceeding it returns [`EngineError::BudgetExceeded`].
    pub fact_budget: Option<u64>,
    /// Cooperative cancellation flag, polled on the same cadence as the
    /// deadline. Triggering it returns [`EngineError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Ignored; the fixpoint runs on the calling thread. Kept only while
    /// the benchmark's layer probes still set it.
    pub threads: usize,
    /// Always-on telemetry histograms (enumeration wall per join variant,
    /// merge time per iteration), shared with a server's metric registry.
    /// `None` costs one branch per variant; a handle from a disabled
    /// registry costs one more branch inside
    /// [`datalog_trace::Histogram::record`].
    pub metrics: Option<EvalHists>,
    /// Per-predicate row-count estimates (rendered predicate name →
    /// estimated rows) that [`EvalOptions::reorder_joins`] uses as cost
    /// tie-breaks: among literals sharing equally many bound variables,
    /// the cheaper relation is joined first, and the seed literal prefers
    /// the smallest estimate. The server evaluates these from the static
    /// size-bound analysis (`datalog_lint::bounds`) against live EDB
    /// cardinalities; `None` keeps the purely structural greedy order
    /// byte-for-byte.
    pub cost_hints: Option<std::sync::Arc<std::collections::BTreeMap<String, u64>>>,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: Strategy::SemiNaive,
            boolean_cut: false,
            record_provenance: false,
            reorder_joins: false,
            profile: false,
            max_iterations: 1_000_000,
            deadline: None,
            clock: Clock::Monotonic,
            fact_budget: None,
            cancel: None,
            threads: 1,
            metrics: None,
            cost_hints: None,
        }
    }
}

/// Result of a fixpoint evaluation.
#[derive(Debug)]
pub struct EvalOutput {
    /// The saturated database (EDB + all derived facts).
    pub database: Database,
    /// Instrumentation counters.
    pub stats: EvalStats,
    /// Provenance, if requested.
    pub provenance: Option<Provenance>,
    /// Per-rule / per-iteration profile, if [`EvalOptions::profile`] was
    /// set. Its per-rule counters partition the global [`EvalStats`]: each
    /// counter summed over all rules equals the global value.
    pub profile: Option<EvalProfile>,
}

/// A term slot in a compiled rule: constant or rule-local variable index.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Const(Value),
    Var(u16),
}

#[derive(Debug, Clone)]
struct LitPlan {
    pred: PredId,
    slots: Vec<Slot>,
}

/// One step of a join order: the body literal visited and how it is read.
#[derive(Debug, Clone)]
struct Step {
    /// Body position of the literal. It fixes the literal's row range in a
    /// delta variant and its slot in the premise list, whatever the order.
    lit: usize,
    /// Columns bound when the join reaches this step (constants plus
    /// variables bound by earlier steps), sorted ascending. Non-empty sets
    /// name the composite index the step probes; it is ensured before a
    /// variant walking this order enumerates, so probing never mutates the
    /// database. Empty means the step scans its range.
    probe: Box<[usize]>,
    /// Per column of the literal: whether it holds a variable's first
    /// occurrence in the order (no earlier step and no earlier column binds
    /// it), so that matching a row writes the variable instead of comparing
    /// it. Every other column is compared.
    binds: Box<[bool]>,
}

#[derive(Debug, Clone)]
pub(crate) struct RulePlan {
    rule_idx: usize,
    head: PredId,
    head_slots: Vec<Slot>,
    body: Vec<LitPlan>,
    /// The body walked left to right: the seed round, the naive strategy
    /// and every variant whose delta is not the shorter range walk this.
    base: Vec<Step>,
    /// `delta_first[d]` starts at body literal `d`, then greedily takes the
    /// literal with the most bound columns (ties: body position).
    delta_first: Vec<Vec<Step>>,
    /// Negated literals, checked once the positive body is fully matched.
    /// Safety guarantees all their variables are bound by then, and
    /// stratification guarantees their relations are complete.
    negatives: Vec<LitPlan>,
    nvars: usize,
}

/// Which row range a literal reads in one join variant.
#[derive(Debug, Clone, Copy)]
enum Range {
    Full,
    Delta,
    Old,
}

/// Which resource limit tripped mid-evaluation. Converted to an
/// [`EngineError`] (with the freshest stats and elapsed time) once the
/// join recursion has unwound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trip {
    /// The deadline passed, `elapsed_ms` after the evaluation started.
    Deadline(u64),
    Budget(u64),
    Cancelled,
}

/// One join variant of an iteration: a rule and the body literal that
/// reads the delta. The set of variants is fixed from iteration-start
/// state; which order a variant walks follows from the frozen marks.
#[derive(Debug, Clone, Copy)]
struct Variant {
    plan_idx: usize,
    /// `None` = all literals read `Full` (naive strategy / seed round).
    delta_idx: Option<usize>,
}

/// The candidates one variant's enumeration produced, in discovery order.
/// One buffer serves every variant of a stratum run, so a derivation
/// writes into reused capacity and allocates nothing.
#[derive(Debug, Default)]
struct Candidates {
    /// Head values, the head's arity per candidate.
    heads: Vec<Value>,
    /// Premise rows in body order, the body's length per candidate. Filled
    /// only when provenance is recorded.
    premises: Vec<(PredId, u32)>,
}

/// The join walk's working values, kept by a stratum run and reused by
/// each of its variants, so that the walk allocates nothing per row or per
/// probe.
#[derive(Debug, Default)]
struct Scratch {
    /// One value per rule variable. A step writes the variables it binds
    /// ([`Step::binds`]) before any later column or step reads them, so a
    /// value left from an earlier row is always overwritten before it is
    /// read and nothing is undone on backtrack.
    bindings: Vec<Value>,
    /// One slot per body literal, filled as the walk reaches it, so a
    /// premise list reads in body order whichever order enumerated it.
    premises: Vec<(PredId, u32)>,
    /// The probe key being built.
    key: Vec<Value>,
    /// The negated tuple being tested.
    tuple: Vec<Value>,
}

/// One variant's join walk. Reads the machine frozen at the iteration
/// barrier; writes only the candidate buffer, its scratch and its own
/// counters, which the merge folds into the global [`EvalStats`].
struct Enumerator<'v> {
    m: &'v Machine,
    plan: &'v RulePlan,
    order: &'v [Step],
    delta_idx: Option<usize>,
    out: &'v mut Candidates,
    scratch: &'v mut Scratch,
    derivations: u64,
    tuples_scanned: u64,
    index_probes: u64,
    /// Countdown to the next cooperative limit check.
    until_check: u32,
    /// Set once a boolean head found its witness (§3.1): unwind, one
    /// candidate is all the merge will keep anyway.
    stop: bool,
    /// Deadline or cancellation observed mid-enumeration. The merge adopts
    /// it after applying the buffer.
    trip: Option<Trip>,
}

impl Enumerator<'_> {
    fn join_from(&mut self, outer: (usize, usize), step: usize) {
        let (m, plan, order) = (self.m, self.plan, self.order);
        let Some(Step { lit, probe, .. }) = order.get(step) else {
            if self.negatives_hold() {
                self.emit();
            }
            return;
        };
        let lp = &plan.body[*lit];
        let (start, end) = if step == 0 {
            outer
        } else {
            // The range follows the literal's body position, not the step.
            let range = match self.delta_idx {
                None => Range::Full,
                Some(d) if *lit < d => Range::Full,
                Some(d) if *lit == d => Range::Delta,
                Some(_) => Range::Old,
            };
            m.bounds(lp.pred, range)
        };
        if start >= end {
            return;
        }
        if probe.is_empty() {
            // No bound column: scan the range.
            for row_id in start as u32..end as u32 {
                if !self.try_row(outer, step, row_id) {
                    return;
                }
            }
        } else {
            // Probe the composite index over every bound column; the
            // binary-searched subslice holds exactly this range's hits.
            self.index_probes += 1;
            let Scratch { bindings, key, .. } = &mut *self.scratch;
            key.clear();
            key.extend(probe.iter().map(|&col| match lp.slots[col] {
                Slot::Const(c) => c,
                Slot::Var(v) => bindings[v as usize],
            }));
            let hits = m.db.relation(lp.pred).probe_range(probe, key, start, end);
            for &row_id in hits {
                if !self.try_row(outer, step, row_id) {
                    return;
                }
            }
        }
    }

    /// Match one candidate row at `step` and recurse. Returns `false` when
    /// the enumeration must unwind (limit trip or boolean stop).
    fn try_row(&mut self, outer: (usize, usize), step: usize, row_id: u32) -> bool {
        self.tuples_scanned += 1;
        // Cooperative limit check: a variant enumerating a pathological
        // cross product must still observe its deadline (or cancellation)
        // promptly, not only at the iteration barrier.
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = LIMIT_CHECK_INTERVAL;
            self.trip = self.m.due_trip();
            if self.trip.is_some() {
                return false;
            }
        }
        let Step { lit, binds, .. } = &self.order[step];
        let lp = &self.plan.body[*lit];
        let row = self.m.db.relation(lp.pred).row(row_id as usize);
        // Match the row against the slots: a column that binds writes its
        // variable, every other column compares.
        let bindings = &mut self.scratch.bindings;
        let ok = lp
            .slots
            .iter()
            .zip(binds.iter())
            .zip(row)
            .all(|((s, &bind), &val)| match *s {
                Slot::Const(c) => val == c,
                Slot::Var(v) if bind => {
                    bindings[v as usize] = val;
                    true
                }
                Slot::Var(v) => bindings[v as usize] == val,
            });
        if ok {
            self.scratch.premises[*lit] = (lp.pred, row_id);
            self.join_from(outer, step + 1);
        }
        !(self.stop || self.trip.is_some())
    }

    /// Check the negated literals under the fully bound variables.
    /// Stratification guarantees the negated relations are complete, so a
    /// plain membership test implements negation-as-failure.
    fn negatives_hold(&mut self) -> bool {
        let Scratch {
            bindings, tuple, ..
        } = &mut *self.scratch;
        for neg in &self.plan.negatives {
            tuple.clear();
            tuple.extend(neg.slots.iter().map(|s| match *s {
                Slot::Const(c) => c,
                Slot::Var(v) => bindings[v as usize],
            }));
            self.index_probes += 1;
            if self.m.db.relation(neg.pred).contains(tuple) {
                return false;
            }
        }
        true
    }

    fn emit(&mut self) {
        self.derivations += 1;
        let bindings = &self.scratch.bindings;
        self.out
            .heads
            .extend(self.plan.head_slots.iter().map(|s| match *s {
                Slot::Const(c) => c,
                Slot::Var(v) => bindings[v as usize],
            }));
        if self.m.provenance.is_some() {
            self.out.premises.extend_from_slice(&self.scratch.premises);
        }
        // One witness suffices for a boolean head (section 3.1's cut).
        if self.m.boolean_cut && self.plan.head_slots.is_empty() {
            self.stop = true;
        }
    }
}

/// The fixpoint's working state: the database it grows and everything a
/// run of [`Machine::run_stratum`] reads or counts. [`Machine::start`]
/// builds it for a cold evaluation; a resident form keeps it between
/// batches.
#[derive(Debug)]
pub(crate) struct Machine {
    pub(crate) db: Database,
    pub(crate) plans: Vec<RulePlan>,
    /// The program's strata, lowest first (see [`Machine::run_strata`]).
    strata: Vec<Stratum>,
    /// Active rule mask (boolean cut retires rules by clearing bits).
    pub(crate) active: Vec<bool>,
    /// Per-predicate row-count at the start of the previous iteration.
    pub(crate) mark_prev: Vec<usize>,
    /// Per-predicate row-count at the start of the current iteration.
    pub(crate) mark_cur: Vec<usize>,
    pub(crate) stats: EvalStats,
    pub(crate) provenance: Option<Provenance>,
    /// Per-rule counters + timeline, accumulated when profiling is on.
    pub(crate) profile: Option<EvalProfile>,
    pub(crate) query_pred: Option<PredId>,
    pub(crate) boolean_cut: bool,
    /// Telemetry histograms shared with the serving layer (see
    /// [`EvalOptions::metrics`]).
    pub(crate) metrics: Option<EvalHists>,
    /// Start of the evaluation on `clock` (for the `elapsed_ms` a
    /// deadline trip reports).
    pub(crate) started: Instant,
    pub(crate) deadline: Option<Instant>,
    pub(crate) clock: Clock,
    pub(crate) fact_budget: Option<u64>,
    pub(crate) cancel: Option<CancelToken>,
    /// A tripped limit; once set, the merge stops applying buffers and the
    /// fixpoint loop converts it into the corresponding [`EngineError`].
    pub(crate) trip: Option<Trip>,
}

impl Machine {
    /// The one cold start of a fixpoint, shared by [`evaluate`] and
    /// [`crate::incremental::ResidentEval::new`]: validate the program,
    /// compile it against a fresh database, load `input` ([`load_input`]),
    /// stratify it, and take limits, provenance, profiling and the boolean
    /// cut from `opts`. Also returns the program's arities.
    pub(crate) fn start(
        program: &Program,
        input: Edb,
        opts: &EvalOptions,
    ) -> Result<(Machine, BTreeMap<PredRef, usize>), EngineError> {
        program.validate()?;
        let arities = program.arities()?;
        let mut db = Database::new();
        let plans = compile(
            program,
            &arities,
            &mut db,
            opts.reorder_joins,
            opts.cost_hints.as_deref(),
        );
        load_input(&mut db, &arities, input)?;
        let strata = Stratum::group(&plans, &stratify(program)?);
        let (n_preds, n_plans) = (db.pred_count(), plans.len());
        let query_pred = program
            .query
            .as_ref()
            .and_then(|q| db.pred_id(&q.atom.pred));
        let machine = Machine {
            db,
            plans,
            strata,
            active: vec![true; n_plans],
            mark_prev: vec![0; n_preds],
            mark_cur: vec![0; n_preds],
            stats: EvalStats::default(),
            provenance: opts.record_provenance.then(Provenance::new),
            profile: opts.profile.then(|| EvalProfile {
                rules: (0..n_plans)
                    .map(|i| RuleProfile {
                        rule_idx: i,
                        ..RuleProfile::default()
                    })
                    .collect(),
                timeline: Vec::new(),
            }),
            query_pred,
            boolean_cut: opts.boolean_cut,
            metrics: opts.metrics.clone(),
            started: opts.clock.now(),
            deadline: opts.deadline,
            clock: opts.clock.clone(),
            fact_budget: opts.fact_budget,
            cancel: opts.cancel.clone(),
            trip: None,
        };
        Ok((machine, arities))
    }

    /// The deadline or cancellation trip due now, if any. The derived-fact
    /// budget is not polled: it counts distinct new facts, which only the
    /// merge ([`Machine::run_variant`]) knows, and it is checked there.
    fn due_trip(&self) -> Option<Trip> {
        if let Some(deadline) = self.deadline {
            let now = self.clock.now();
            if now >= deadline {
                let elapsed = now.saturating_duration_since(self.started);
                return Some(Trip::Deadline(elapsed.as_millis() as u64));
            }
        }
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            Some(Trip::Cancelled)
        } else {
            None
        }
    }

    /// Convert a recorded trip into its error, with up-to-date stats.
    fn take_trip(&mut self) -> Option<EngineError> {
        self.trip.take().map(|t| match t {
            Trip::Deadline(elapsed_ms) => EngineError::DeadlineExceeded {
                elapsed_ms,
                stats: self.stats,
            },
            Trip::Budget(budget) => EngineError::BudgetExceeded {
                budget,
                stats: self.stats,
            },
            Trip::Cancelled => EngineError::Cancelled { stats: self.stats },
        })
    }

    fn bounds(&self, pred: PredId, range: Range) -> (usize, usize) {
        let p = pred.0 as usize;
        match range {
            Range::Full => (0, self.mark_cur[p]),
            Range::Delta => (self.mark_prev[p], self.mark_cur[p]),
            Range::Old => (0, self.mark_prev[p]),
        }
    }

    /// Fix one iteration's join variants of `stratum`'s rules, in merge
    /// order, from frozen iteration-start state.
    fn plan_variants(&self, stratum: usize, seed_round: bool) -> Vec<Variant> {
        let mut variants = Vec::new();
        for &i in &self.strata[stratum].plans {
            if !self.active[i] {
                continue;
            }
            let plan = &self.plans[i];
            // Under the boolean cut, a proven zero-arity head needs no
            // further derivations at all.
            if self.boolean_cut
                && plan.head_slots.is_empty()
                && !self.db.relation(plan.head).is_empty()
            {
                continue;
            }
            if seed_round {
                variants.push(Variant {
                    plan_idx: i,
                    delta_idx: None,
                });
            } else {
                for lit in 0..plan.body.len() {
                    let (s, e) = self.bounds(plan.body[lit].pred, Range::Delta);
                    if s < e {
                        variants.push(Variant {
                            plan_idx: i,
                            delta_idx: Some(lit),
                        });
                    }
                }
            }
        }
        variants
    }

    /// Whether `v` walks its delta-first order, and the row range the
    /// first step of that order enumerates. The variant starts from its
    /// delta when that is shorter than the range the base order walks
    /// first; both depend only on the frozen marks.
    fn walk(&self, v: Variant) -> (bool, (usize, usize)) {
        let plan = &self.plans[v.plan_idx];
        let base_outer = match plan.body.first() {
            None => (0, 0),
            Some(l0) => {
                let range = match v.delta_idx {
                    Some(0) => Range::Delta,
                    _ => Range::Full,
                };
                self.bounds(l0.pred, range)
            }
        };
        match v.delta_idx {
            Some(d) => {
                let delta = self.bounds(plan.body[d].pred, Range::Delta);
                if delta.1 - delta.0 < base_outer.1 - base_outer.0 {
                    (true, delta)
                } else {
                    (false, base_outer)
                }
            }
            None => (false, base_outer),
        }
    }

    /// Run one join variant: ensure the indexes its order probes,
    /// enumerate its whole outer range into `buf`, and merge the buffer
    /// into the database in discovery order. The merge is the single
    /// mutation point of the fixpoint: dedup, provenance, the exact fact
    /// budget and profile attribution all live here. Returns the
    /// variant's (enumeration ns, merge ns).
    fn run_variant(
        &mut self,
        v: Variant,
        buf: &mut Candidates,
        scratch: &mut Scratch,
    ) -> (u64, u64) {
        let (delta_first, outer) = self.walk(v);
        let plan = &self.plans[v.plan_idx];
        let order = match v.delta_idx {
            Some(d) if delta_first => &plan.delta_first[d],
            _ => &plan.base,
        };
        // Built the first time an order that probes it runs, and kept
        // fresh by `insert` from then on; from here on the join probes
        // through `&Relation` only. An index no walked order probes never
        // exists (a cold run's EDB deltas are empty, so it never builds the
        // indexes only an EDB-delta variant wants).
        for step in order.iter().filter(|step| !step.probe.is_empty()) {
            self.db.ensure_index(plan.body[step.lit].pred, &step.probe);
        }
        buf.heads.clear();
        buf.premises.clear();
        // Every variable is written by the step that binds it before it is
        // read, so the placeholder is never seen.
        scratch.bindings.clear();
        scratch.bindings.resize(plan.nvars, Value::int(0));
        scratch.premises.clear();
        scratch.premises.resize(plan.body.len(), (PredId(0), 0));
        let t0 = Instant::now();
        let mut en = Enumerator {
            m: self,
            plan,
            order,
            delta_idx: v.delta_idx,
            out: buf,
            scratch,
            derivations: 0,
            tuples_scanned: 0,
            index_probes: 0,
            until_check: LIMIT_CHECK_INTERVAL,
            stop: false,
            trip: None,
        };
        en.join_from(outer, 0);
        let (derivations, tuples_scanned, index_probes, trip) =
            (en.derivations, en.tuples_scanned, en.index_probes, en.trip);
        let enum_ns = t0.elapsed().as_nanos() as u64;
        if let Some(h) = &self.metrics {
            h.task_enum.record(enum_ns);
        }

        let t1 = Instant::now();
        let before = self.stats;
        self.stats.derivations += derivations;
        self.stats.tuples_scanned += tuples_scanned;
        self.stats.index_probes += index_probes;
        let plan = &self.plans[v.plan_idx];
        let (head, rule_idx) = (plan.head, plan.rule_idx);
        let (arity, width) = (plan.head_slots.len(), plan.body.len());
        for i in 0..derivations as usize {
            if self.trip.is_some() {
                break;
            }
            let rel = self.db.relation_mut(head);
            let row_id = rel.len() as u32;
            if rel.insert(&buf.heads[i * arity..(i + 1) * arity]) {
                self.stats.facts_derived += 1;
                if let Some(p) = &mut self.provenance {
                    let premises = buf.premises[i * width..(i + 1) * width].to_vec();
                    p.record(head, row_id, rule_idx, premises);
                }
                // Exact budget enforcement: the (budget+1)-th new fact
                // trips. Checked here, not during enumeration, because only
                // the merge knows which candidates are new.
                if let Some(budget) = self.fact_budget {
                    if self.stats.facts_derived > budget {
                        self.trip = Some(Trip::Budget(budget));
                    }
                }
            } else {
                self.stats.duplicates += 1;
            }
        }
        if self.trip.is_none() {
            self.trip = trip;
        }
        let merge_ns = t1.elapsed().as_nanos() as u64;
        if let Some(profile) = &mut self.profile {
            let after = self.stats;
            let rule = &mut profile.rules[v.plan_idx];
            rule.evals += 1;
            rule.derivations += after.derivations - before.derivations;
            rule.facts_derived += after.facts_derived - before.facts_derived;
            rule.duplicates += after.duplicates - before.duplicates;
            rule.tuples_scanned += after.tuples_scanned - before.tuples_scanned;
            rule.index_probes += after.index_probes - before.index_probes;
            rule.wall_ns += enum_ns + merge_ns;
        }
        (enum_ns, merge_ns)
    }

    /// Append one iteration to the profile timeline: every predicate's
    /// growth relative to the iteration-start marks, the enumeration/merge
    /// wall split, plus rules retired by the boolean cut this iteration.
    #[allow(clippy::too_many_arguments)]
    fn record_iteration(
        &mut self,
        stratum: usize,
        wall_ns: u64,
        enum_ns: u64,
        merge_ns: u64,
        tasks: u64,
        retired: u64,
    ) {
        let iteration = self.stats.iterations;
        let mut deltas = Vec::new();
        for p in 0..self.db.pred_count() {
            let id = PredId(p as u32);
            let total = self.db.relation(id).len();
            let new = total - self.mark_cur[p];
            if new > 0 {
                deltas.push(PredDelta {
                    pred: self.db.pred_ref(id).to_string(),
                    new_facts: new as u64,
                    total: total as u64,
                });
            }
        }
        if let Some(profile) = &mut self.profile {
            profile.timeline.push(IterationProfile {
                iteration,
                stratum,
                wall_ns,
                enum_ns,
                merge_ns,
                tasks,
                deltas,
                rules_retired: retired,
            });
        }
    }

    /// Record the iteration at which the boolean cut retired rule `i`.
    fn mark_retired(&mut self, i: usize) {
        let iteration = self.stats.iterations;
        if let Some(profile) = &mut self.profile {
            let slot = &mut profile.rules[i].retired_at;
            if slot.is_none() {
                *slot = Some(iteration);
            }
        }
    }

    /// Run every stratum in order, each to its fixpoint once the strata
    /// below it are complete, so a negated literal reads a finished
    /// relation. The one strata loop of [`evaluate`] and of
    /// [`crate::incremental::ResidentEval`]; a program without negation is
    /// one stratum.
    ///
    /// `since == None` is a cold run: every stratum starts with a seed
    /// round, and every run is [`StratumRun::Recomputed`]. `since ==
    /// Some(lens)` continues a database that was converged when predicate
    /// `p` held `lens[p]` rows (`0` past the end) and has had input rows
    /// loaded since. Each stratum then does one of three things, returned
    /// in order:
    /// - [`StratumRun::Idle`]: no relation it reads, negates or defines
    ///   changed — no iteration;
    /// - [`StratumRun::Propagated`]: only relations it reads or defines
    ///   grew. No derived fact can have been falsified, so the stratum is
    ///   monotone for this batch: the rows past `lens` become iteration
    ///   1's deltas and no seed round runs;
    /// - [`StratumRun::Recomputed`]: a predicate it negates grew (a new row
    ///   can falsify a derived fact), or it reads or negates one that was
    ///   recomputed below it. Its head relations are cleared — rows, index
    ///   contents and provenance — and it reruns from a seed round over the
    ///   complete strata below.
    pub(crate) fn run_strata(
        &mut self,
        strategy: Strategy,
        max_iterations: usize,
        since: Option<&[usize]>,
    ) -> Result<Vec<StratumRun>, EngineError> {
        let mut runs = Vec::with_capacity(self.strata.len());
        let mut recomputed = vec![false; self.db.pred_count()];
        for s in 0..self.strata.len() {
            let run = match since {
                None => StratumRun::Recomputed,
                Some(lens) => self.strata[s].next_run(&self.db, lens, &recomputed),
            };
            runs.push(run);
            let seed_first = match (run, since) {
                (StratumRun::Idle, _) => continue,
                (StratumRun::Propagated, Some(lens)) => {
                    self.mark_prev.resize(self.db.pred_count(), 0);
                    for (p, mark) in self.mark_prev.iter_mut().enumerate() {
                        *mark = lens.get(p).copied().unwrap_or(0);
                    }
                    false
                }
                (_, Some(_)) => {
                    for &head in &self.strata[s].heads {
                        recomputed[head.0 as usize] = true;
                        self.db.relation_mut(head).clear();
                        if let Some(p) = &mut self.provenance {
                            p.forget(head);
                        }
                    }
                    true
                }
                (_, None) => true,
            };
            self.run_stratum(s, strategy, max_iterations, seed_first)?;
        }
        if since.is_some() {
            // Converged: every mark at its relation's length.
            let n_preds = self.db.pred_count();
            self.mark_cur.resize(n_preds, 0);
            for p in 0..n_preds {
                self.mark_cur[p] = self.db.relation(PredId(p as u32)).len();
            }
            self.mark_prev.clone_from(&self.mark_cur);
        }
        Ok(runs)
    }

    /// Run one stratum's fixpoint to convergence: each iteration takes the
    /// marks, fixes its join variants and runs them one after another
    /// ([`Machine::run_variant`]: ensure, enumerate, merge) through one
    /// candidate buffer. With `seed_first` (cold runs and recomputes) the
    /// first iteration is an all-`Full` seed round; without it (a
    /// propagation), iteration 1 already has its deltas — the rows past
    /// `mark_prev` — and the delta-variant discipline enumerates exactly
    /// the instantiations that touch at least one of them.
    fn run_stratum(
        &mut self,
        stratum: usize,
        strategy: Strategy,
        max_iterations: usize,
        seed_first: bool,
    ) -> Result<(), EngineError> {
        if self.strata[stratum].plans.is_empty() {
            return Ok(());
        }
        // Relations registered since the last call (incremental batches may
        // introduce predicates) start with empty history: mark 0 makes all
        // their rows the delta.
        let n_preds = self.db.pred_count();
        self.mark_prev.resize(n_preds, 0);
        self.mark_cur.resize(n_preds, 0);
        let mut buf = Candidates::default();
        let mut scratch = Scratch::default();
        let mut local_iter = 0usize;
        loop {
            if self.stats.iterations >= max_iterations {
                return Err(EngineError::IterationLimit {
                    limit: max_iterations,
                    stats: self.stats,
                });
            }
            // Iteration-boundary limit check: covers programs whose
            // per-iteration work never reaches the in-join check cadence.
            if self.trip.is_none() {
                self.trip = self.due_trip();
            }
            if let Some(e) = self.take_trip() {
                return Err(e);
            }
            self.stats.iterations += 1;
            local_iter += 1;
            let first = local_iter == 1 && seed_first;
            let iter_start = self.profile.is_some().then(Instant::now);
            let retired_before = self.stats.rules_retired;
            // Freeze barrier: snapshot the marks for this iteration. Storage
            // needs nothing here: `insert` has put every row into every
            // index already.
            for p in 0..n_preds {
                self.mark_cur[p] = self.db.relation(PredId(p as u32)).len();
            }
            let before = self.db.total_facts();
            // The seed round (and the naive strategy, every round) reads
            // all literals Full in the base order; semi-naive rounds get one
            // variant per non-empty delta, each in the order its range
            // lengths select.
            let seed_round = first || matches!(strategy, Strategy::Naive);
            let variants = self.plan_variants(stratum, seed_round);
            let (mut enum_ns, mut merge_ns) = (0u64, 0u64);
            for &v in &variants {
                if self.trip.is_some() {
                    break;
                }
                let (e, m) = self.run_variant(v, &mut buf, &mut scratch);
                enum_ns += e;
                merge_ns += m;
            }
            if let Some(h) = &self.metrics {
                h.merge.record(merge_ns);
            }
            // A limit tripped inside a variant: surface it now, before the
            // convergence test could mistake the partially merged
            // iteration for a fixpoint.
            if let Some(e) = self.take_trip() {
                return Err(e);
            }
            if self.boolean_cut {
                self.apply_boolean_cut();
            }
            if let Some(t0) = iter_start {
                let retired = self.stats.rules_retired - retired_before;
                self.record_iteration(
                    stratum,
                    t0.elapsed().as_nanos() as u64,
                    enum_ns,
                    merge_ns,
                    variants.len() as u64,
                    retired,
                );
            }
            // Advance marks: what was current becomes previous.
            for p in 0..n_preds {
                self.mark_prev[p] = self.mark_cur[p];
            }
            if self.db.total_facts() == before {
                return Ok(());
            }
        }
    }

    /// §3.1 boolean cut: retire rules defining proven zero-arity predicates,
    /// then transitively retire rules whose head predicate has no remaining
    /// consumer and is not the query predicate. A negated literal consumes
    /// its predicate just as a positive one does.
    fn apply_boolean_cut(&mut self) {
        // Retire rules of proven boolean predicates.
        for i in 0..self.plans.len() {
            if !self.active[i] {
                continue;
            }
            let head = self.plans[i].head;
            if self.db.relation(head).arity() == 0 && !self.db.relation(head).is_empty() {
                self.active[i] = false;
                self.stats.rules_retired += 1;
                self.mark_retired(i);
            }
        }
        // Transitively retire producers that nothing consumes any more.
        loop {
            let mut consumed: Vec<bool> = vec![false; self.db.pred_count()];
            if let Some(q) = self.query_pred {
                consumed[q.0 as usize] = true;
            }
            for (i, plan) in self.plans.iter().enumerate() {
                if self.active[i] {
                    for l in plan.body.iter().chain(&plan.negatives) {
                        consumed[l.pred.0 as usize] = true;
                    }
                }
            }
            let mut changed = false;
            for i in 0..self.plans.len() {
                if self.active[i] && !consumed[self.plans[i].head.0 as usize] {
                    self.active[i] = false;
                    self.stats.rules_retired += 1;
                    self.mark_retired(i);
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }
}

/// What one stratum did in one pass of [`Machine::run_strata`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StratumRun {
    /// No input changed: no iteration ran.
    Idle,
    /// The rows grown since the pass began were propagated as deltas.
    Propagated,
    /// Head relations cleared (on a resident pass) and rerun from a seed
    /// round; every stratum of a cold run.
    Recomputed,
}

/// One stratum of a compiled program: the rules it runs and the predicates
/// they define, read and negate.
#[derive(Debug, Default)]
struct Stratum {
    /// Plan indices, in program order.
    plans: Vec<usize>,
    heads: Vec<PredId>,
    /// Predicates of the rules' positive bodies.
    reads: Vec<PredId>,
    negated: Vec<PredId>,
}

impl Stratum {
    /// Group `plans` by `rule_strata` (a stratum number per rule): one
    /// entry per number from 0 to the highest, empty ones included.
    fn group(plans: &[RulePlan], rule_strata: &[usize]) -> Vec<Stratum> {
        let n = rule_strata.iter().copied().max().map_or(1, |m| m + 1);
        let mut strata: Vec<Stratum> = (0..n).map(|_| Stratum::default()).collect();
        for (i, plan) in plans.iter().enumerate() {
            let st = &mut strata[rule_strata[plan.rule_idx]];
            st.plans.push(i);
            st.heads.push(plan.head);
            st.reads.extend(plan.body.iter().map(|l| l.pred));
            st.negated.extend(plan.negatives.iter().map(|l| l.pred));
        }
        for st in &mut strata {
            for preds in [&mut st.heads, &mut st.reads, &mut st.negated] {
                preds.sort_unstable();
                preds.dedup();
            }
        }
        strata
    }

    /// What this stratum does on a resident pass (see
    /// [`Machine::run_strata`]): `lens` are the row counts the pass began
    /// at, `recomputed` marks the relations strata below cleared.
    fn next_run(&self, db: &Database, lens: &[usize], recomputed: &[bool]) -> StratumRun {
        let grown =
            |p: &PredId| db.relation(*p).len() > lens.get(p.0 as usize).copied().unwrap_or(0);
        let redone = |p: &PredId| recomputed.get(p.0 as usize).copied().unwrap_or(false);
        if self.negated.iter().any(|p| grown(p) || redone(p)) || self.reads.iter().any(redone) {
            StratumRun::Recomputed
        } else if self.reads.iter().chain(&self.heads).any(grown) {
            StratumRun::Propagated
        } else {
            StratumRun::Idle
        }
    }
}

/// Assign a stratum to every rule (by its head predicate): within a rule,
/// positive derived dependencies may be same-stratum, negated derived
/// dependencies must be strictly lower. Errors if no such assignment exists
/// (negation through recursion).
pub(crate) fn stratify(program: &Program) -> Result<Vec<usize>, EngineError> {
    let idb = program.idb_preds();
    let mut stratum: BTreeMap<&datalog_ast::PredRef, usize> = idb.iter().map(|p| (p, 0)).collect();
    let bound = idb.len() + 1;
    loop {
        let mut changed = false;
        for rule in &program.rules {
            let mut need = 0usize;
            for a in &rule.body {
                if let Some(&s) = stratum.get(&a.pred) {
                    need = need.max(s);
                }
            }
            for a in &rule.negative {
                if let Some(&s) = stratum.get(&a.pred) {
                    need = need.max(s + 1);
                }
            }
            let cur = stratum.get_mut(&rule.head.pred).expect("head is IDB");
            if need > *cur {
                if need > bound {
                    return Err(EngineError::NotStratified {
                        pred: rule.head.pred.to_string(),
                    });
                }
                *cur = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    Ok(program
        .rules
        .iter()
        .map(|r| stratum[&r.head.pred])
        .collect())
}

/// Greedy join order: start from the literal with the most constants
/// (ties: smallest estimated relation if `hints` are given, then source
/// order), then repeatedly append the literal sharing the most variables
/// with those already placed (ties: cheaper estimated relation, then more
/// constants, then source order). With `hints == None` the cost key is
/// constant, so the order is byte-identical to the historical structural
/// heuristic. Keeps every literal; only the order changes, which is
/// semantics-preserving for a fixpoint join.
fn greedy_order(
    body: &[datalog_ast::Atom],
    hints: Option<&std::collections::BTreeMap<String, u64>>,
) -> Vec<usize> {
    use std::collections::BTreeSet;
    let n = body.len();
    if n <= 1 {
        return (0..n).collect();
    }
    let consts = |i: usize| body[i].terms.iter().filter(|t| !t.is_var()).count();
    // Estimated rows; relations without an estimate sort last among ties.
    let cost = |i: usize| -> u64 {
        hints
            .and_then(|h| h.get(&body[i].pred.to_string()).copied())
            .unwrap_or(u64::MAX)
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut bound: BTreeSet<datalog_ast::Var> = BTreeSet::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    // Seed: most constants, then cheapest relation.
    let first_pos = (0..remaining.len())
        .max_by_key(|&k| {
            let i = remaining[k];
            (consts(i), std::cmp::Reverse(cost(i)), std::cmp::Reverse(k))
        })
        .expect("nonempty");
    let first = remaining.remove(first_pos);
    bound.extend(body[first].var_occurrences());
    order.push(first);
    while !remaining.is_empty() {
        let pos = (0..remaining.len())
            .max_by_key(|&k| {
                let i = remaining[k];
                let shared = body[i]
                    .var_occurrences()
                    .filter(|v| bound.contains(v))
                    .count();
                (
                    shared,
                    std::cmp::Reverse(cost(i)),
                    consts(i),
                    std::cmp::Reverse(k),
                )
            })
            .expect("nonempty");
        let i = remaining.remove(pos);
        bound.extend(body[i].var_occurrences());
        order.push(i);
    }
    order
}

/// Plan one join order over `body` with each step's probe columns. `first
/// == None` walks the body left to right; `Some(d)` starts at literal `d`
/// and then repeatedly takes the literal with the most bound columns (ties:
/// body position), so every later step probes as selectively as the
/// bindings allow.
///
/// A column is bound when the join reaches a step iff it holds a constant
/// or a variable some *earlier* step binds. (A variable repeated within one
/// literal is first bound by the row match itself, so it does not count.)
/// Columns are enumerated ascending, hence `probe` comes out sorted as the
/// index requires.
fn plan_order(body: &[LitPlan], first: Option<usize>) -> Vec<Step> {
    let mut bound_vars: HashSet<u16> = HashSet::new();
    let probe_of = |lit: usize, bound_vars: &HashSet<u16>| -> Box<[usize]> {
        body[lit]
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| match s {
                Slot::Const(_) => true,
                Slot::Var(v) => bound_vars.contains(v),
            })
            .map(|(col, _)| col)
            .collect()
    };
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    let mut steps = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        let pos = match first {
            None => 0,
            Some(d) if steps.is_empty() => d,
            Some(_) => (0..remaining.len())
                .max_by_key(|&k| {
                    (
                        probe_of(remaining[k], &bound_vars).len(),
                        std::cmp::Reverse(k),
                    )
                })
                .expect("nonempty"),
        };
        let lit = remaining.remove(pos);
        let probe = probe_of(lit, &bound_vars);
        let binds = body[lit]
            .slots
            .iter()
            .map(|s| match s {
                Slot::Var(v) => bound_vars.insert(*v),
                Slot::Const(_) => false,
            })
            .collect();
        steps.push(Step { lit, probe, binds });
    }
    steps
}

fn compile(
    program: &Program,
    arities: &BTreeMap<PredRef, usize>,
    db: &mut Database,
    reorder_joins: bool,
    cost_hints: Option<&BTreeMap<String, u64>>,
) -> Vec<RulePlan> {
    for (pred, &arity) in arities {
        db.register(pred, arity);
    }
    let mut plans = Vec::with_capacity(program.rules.len());
    for (rule_idx, rule) in program.rules.iter().enumerate() {
        let mut var_ids: HashMap<datalog_ast::Var, u16> = HashMap::new();
        let slot_of = |t: &Term, var_ids: &mut HashMap<datalog_ast::Var, u16>| match t {
            Term::Const(c) => Slot::Const(*c),
            Term::Var(v) => {
                let next = var_ids.len() as u16;
                Slot::Var(*var_ids.entry(*v).or_insert(next))
            }
        };
        let ordered_body: Vec<&datalog_ast::Atom> = if reorder_joins {
            greedy_order(&rule.body, cost_hints)
                .into_iter()
                .map(|i| &rule.body[i])
                .collect()
        } else {
            rule.body.iter().collect()
        };
        let body: Vec<LitPlan> = ordered_body
            .iter()
            .map(|a| LitPlan {
                pred: db.pred_id(&a.pred).expect("registered above"),
                slots: a.terms.iter().map(|t| slot_of(t, &mut var_ids)).collect(),
            })
            .collect();
        let base = plan_order(&body, None);
        let delta_first = (0..body.len())
            .map(|d| plan_order(&body, Some(d)))
            .collect();
        let negatives: Vec<LitPlan> = rule
            .negative
            .iter()
            .map(|a| LitPlan {
                pred: db.pred_id(&a.pred).expect("registered above"),
                slots: a.terms.iter().map(|t| slot_of(t, &mut var_ids)).collect(),
            })
            .collect();
        let head_slots: Vec<Slot> = rule
            .head
            .terms
            .iter()
            .map(|t| slot_of(t, &mut var_ids))
            .collect();
        plans.push(RulePlan {
            rule_idx,
            head: db.pred_id(&rule.head.pred).expect("registered above"),
            head_slots,
            body,
            base,
            delta_first,
            negatives,
            nvars: var_ids.len(),
        });
    }
    plans
}

/// The one loader: every input row reaches a [`Database`] through here,
/// one flat batch per predicate — a cold start's input and every resident
/// batch alike. Each predicate's batches are checked against one arity:
/// the program's for a predicate the program mentions, else that of the
/// relation already registered for it, else that of its smallest row in
/// tuple order. Every batch is checked before any is loaded, so a refused
/// input leaves the database as it was. A checked batch goes to
/// [`Relation::load_batch`] in tuple order — through a sorted permutation
/// of its row ids, unless its rows are in order already — and is inserted
/// through the dedup every stored tuple goes through, keeping the first of
/// equal rows. Batches come in `PredRef` order, so unknown predicates
/// register in that order and every relation's loaded rows lie in tuple
/// order: the database is row for row what inserting a
/// [`FactSet`](crate::FactSet)'s facts one at a time builds. Returns the
/// number of rows that were new.
///
/// [`Relation::load_batch`]: crate::relation::Relation::load_batch
pub(crate) fn load_input(
    db: &mut Database,
    arities: &BTreeMap<PredRef, usize>,
    input: Edb,
) -> Result<usize, EngineError> {
    let mut rest = &input.batches[..];
    while let Some(first) = rest.first() {
        let n = rest.iter().take_while(|b| b.pred == first.pred).count();
        let (batches, tail) = rest.split_at(n);
        check_arity(db, arities, batches)?;
        rest = tail;
    }
    let mut new_rows = 0;
    for batch in input.batches {
        let id = db.register(&batch.pred, batch.arity);
        let rel = db.relation_mut(id);
        let in_order = (1..batch.len).all(|i| batch.row(i - 1) <= batch.row(i));
        new_rows += if in_order {
            rel.load_batch((0..batch.len).map(|i| batch.row(i)))
        } else {
            let len = u32::try_from(batch.len).expect("row ids fit in 32 bits");
            let mut ids: Vec<u32> = (0..len).collect();
            ids.sort_unstable_by(|&a, &b| batch.row(a as usize).cmp(batch.row(b as usize)));
            rel.load_batch(ids.iter().map(|&i| batch.row(i as usize)))
        };
    }
    Ok(new_rows)
}

/// `Err` unless one predicate's batches (one per arity) all have the arity
/// [`load_input`] expects. Where that arity comes from the rows, and where
/// they mix arities, rows are taken in tuple order.
fn check_arity(
    db: &Database,
    arities: &BTreeMap<PredRef, usize>,
    batches: &[Batch],
) -> Result<(), EngineError> {
    fn smallest_row<'a>(b: &&'a Batch) -> Option<&'a [Value]> {
        (0..b.len).map(|i| b.row(i)).min()
    }
    let pred = &batches[0].pred;
    let expected = arities
        .get(pred)
        .copied()
        .or_else(|| db.pred_id(pred).map(|id| db.relation(id).arity()))
        .unwrap_or_else(|| match batches {
            [one] => one.arity,
            _ => {
                batches
                    .iter()
                    .min_by_key(smallest_row)
                    .expect("a batch")
                    .arity
            }
        });
    match batches
        .iter()
        .filter(|b| b.arity != expected)
        .min_by_key(smallest_row)
    {
        None => Ok(()),
        Some(b) => Err(EngineError::FactArity {
            pred: pred.to_string(),
            expected,
            found: b.arity,
        }),
    }
}

/// Run a fixpoint evaluation of `program` over `input`.
///
/// `input` may seed IDB predicates — that is how the uniform-equivalence
/// oracles use the engine. Facts for predicates the program never mentions
/// are loaded verbatim and simply carried through.
pub fn evaluate(
    program: &Program,
    input: impl Into<Edb>,
    opts: &EvalOptions,
) -> Result<EvalOutput, EngineError> {
    let (mut m, _) = Machine::start(program, input.into(), opts)?;
    m.run_strata(opts.strategy, opts.max_iterations, None)?;
    if let Some(profile) = &mut m.profile {
        // Fill in the source renderings now that the machine is done.
        for (i, rp) in profile.rules.iter_mut().enumerate() {
            let rule = &program.rules[i];
            rp.rule = rule.to_string();
            rp.head = rule.head.pred.to_string();
        }
    }
    Ok(EvalOutput {
        database: m.db,
        stats: m.stats,
        provenance: m.provenance,
        profile: m.profile,
    })
}

/// Evaluate and extract the query's answers: the distinct bindings of the
/// query atom's named variables (wildcards are projected out). Constants in
/// the query act as selections; a repeated variable forces equality.
pub fn query_answers(
    program: &Program,
    input: impl Into<Edb>,
    opts: &EvalOptions,
) -> Result<(AnswerSet, EvalStats), EngineError> {
    let (answers, out) = query_answers_full(program, input, opts)?;
    Ok((answers, out.stats))
}

/// Like [`query_answers`], but returns the whole [`EvalOutput`] so callers
/// can reach the final database, provenance, and (when
/// [`EvalOptions::profile`] is set) the per-rule/per-iteration profile.
pub fn query_answers_full(
    program: &Program,
    input: impl Into<Edb>,
    opts: &EvalOptions,
) -> Result<(AnswerSet, EvalOutput), EngineError> {
    let q = program
        .query
        .as_ref()
        .ok_or(EngineError::Ast(datalog_ast::AstError::NoQuery))?;
    let out = evaluate(program, input, opts)?;
    let answers = extract_answers(&q.atom, &out.database);
    Ok((answers, out))
}

/// Extract the answers of `q_atom` from a saturated `database`: the
/// distinct bindings of the atom's named variables (wildcards are projected
/// out), read off the atom's relation. Constants in the atom act as
/// selections; a repeated variable forces equality. Pure read — usable
/// against any frontier — and a read that creates nothing: with a constant
/// in the atom it probes a `[col]` index the fixpoint planned if there is
/// one, and otherwise scans (see `read_answers`). An unregistered
/// predicate, or one stored at another arity, has no answers.
pub fn extract_answers(q_atom: &datalog_ast::Atom, database: &Database) -> AnswerSet {
    read_answers(q_atom, database, false)
}

/// A query atom compiled for reading, once per read: no row is matched
/// against the atom again.
struct ReadPlan {
    /// `(col, const)`: the column holds the constant.
    selections: Vec<(usize, Value)>,
    /// `(col, first_col)`: a repeated variable — the column agrees with the
    /// variable's first occurrence.
    equalities: Vec<(usize, usize)>,
    /// Where the answer's columns come from: the named variables' first
    /// occurrences, in order. Wildcards are dropped.
    out_cols: Vec<usize>,
}

impl ReadPlan {
    /// The plan, and the names of its output columns.
    fn compile(q_atom: &datalog_ast::Atom) -> (ReadPlan, Vec<String>) {
        let mut plan = ReadPlan {
            selections: Vec::new(),
            equalities: Vec::new(),
            out_cols: Vec::new(),
        };
        let mut columns = Vec::new();
        let mut first_seen: Vec<(datalog_ast::Var, usize)> = Vec::new();
        for (col, term) in q_atom.terms.iter().enumerate() {
            match *term {
                Term::Const(c) => plan.selections.push((col, c)),
                Term::Var(v) => match first_seen.iter().find(|(seen, _)| *seen == v) {
                    Some(&(_, first)) => plan.equalities.push((col, first)),
                    None => {
                        first_seen.push((v, col));
                        if !v.is_wildcard() {
                            plan.out_cols.push(col);
                            columns.push(v.name());
                        }
                    }
                },
            }
        }
        (plan, columns)
    }

    fn admits(&self, row: &[Value]) -> bool {
        self.selections.iter().all(|&(col, c)| row[col] == c)
            && self
                .equalities
                .iter()
                .all(|&(col, first)| row[col] == row[first])
    }
}

/// The one answer extraction: [`extract_answers`] (cold evaluations,
/// `xdl run`) and [`crate::incremental::ResidentEval::answers`] both end
/// here. The atom is compiled to a [`ReadPlan`] and executed in one of
/// three shapes: a membership test when every column is bound; an index
/// probe on a bound column ([`Relation::select`], the remaining selections
/// and equalities filtering the hits); a projection-only scan otherwise.
/// Each answer is projected straight off the row slice.
///
/// `create_index` is who-may-create: a resident form, which will be read
/// again, lets the probe create the read index of the first bound column
/// the first time a constant arrives there; a cold database is read once
/// and is never indexed for it.
///
/// [`Relation::select`]: crate::relation::Relation::select
pub(crate) fn read_answers(
    q_atom: &datalog_ast::Atom,
    database: &Database,
    create_index: bool,
) -> AnswerSet {
    let (plan, columns) = ReadPlan::compile(q_atom);
    let mut answers = AnswerSet {
        columns,
        ..AnswerSet::default()
    };
    // The engine's own guard (the server's `check_arity` comes first): a
    // relation of another arity matches nothing, and must not be indexed
    // by this atom's columns.
    let Some(rel) = database
        .pred_id(&q_atom.pred)
        .map(|id| database.relation(id))
        .filter(|rel| rel.arity() == q_atom.terms.len())
    else {
        return answers;
    };
    if plan.selections.len() == rel.arity() {
        let tuple: Vec<Value> = plan.selections.iter().map(|&(_, c)| c).collect();
        if rel.contains(&tuple) {
            answers.rows.insert(Vec::new());
        }
        return answers;
    }
    // Gathered in row order, then sorted and deduplicated once: the set is
    // built in bulk from sorted input instead of by one B-tree insert per
    // answer.
    let mut found: Vec<Vec<Value>> = Vec::new();
    let mut take = |row: &[Value]| {
        if plan.admits(row) {
            found.push(plan.out_cols.iter().map(|&col| row[col]).collect());
        }
    };
    if !rel.select(&plan.selections, create_index, &mut take) {
        rel.iter().for_each(take);
    }
    found.sort_unstable();
    found.dedup();
    answers.rows = found.into_iter().collect();
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::FactSet;
    use datalog_ast::parse_program;
    use std::sync::Arc;
    use std::time::Duration;

    fn chain_edb(n: i64) -> FactSet {
        let mut fs = FactSet::new();
        for i in 0..n {
            fs.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
        }
        fs
    }

    const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                      a(X, Y) :- p(X, Y).\n\
                      ?- a(X, Y).";

    fn q(src: &str) -> datalog_ast::Atom {
        datalog_ast::parse_atom(src).unwrap()
    }

    #[test]
    fn a_read_of_an_unknown_predicate_or_another_arity_is_empty_but_named() {
        let p = parse_program(TC).unwrap().program;
        let db = evaluate(&p, &chain_edb(4), &EvalOptions::default())
            .unwrap()
            .database;
        assert_eq!(extract_answers(&q("a(X, Y)"), &db).len(), 10);
        for (atom, columns) in [
            // Not registered at all.
            ("nope(X, Y)", vec!["X", "Y"]),
            ("nope(3, Y)", vec!["Y"]),
            // Registered with two columns: one too few, one too many, and
            // shapes whose column indexes would run off a two-column row.
            ("a(X)", vec!["X"]),
            ("a(X, Y, Z)", vec!["X", "Y", "Z"]),
            ("a(X, _, 4)", vec!["X"]),
            ("a(X, Y, X)", vec!["X", "Y"]),
            ("a(0, 1, 2)", vec![]),
            ("p(_, _, Z)", vec!["Z"]),
        ] {
            let got = extract_answers(&q(atom), &db);
            assert_eq!(got.columns, columns, "{atom}");
            assert!(got.rows.is_empty(), "{atom} answered {:?}", got.rows);
            // The matching oracle (what extraction used to be) agrees, so
            // what a client is sent for such a read has not changed.
            assert_eq!(got, crate::oracle::extract_by_matching(&q(atom), &db));
        }
        // A resident form may create indexes; it must not try to on a
        // relation the atom does not fit.
        let r = crate::incremental::ResidentEval::new(&p, &chain_edb(4), &EvalOptions::default())
            .unwrap();
        assert!(r.answers(&q("a(X, _, 4)")).is_empty());
        assert!(r.answers(&q("nope(1)")).is_empty());
        assert_eq!(r.answers(&q("a(0, 1, 2)")).as_bool(), Some(false));
    }

    #[test]
    fn the_three_read_shapes_agree_with_matching() {
        let p = parse_program(TC).unwrap().program;
        let db = evaluate(&p, &chain_edb(6), &EvalOptions::default())
            .unwrap()
            .database;
        let rows = |atom: &str| -> Vec<Vec<i64>> {
            let got = extract_answers(&q(atom), &db);
            assert_eq!(got, crate::oracle::extract_by_matching(&q(atom), &db));
            got.rows
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|v| match v {
                            Value::Int(i) => *i,
                            Value::Sym(_) => unreachable!(),
                        })
                        .collect()
                })
                .collect()
        };
        // Fully bound: a membership test, a boolean answer.
        assert_eq!(rows("a(0, 6)"), vec![Vec::<i64>::new()]);
        assert!(rows("a(6, 0)").is_empty());
        // A constant: a probe (column 0 is planned by the join) or a
        // filtered scan (column 1 is not), projected to the free column.
        assert_eq!(rows("a(4, Y)"), vec![vec![5], vec![6]]);
        assert_eq!(rows("a(X, 2)"), vec![vec![0], vec![1]]);
        assert!(rows("a(X, 0)").is_empty());
        // Repeated variable, wildcard, all free.
        assert!(rows("a(X, X)").is_empty());
        assert_eq!(rows("a(_, Y)").len(), 6);
        assert_eq!(rows("a(Y, X)").len(), 21);
        assert_eq!(extract_answers(&q("a(Y, X)"), &db).columns, ["Y", "X"]);
        // A cold read creates nothing.
        let a = db.relation(db.pred_id(&PredRef::new("a")).unwrap());
        assert!(!a.has_read_index(0) && !a.has_read_index(1));
    }

    #[test]
    fn transitive_closure_chain() {
        let p = parse_program(TC).unwrap().program;
        let (ans, stats) = query_answers(&p, &chain_edb(10), &EvalOptions::default()).unwrap();
        // Chain 0->1->...->10: closure has n*(n+1)/2 = 55 pairs.
        assert_eq!(ans.len(), 55);
        assert!(stats.facts_derived >= 55);
        assert!(stats.iterations > 2);
    }

    #[test]
    fn naive_and_seminaive_agree() {
        let p = parse_program(TC).unwrap().program;
        let edb = chain_edb(8);
        let naive = evaluate(
            &p,
            &edb,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let semi = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(naive.database.dump(), semi.database.dump());
        // Semi-naive does strictly less derivation work on a chain.
        assert!(semi.stats.derivations < naive.stats.derivations);
    }

    #[test]
    fn seminaive_derives_each_instantiation_once_on_dag() {
        // On a cycle, semi-naive must still terminate and agree with naive.
        let p = parse_program(TC).unwrap().program;
        let mut edb = FactSet::new();
        for i in 0..5 {
            edb.insert(
                PredRef::new("p"),
                vec![Value::int(i), Value::int((i + 1) % 5)],
            );
        }
        let naive = evaluate(
            &p,
            &edb,
            &EvalOptions {
                strategy: Strategy::Naive,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let semi = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        // Cycle: closure is all 25 pairs.
        let a = PredRef::new("a");
        assert_eq!(semi.database.dump().count(&a), 25);
        assert_eq!(naive.database.dump(), semi.database.dump());
    }

    #[test]
    fn constants_in_rules_and_query() {
        let p = parse_program(
            "reach(Y) :- p(0, Y).\n\
             reach(Y) :- reach(X), p(X, Y).\n\
             ?- reach(X).",
        )
        .unwrap()
        .program;
        let (ans, _) = query_answers(&p, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert_eq!(ans.len(), 5); // 1..=5 reachable from 0.
    }

    #[test]
    fn query_constant_selection_and_repeated_vars() {
        let p = parse_program(TC).unwrap().program;
        // Selection: all Y reachable from 2 on a 5-chain: 3,4,5.
        let p2 = {
            let mut p = p.clone();
            p.query = Some(datalog_ast::Query::new(
                datalog_ast::parse_atom("a(2, Y)").unwrap(),
            ));
            p
        };
        let (ans, _) = query_answers(&p2, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert_eq!(ans.len(), 3);
        assert_eq!(ans.columns, vec!["Y".to_string()]);
        // Repeated variable a(X, X): no loops on a chain.
        let p3 = {
            let mut p = p.clone();
            p.query = Some(datalog_ast::Query::new(
                datalog_ast::parse_atom("a(X, X)").unwrap(),
            ));
            p
        };
        let (ans, _) = query_answers(&p3, &chain_edb(5), &EvalOptions::default()).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn wildcards_in_query_are_projected() {
        let p = parse_program(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, _).",
        )
        .unwrap()
        .program;
        let (ans, _) = query_answers(&p, &chain_edb(5), &EvalOptions::default()).unwrap();
        // Distinct first components: 0..4.
        assert_eq!(ans.len(), 5);
        assert_eq!(ans.columns, vec!["X".to_string()]);
    }

    #[test]
    fn seeded_idb_facts_participate() {
        // Uniform-equivalence style input: seed the derived predicate.
        let p = parse_program(TC).unwrap().program;
        let mut input = FactSet::new();
        input.insert(PredRef::new("a"), vec![Value::sym("u"), Value::sym("v")]);
        input.insert(PredRef::new("p"), vec![Value::sym("t"), Value::sym("u")]);
        let out = evaluate(&p, &input, &EvalOptions::default()).unwrap();
        let facts = out.database.dump();
        // p(t,u) ∧ a(u,v) ⇒ a(t,v) by the recursive rule.
        assert!(facts.contains(&PredRef::new("a"), &[Value::sym("t"), Value::sym("v")]));
    }

    #[test]
    fn boolean_cut_retires_rules() {
        // q(X) :- p(X), b.   b :- big(W).
        // With the cut enabled, b's rule retires after it fires once.
        let p = parse_program(
            "q(X) :- p(X), b.\n\
             b :- big(W).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        for i in 0..10 {
            edb.insert(PredRef::new("p"), vec![Value::int(i)]);
            edb.insert(PredRef::new("big"), vec![Value::int(i)]);
        }
        let with_cut = evaluate(
            &p,
            &edb,
            &EvalOptions {
                boolean_cut: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let without = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(with_cut.database.dump(), without.database.dump());
        assert!(with_cut.stats.rules_retired >= 1);
    }

    #[test]
    fn boolean_cut_retires_exclusive_feeders() {
        // Example 2's tail: q4 feeds only B2; once B2 holds, q4's rule
        // retires too.
        let p = parse_program(
            "q(X) :- p(X), b2.\n\
             b2 :- q3(V), q4(V).\n\
             q4(X) :- q6(X).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        edb.insert(PredRef::new("p"), vec![Value::int(1)]);
        edb.insert(PredRef::new("q3"), vec![Value::int(7)]);
        edb.insert(PredRef::new("q6"), vec![Value::int(7)]);
        let out = evaluate(
            &p,
            &edb,
            &EvalOptions {
                boolean_cut: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        // b2's rule and q4's rule both retired.
        assert!(out.stats.rules_retired >= 2);
        assert!(out
            .database
            .dump()
            .contains(&PredRef::new("q"), &[Value::int(1)]));
    }

    #[test]
    fn empty_edb_yields_empty_answers() {
        let p = parse_program(TC).unwrap().program;
        let (ans, stats) = query_answers(&p, &FactSet::new(), &EvalOptions::default()).unwrap();
        assert!(ans.is_empty());
        assert_eq!(stats.facts_derived, 0);
    }

    #[test]
    fn fact_arity_mismatch_is_reported() {
        let p = parse_program(TC).unwrap().program;
        let mut edb = FactSet::new();
        edb.insert(PredRef::new("p"), vec![Value::int(1)]);
        let err = evaluate(&p, &edb, &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::FactArity { .. }));
    }

    #[test]
    fn iteration_limit_triggers_with_partial_stats() {
        let p = parse_program(TC).unwrap().program;
        let err = evaluate(
            &p,
            &chain_edb(50),
            &EvalOptions {
                max_iterations: 3,
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EngineError::IterationLimit { limit: 3, .. }));
        let stats = err.partial_stats().expect("limit trips carry stats");
        assert_eq!(stats.iterations, 3);
        assert!(stats.facts_derived > 0, "partial work is reported");
        assert!(err.is_limit());
    }

    /// A program whose fixpoint is far too large to finish: the full
    /// transitive closure of a dense cycle, plus a cross product.
    fn pathological() -> (Program, FactSet) {
        let p = parse_program(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             big(X, Y, Z, W) :- a(X, Y), a(Z, W).\n\
             ?- big(X, _, _, _).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        for i in 0..60i64 {
            for j in 0..60i64 {
                edb.insert(PredRef::new("p"), vec![Value::int(i), Value::int(j)]);
            }
        }
        (p, edb)
    }

    #[test]
    fn deadline_trips_on_the_poll_that_crosses_it() {
        let (p, edb) = pathological();
        // Read 1 is the evaluation's start, read 1 + k its k-th poll: the
        // deadline sits between the reads of polls k - 1 and k. Poll 1 is
        // the boundary before iteration 1, with nothing joined yet; the
        // later ones fall inside the cross product's enumeration.
        for k in [2, 3, 5, 40] {
            let clock = Arc::new(crate::ManualClock::new(Duration::from_millis(1)));
            let deadline = clock.at(k) + Duration::from_micros(500);
            let err = evaluate(
                &p,
                &edb,
                &EvalOptions {
                    deadline: Some(deadline),
                    clock: Clock::Manual(Arc::clone(&clock)),
                    ..EvalOptions::default()
                },
            )
            .unwrap_err();
            let EngineError::DeadlineExceeded { elapsed_ms, stats } = err else {
                panic!("poll {k}: {err:?}");
            };
            assert_eq!(
                clock.reads(),
                k + 1,
                "tripped on poll {}",
                clock.reads() - 1
            );
            assert_eq!(
                elapsed_ms,
                u64::from(k),
                "read k + 1 is k steps after the start"
            );
            assert!(
                stats.tuples_scanned > 0,
                "poll {k}: partial stats are reported"
            );
        }
    }

    #[test]
    fn budget_trips_exactly_and_carries_stats() {
        let p = parse_program(TC).unwrap().program;
        let err = evaluate(
            &p,
            &chain_edb(50),
            &EvalOptions {
                fact_budget: Some(100),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        match err {
            EngineError::BudgetExceeded { budget, stats } => {
                assert_eq!(budget, 100);
                // Enforcement is exact: the trip fires on fact 101.
                assert_eq!(stats.facts_derived, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // A budget the fixpoint never reaches changes nothing.
        let ok = evaluate(
            &p,
            &chain_edb(10),
            &EvalOptions {
                fact_budget: Some(10_000),
                ..EvalOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ok.stats.facts_derived, 55);
    }

    #[test]
    fn cancellation_from_another_thread_unwinds_cleanly() {
        let (p, edb) = pathological();
        let token = CancelToken::new();
        // A deadline that never passes makes every poll read the manual
        // clock, so the canceller can wait for poll 2 — inside the cross
        // product — instead of guessing how long loading takes.
        let clock = Arc::new(crate::ManualClock::new(Duration::from_micros(1)));
        let canceller = {
            let (token, clock) = (token.clone(), Arc::clone(&clock));
            std::thread::spawn(move || {
                while clock.reads() < 3 {
                    std::thread::yield_now();
                }
                token.cancel();
            })
        };
        let err = evaluate(
            &p,
            &edb,
            &EvalOptions {
                cancel: Some(token),
                deadline: Some(clock.at(u32::MAX)),
                clock: Clock::Manual(Arc::clone(&clock)),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, EngineError::Cancelled { .. }), "{err:?}");
        assert!(err.partial_stats().unwrap().tuples_scanned > 0);
    }

    #[test]
    fn pre_cancelled_token_trips_before_any_iteration() {
        let p = parse_program(TC).unwrap().program;
        let token = CancelToken::new();
        token.cancel();
        let err = evaluate(
            &p,
            &chain_edb(5),
            &EvalOptions {
                cancel: Some(token),
                ..EvalOptions::default()
            },
        )
        .unwrap_err();
        let stats = err.partial_stats().unwrap();
        assert_eq!(stats.iterations, 0, "tripped at the first boundary check");
    }

    /// A dense random-ish digraph: its transitive closure takes a few
    /// iterations of a thousand or more rows each.
    fn dense_edb(n: i64, m: i64) -> FactSet {
        let mut fs = FactSet::new();
        let mut x: i64 = 42;
        for _ in 0..m {
            // Deterministic xorshift-style scramble; no RNG dependency.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x.rem_euclid(n);
            let b = (x >> 16).rem_euclid(n);
            fs.insert(PredRef::new("p"), vec![Value::int(a), Value::int(b)]);
        }
        fs
    }

    /// 8 192 distinct `e` edges over 256 nodes, a 32-edge `s` and every
    /// third node in `m`.
    fn wide_edb() -> FactSet {
        let mut fs = FactSet::new();
        let mut x: i64 = 7;
        while fs.count(&PredRef::new("e")) < 8192 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = x.rem_euclid(256);
            let b = (x >> 20).rem_euclid(256);
            fs.insert(PredRef::new("e"), vec![Value::int(a), Value::int(b)]);
        }
        for i in 0..32i64 {
            let (from, to) = (i * 8, (i * 8 + 5) % 256);
            fs.insert(PredRef::new("s"), vec![Value::int(from), Value::int(to)]);
        }
        for i in (0..256i64).step_by(3) {
            fs.insert(PredRef::new("m"), vec![Value::int(i)]);
        }
        fs
    }

    /// Every counter of four programs — recursion, negation, the boolean
    /// cut, and 8 192-row delta literals — pinned to the values the
    /// fixpoint has always produced, plus three first derivations of the
    /// last. The variant order, the delta-first choice and the merge each
    /// move at least one of them. The last case was recorded when its
    /// 8 192-row ranges were still enumerated in eight chunks merged one by
    /// one (11, 24 and 3 tasks per iteration): one variant's whole range in
    /// one buffer derives exactly the same.
    /// Two `h` rules, so which of their variants merges first decides
    /// every `h` fact's first derivation.
    const WIDE: &str = "r(X, Y) :- e(X, Y).\n\
                        r(X, Y) :- r(X, Z), s(Z, Y).\n\
                        h(Y) :- r(X, Y), m(X).\n\
                        h(X) :- r(X, Y), m(Y).\n\
                        ?- h(Y).";

    #[test]
    fn counters_are_pinned_on_a_dense_digraph() {
        type Case = (
            &'static str,
            bool,
            [u64; 6],
            Vec<u64>,
            Vec<(&'static str, usize)>,
        );
        let cases: Vec<Case> = vec![
            (
                TC,
                false,
                [3, 51940, 2304, 49636, 55120, 2120],
                vec![2, 1, 1],
                vec![("p", 1060), ("a", 2304)],
            ),
            (
                "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                 a(X, Y) :- p(X, Y).\n\
                 base(X) :- p(X, _).\n\
                 island(X) :- base(X), not a(X, X).\n\
                 ?- island(X).",
                false,
                [4, 53000, 2352, 50648, 56228, 2168],
                vec![3, 1, 1, 1],
                vec![("p", 1060), ("a", 2304), ("base", 48), ("island", 0)],
            ),
            (
                "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                 a(X, Y) :- p(X, Y).\n\
                 b :- a(X, X).\n\
                 q(X) :- p(X, _), b.\n\
                 ?- q(X).",
                true,
                [4, 53001, 2353, 50648, 57242, 2120],
                vec![4, 2, 2, 0],
                vec![("p", 1060), ("a", 2304), ("b", 1), ("q", 48)],
            ),
            (
                WIDE,
                false,
                [3, 15319, 9349, 5970, 42598, 27279],
                vec![4, 3, 3],
                vec![("e", 8192), ("s", 32), ("m", 86), ("r", 9093), ("h", 256)],
            ),
        ];
        let (dense, wide) = (dense_edb(48, 1400), wide_edb());
        for (src, cut, stats, tasks, rows) in cases {
            let edb = if src == WIDE { &wide } else { &dense };
            let p = parse_program(src).unwrap().program;
            let opts = EvalOptions {
                boolean_cut: cut,
                record_provenance: true,
                profile: true,
                ..EvalOptions::default()
            };
            let out = evaluate(&p, edb, &opts).unwrap();
            let s = out.stats;
            let got = [
                s.iterations as u64,
                s.derivations,
                s.facts_derived,
                s.duplicates,
                s.tuples_scanned,
                s.index_probes,
            ];
            assert_eq!(got, stats, "stats of {src}");
            let timeline = &out.profile.as_ref().unwrap().timeline;
            let got: Vec<u64> = timeline.iter().map(|it| it.tasks).collect();
            assert_eq!(got, tasks, "tasks per iteration of {src}");
            // By name: predicate ids follow the process-wide interner.
            let db = &out.database;
            let got: BTreeMap<String, usize> = (0..db.pred_count())
                .map(|i| {
                    let id = PredId(i as u32);
                    (db.pred_ref(id).to_string(), db.relation(id).len())
                })
                .collect();
            let rows: BTreeMap<String, usize> = rows.iter().map(|&(p, n)| (p.into(), n)).collect();
            assert_eq!(got, rows, "rows of {src}");
            if src != WIDE {
                continue;
            }
            // First derivations: which rule and which premise rows.
            let prov = out.provenance.as_ref().unwrap();
            let fact = |pred: PredId, row: u32| {
                let tuple = db.relation(pred).row(row as usize).to_vec();
                datalog_ast::Atom::fact(db.pred_ref(pred).clone(), tuple).to_string()
            };
            for (pred, tuple, rule, premises) in [
                ("r", [0, 5].as_slice(), 1, ["r(0, 0)", "s(0, 5)"]),
                ("r", &[255, 253], 1, ["r(255, 248)", "s(248, 253)"]),
                ("h", &[6], 2, ["r(0, 6)", "m(0)"]),
            ] {
                let id = db.pred_id(&PredRef::new(pred)).unwrap();
                let tuple: Vec<Value> = tuple.iter().map(|&v| Value::int(v)).collect();
                let row = (0..db.relation(id).len())
                    .find(|&row| db.relation(id).row(row) == tuple.as_slice())
                    .expect("derived") as u32;
                let j = prov.justification(id, row).expect("justified");
                let got: Vec<String> = j.premises.iter().map(|&(p, r)| fact(p, r)).collect();
                assert_eq!(
                    (j.rule_idx, got),
                    (rule, premises.map(String::from).to_vec())
                );
            }
        }
    }

    #[test]
    fn compile_time_probe_planning_builds_composite_indexes() {
        // t(X, Y, Z) joined with itself on two columns: the second literal
        // probes on both bound positions, so a composite [0, 2] index (in
        // that literal's column space: s(Y, W, X) has Y at 0 and X at 2)
        // must exist after evaluation.
        let p = parse_program(
            "j(X, W) :- t(X, Y, Z), s(Y, W, X).\n\
             ?- j(X, _).",
        )
        .unwrap()
        .program;
        let mut edb = FactSet::new();
        edb.insert(
            PredRef::new("t"),
            vec![Value::int(1), Value::int(2), Value::int(3)],
        );
        edb.insert(
            PredRef::new("s"),
            vec![Value::int(2), Value::int(9), Value::int(1)],
        );
        let out = evaluate(&p, &edb, &EvalOptions::default()).unwrap();
        let s = out.database.pred_id(&PredRef::new("s")).unwrap();
        assert!(out.database.relation(s).has_index(&[0, 2]));
        let j = out.database.pred_id(&PredRef::new("j")).unwrap();
        assert_eq!(out.database.relation(j).len(), 1);
        // Exactly one probe row matched both columns: no residual filtering.
        assert_eq!(out.stats.derivations, 1);
    }

    #[test]
    fn provenance_records_first_derivations() {
        let p = parse_program(TC).unwrap().program;
        let out = evaluate(
            &p,
            &chain_edb(3),
            &EvalOptions {
                record_provenance: true,
                ..EvalOptions::default()
            },
        )
        .unwrap();
        let prov = out.provenance.as_ref().unwrap();
        let a = out.database.pred_id(&PredRef::new("a")).unwrap();
        // a(0,3) exists and has a derivation tree of height >= 2.
        let tree = prov
            .derivation_tree(&out.database, a, &[Value::int(0), Value::int(3)])
            .expect("a(0,3) derived");
        assert!(tree.height() >= 2);
        let rendered = tree.render();
        assert!(rendered.contains("a(0, 3)"));
    }

    /// The loader before [`Edb`]: one `insert` per fact of a `FactSet`, in
    /// its iteration order. The reference the one loader is held to.
    fn load_per_row(
        db: &mut Database,
        arities: &BTreeMap<PredRef, usize>,
        input: &FactSet,
    ) -> Result<(), EngineError> {
        for (pred, tuple) in input.iter() {
            if let Some(&expected) = arities.get(pred) {
                if expected != tuple.len() {
                    return Err(EngineError::FactArity {
                        pred: pred.to_string(),
                        expected,
                        found: tuple.len(),
                    });
                }
            }
            let id = db.register(pred, tuple.len());
            db.relation_mut(id).insert(tuple);
        }
        Ok(())
    }

    /// Every registered predicate with its arity and its rows, in id order.
    fn layout(db: &Database) -> Vec<(PredRef, usize, Vec<Vec<Value>>)> {
        (0..db.pred_count())
            .map(|p| {
                let id = PredId(p as u32);
                (
                    db.pred_ref(id).clone(),
                    db.relation(id).arity(),
                    db.dump_pred(id),
                )
            })
            .collect()
    }

    #[test]
    fn the_one_loader_matches_per_row_inserts_row_for_row() {
        // `p` and `q` are the program's EDB, `a` its IDB (seeded as input),
        // `r` and `s` appear in no rule.
        let program = parse_program(
            "a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             b(X) :- q(X, Y, Z).\n\
             ?- a(X, Y).",
        )
        .unwrap()
        .program;
        let arities = program.arities().unwrap();
        let shapes = [("p", 2), ("q", 3), ("a", 2), ("r", 1), ("s", 2)];
        let support = shapes.iter().map(|&(name, _)| PredRef::new(name)).collect();
        let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for round in 0..60 {
            // Facts in random order over a small domain, so duplicates are
            // common and a predicate may get no facts at all.
            let facts: Vec<(PredRef, Vec<Value>)> = (0..below(150))
                .map(|_| {
                    let (name, arity) = shapes[below(shapes.len() as u64) as usize];
                    let tuple = (0..arity)
                        .map(|_| match below(3) {
                            0 => Value::sym(["x", "y"][below(2) as usize]),
                            _ => Value::int(below(5) as i64 - 1),
                        })
                        .collect();
                    (PredRef::new(name), tuple)
                })
                .collect();
            let fs: FactSet = facts.iter().cloned().collect();
            let mut reference = Database::new();
            compile(&program, &arities, &mut reference, false, None);
            load_per_row(&mut reference, &arities, &fs).unwrap();
            let want = layout(&reference);

            // The parser's table: source order, duplicates kept.
            let text: String = facts
                .iter()
                .map(|(p, t)| format!("{}.\n", datalog_ast::Atom::fact(p.clone(), t.clone())))
                .collect();
            let parsed = parse_program(&text).unwrap().facts;
            // A server snapshot: ingestion order, duplicates dropped.
            let shared = crate::shared::SharedDatabase::new();
            for (p, t) in &facts {
                shared.insert(p, t).unwrap();
            }
            let inputs = [
                ("factset", Edb::from(&fs)),
                ("parser", parsed.into()),
                ("snapshot", shared.snapshot().edb(&support)),
            ];
            for (source, edb) in inputs {
                let (m, _) = Machine::start(&program, edb, &EvalOptions::default()).unwrap();
                assert_eq!(layout(&m.db), want, "round {round}: {source}");
            }
            // A resident's delta batch: the facts into an empty resident,
            // in one call. Propagation appends the derived rows after the
            // loaded ones, so each relation's first rows are what it
            // loaded.
            let mut resident =
                crate::ResidentEval::new(&program, &FactSet::new(), &EvalOptions::default())
                    .unwrap();
            let deltas: Vec<crate::Fact> = facts
                .iter()
                .map(|(p, t)| crate::Fact::new(p.clone(), t.clone()))
                .collect();
            let report = resident
                .apply_deltas(&deltas, &crate::DeltaLimits::default())
                .unwrap();
            let grown = layout(resident.database());
            assert_eq!(grown.len(), want.len(), "round {round}: deltas");
            let loaded: Vec<_> = grown
                .into_iter()
                .zip(&want)
                .map(|((pred, arity, rows), (_, _, kept))| {
                    (pred, arity, rows[..kept.len()].to_vec())
                })
                .collect();
            assert_eq!(loaded, want, "round {round}: deltas");
            assert_eq!(report.new_facts, fs.len(), "round {round}: deltas");
        }
    }

    #[test]
    fn a_batch_of_mixed_arities_is_refused_not_registered() {
        let program = parse_program(TC).unwrap().program;
        for (text, pred, expected, found) in [
            // A predicate in no rule: the batch's first row in tuple order
            // sets the arity.
            ("r(1, 2).\nr(1).\n", "r", 1, 2),
            // A predicate of the program: the program sets it.
            ("p(1, 2).\np(3).\n", "p", 2, 1),
        ] {
            let facts = parse_program(text).unwrap().facts;
            let err = evaluate(&program, facts, &EvalOptions::default()).unwrap_err();
            let want = EngineError::FactArity {
                pred: pred.into(),
                expected,
                found,
            };
            assert_eq!(err, want, "{text}");
        }
    }
}
