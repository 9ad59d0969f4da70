//! Incremental view maintenance: resident semi-naive state with delta
//! propagation.
//!
//! A [`ResidentEval`] retains everything a cold [`crate::evaluate`] run
//! builds and then throws away — the saturated [`Database`] (derived
//! relations *and* their composite probe indexes), the compiled rule
//! plans, and the per-predicate semi-naive marks at convergence. From that
//! frontier, [`ResidentEval::apply_deltas`] pushes a batch of newly
//! ingested EDB facts through the **same** freeze → plan → enumerate →
//! merge iteration barrier the cold evaluator uses
//! ([`Machine::run_stratum`]): tasks are planned from frozen marks,
//! enumerated into buffers, and merged in fixed (rule, variant, chunk)
//! order.
//!
//! ## Why semi-naive state restarts cleanly
//!
//! At a converged fixpoint every predicate's `mark_prev == mark_cur ==
//! len`: all deltas are empty. Inserting a batch of new rows and re-running
//! the loop **without** a seed round makes iteration 1's deltas exactly
//! the inserted rows — the delta-variant discipline (each variant reads
//! one literal's delta, earlier literals full, later literals old) then
//! enumerates exactly the rule instantiations that touch at least one new
//! fact, which is the textbook correctness argument for incremental
//! semi-naive maintenance of monotone programs. The seed round is only
//! needed on construction (it is also what fires empty-body unit rules,
//! which have no delta variants at all).
//!
//! ## What "identical to a cold run" means here
//!
//! For a monotone program, the resident database after any sequence of
//! batches is **set-identical** to a cold fixpoint over the union of the
//! inputs ([`Database::dump`] compares equal), and query answers extracted
//! from it are **byte-identical** (an [`AnswerSet`] is canonically
//! sorted). Physical row *order* inside derived relations legitimately
//! differs from the cold run's — rows arrive in delta order, not seed
//! order — which is why the identity the server and the differential
//! fuzzer enforce is: answers byte-identical vs cold and database
//! set-identical vs cold.
//!
//! ## Scope
//!
//! Only **monotone** programs (no negated literals anywhere) are
//! maintainable this way: a new EDB fact can never invalidate a fact
//! derived through negation-free rules, so the retained frontier stays a
//! subset of the new fixpoint. [`ResidentEval::supports`] is the gate;
//! [`ResidentEval::new`] refuses non-monotone programs with
//! [`EngineError::NonMonotone`]. The §3.1 boolean cut is likewise disabled
//! for resident state: retirement *timing* is data-dependent, so a cut
//! taken against a partial database could suppress derivations a cold run
//! over the full database would have made, breaking set-identity.

use std::collections::BTreeMap;
use std::time::Instant;

use datalog_ast::{Atom, PredRef, Program, Value};

use crate::cancel::CancelToken;
use crate::database::Database;
use crate::eval::{read_answers, EvalOptions, Machine, Strategy};
use crate::facts::{AnswerSet, Edb, FactSet};
use crate::provenance::Provenance;
use crate::stats::EvalStats;
use crate::EngineError;

/// One ingested EDB fact, addressed by predicate name (the resident state
/// interns predicates itself; new predicates are registered on first use).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    pub pred: PredRef,
    pub tuple: Vec<Value>,
}

impl Fact {
    pub fn new(pred: PredRef, tuple: Vec<Value>) -> Fact {
        Fact { pred, tuple }
    }
}

/// Per-call limits for one delta propagation. Unlike a cold evaluation
/// there is no fact budget: a propagation either completes or the resident
/// state is poisoned, so the only useful limits are the cooperative ones.
#[derive(Debug, Clone, Default)]
pub struct DeltaLimits {
    /// Wall-clock deadline, polled on the evaluator's usual cadence.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation, same cadence.
    pub cancel: Option<CancelToken>,
}

/// An immutable description of one converged resident frontier, published
/// at construction and re-published after every successful
/// [`ResidentEval::apply_deltas`]. The version counter is monotone per
/// resident instance (1 at construction, +1 per converged batch — no-op
/// batches included, since convergence was re-confirmed), and the
/// watermark counts every distinct input fact folded into the frontier: a
/// reader can name exactly which frontier answered it (`version`) and how
/// much input it reflects (`watermark`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frontier {
    /// Monotone per-instance version counter.
    pub version: u64,
    /// Distinct input facts applied (construction input + all batches).
    pub watermark: u64,
}

/// What one [`ResidentEval::apply_deltas`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Facts in the submitted batch.
    pub batch_facts: usize,
    /// Batch facts that were actually new (not already present).
    pub new_facts: usize,
    /// Facts derived by propagating the batch through the rules.
    pub derived_facts: u64,
    /// Fixpoint iterations the propagation ran.
    pub iterations: usize,
    /// The full counter set for this batch alone. Field-wise (including
    /// `iterations`), `initial_stats + Σ batch stats == cumulative_stats`
    /// — an exact partition of the work done since construction.
    pub stats: EvalStats,
    /// Wall time of the propagation (insert + fixpoint).
    pub wall_ns: u64,
    /// Whether anything changed (new EDB rows or new derived facts).
    pub changed: bool,
}

/// Retained semi-naive evaluation state for one program: the saturated
/// database, compiled plans, probe indexes, and converged delta marks.
/// See the module docs for the maintenance argument.
#[derive(Debug)]
pub struct ResidentEval {
    /// Program arities, for batch validation (same check cold loading does).
    arities: BTreeMap<PredRef, usize>,
    /// The cold evaluation's machine, kept: database, plans, provenance
    /// and metrics. The boolean cut is off (see module docs), so
    /// every rule stays active. Invariant between calls: every
    /// predicate's `mark_prev == mark_cur == len`, so a batch insert makes
    /// the new rows exactly iteration 1's deltas.
    machine: Machine,
    strategy: Strategy,
    /// Per-propagation iteration budget (from [`EvalOptions::max_iterations`]).
    max_iterations: usize,
    /// Counters of the construction-time full fixpoint.
    initial_stats: EvalStats,
    /// Field-wise running total: construction + every batch.
    cumulative: EvalStats,
    batches: usize,
    applied_facts: u64,
    /// Input facts the construction-time fixpoint loaded (the base of the
    /// frontier watermark; batches add [`ResidentEval::applied_facts`]).
    initial_facts: u64,
    /// The last published converged frontier (see [`Frontier`]).
    frontier: Frontier,
    /// Set when a propagation erred mid-flight (deadline, cancellation):
    /// the frontier may be between iterations and MUST NOT be served or
    /// propagated further. Callers drop poisoned state and fall back to a
    /// cold evaluation.
    poisoned: bool,
}

/// Field-wise accumulation (every counter adds, *including* `iterations`)
/// — deliberately not [`EvalStats::merge`], whose max-of-iterations
/// semantics models side-by-side runs, not sequential batches.
fn add_stats(acc: &mut EvalStats, s: &EvalStats) {
    acc.iterations += s.iterations;
    acc.facts_derived += s.facts_derived;
    acc.derivations += s.derivations;
    acc.duplicates += s.duplicates;
    acc.tuples_scanned += s.tuples_scanned;
    acc.index_probes += s.index_probes;
    acc.rules_retired += s.rules_retired;
}

impl ResidentEval {
    /// Whether `program` is maintainable incrementally: monotone, i.e. no
    /// rule has a negated literal. (Even negation over pure-EDB predicates
    /// is non-monotone under ingestion — a new EDB fact can falsify it.)
    pub fn supports(program: &Program) -> bool {
        program.rules.iter().all(|r| r.negative.is_empty())
    }

    /// Bound-class admission policy for pinning resident state: resident
    /// forms hold a full saturated database per form, so forms whose
    /// static size-bound analysis came back
    /// [`datalog_trace::BoundClass::Unbounded`] (nonlinear recursion the
    /// analysis could not trace past the active-domain fallback) are
    /// refused — they are exactly the forms whose retained state can grow
    /// without a useful ceiling. Everything with a certified bound
    /// (`Bounded`, `Linear`, `Polynomial`) is admitted; smaller classes
    /// are cheaper to keep resident and callers may prefer them when the
    /// LRU is contended.
    pub fn admits_bound_class(class: datalog_trace::BoundClass) -> bool {
        class != datalog_trace::BoundClass::Unbounded
    }

    /// Build resident state by running the full fixpoint over `input` —
    /// this *is* the cold evaluation, it just keeps its working state.
    /// `opts.boolean_cut` and `opts.profile` are ignored (see module docs);
    /// everything else (strategy, limits, provenance, metrics)
    /// applies to construction and to every later propagation.
    pub fn new(
        program: &Program,
        input: impl Into<Edb>,
        opts: &EvalOptions,
    ) -> Result<ResidentEval, EngineError> {
        if !ResidentEval::supports(program) {
            // A malformed program is refused as such, as a cold start
            // would refuse it.
            program.validate()?;
            let pred = program
                .rules
                .iter()
                .find_map(|r| r.negative.first().map(|a| a.pred.to_string()))
                .unwrap_or_default();
            return Err(EngineError::NonMonotone { pred });
        }
        let resident = EvalOptions {
            boolean_cut: false,
            profile: false,
            ..opts.clone()
        };
        let (mut m, arities) = Machine::start(program, input.into(), &resident)?;
        let initial_facts = m.db.total_facts() as u64;
        // Monotone programs form a single stratum, so one stratum run with
        // a genuine seed round (`seed_first = true` — required: unit rules
        // only fire in seed rounds) is exactly what `evaluate` would do.
        let mine: Vec<usize> = (0..m.plans.len()).collect();
        m.run_stratum(&mine, 0, opts.strategy, opts.max_iterations, true)?;
        let initial_stats = m.stats;
        Ok(ResidentEval {
            arities,
            machine: m,
            strategy: opts.strategy,
            max_iterations: opts.max_iterations,
            initial_stats,
            cumulative: initial_stats,
            batches: 0,
            applied_facts: 0,
            initial_facts,
            frontier: Frontier {
                version: 1,
                watermark: initial_facts,
            },
            poisoned: false,
        })
    }

    /// Propagate one batch of ingested facts to a new consistent frontier.
    ///
    /// The whole batch is arity-validated *before* anything is inserted,
    /// so a bad fact leaves the frontier untouched. If the propagation
    /// itself errs (deadline or cancellation mid-fixpoint) the frontier is
    /// left between iterations: the state is **poisoned** and every later
    /// call panics — drop it and rebuild from cold.
    ///
    /// # Panics
    /// Panics if called on poisoned state (see [`ResidentEval::poisoned`]).
    pub fn apply_deltas(
        &mut self,
        batch: &[Fact],
        limits: &DeltaLimits,
    ) -> Result<DeltaReport, EngineError> {
        assert!(
            !self.poisoned,
            "ResidentEval is poisoned; drop it and re-evaluate from cold"
        );
        let started = Instant::now();
        let m = &mut self.machine;
        // Validate the batch in full first: program arities, arities of
        // predicates registered by earlier batches, and consistency within
        // the batch itself for predicates seen here for the first time.
        let mut pending: BTreeMap<&PredRef, usize> = BTreeMap::new();
        for f in batch {
            let expected = self
                .arities
                .get(&f.pred)
                .copied()
                .or_else(|| m.db.pred_id(&f.pred).map(|id| m.db.relation(id).arity()))
                .or_else(|| pending.get(&f.pred).copied());
            if let Some(expected) = expected {
                if expected != f.tuple.len() {
                    return Err(EngineError::FactArity {
                        pred: f.pred.to_string(),
                        expected,
                        found: f.tuple.len(),
                    });
                }
            } else {
                pending.insert(&f.pred, f.tuple.len());
            }
        }
        // Insert past the converged marks: the new rows become iteration
        // 1's deltas.
        let mut new_facts = 0usize;
        for f in batch {
            let id = m.db.register(&f.pred, f.tuple.len());
            if m.db.insert(id, &f.tuple) {
                new_facts += 1;
            }
        }
        // This propagation's counters and limits; there is no fact budget.
        m.stats = EvalStats::default();
        m.started = started;
        m.deadline = limits.deadline;
        m.fact_budget = None;
        m.cancel = limits.cancel.clone();
        // No seed round: the frontier is converged, so iteration 1's
        // delta variants see exactly the batch rows. A batch that inserted
        // nothing (racing drains hand over rows the frontier already holds)
        // leaves every delta empty: the frontier is still converged and is
        // re-published without an iteration.
        if new_facts > 0 {
            let mine: Vec<usize> = (0..m.plans.len()).collect();
            if let Err(e) = m.run_stratum(&mine, 0, self.strategy, self.max_iterations, false) {
                self.poisoned = true;
                return Err(e);
            }
        }
        let stats = m.stats;
        add_stats(&mut self.cumulative, &stats);
        self.batches += 1;
        self.applied_facts += new_facts as u64;
        // Converged again: publish the new frontier. The version bumps on
        // every successful call (a no-op batch still re-confirmed
        // convergence).
        self.frontier = Frontier {
            version: self.frontier.version + 1,
            watermark: self.initial_facts + self.applied_facts,
        };
        Ok(DeltaReport {
            batch_facts: batch.len(),
            new_facts,
            derived_facts: stats.facts_derived,
            iterations: stats.iterations,
            stats,
            wall_ns: started.elapsed().as_nanos() as u64,
            changed: new_facts > 0 || stats.facts_derived > 0,
        })
    }

    /// Extract `q_atom`'s answers from the resident frontier (canonically
    /// sorted, hence byte-identical to a cold run's at the same facts).
    /// The same read as [`crate::extract_answers`], except that resident
    /// state is read again and again, so the first read that binds a column
    /// no index covers creates that column's read index and every later one
    /// probes it: a point read costs its answers, not the relation.
    pub fn answers(&self, q_atom: &Atom) -> AnswerSet {
        read_answers(q_atom, &self.machine.db, true)
    }

    /// The resident database (EDB + all derived facts at the frontier).
    pub fn database(&self) -> &Database {
        &self.machine.db
    }

    /// Canonical fact export of the frontier (set-identical to a cold
    /// fixpoint over the union of all inputs).
    pub fn dump(&self) -> FactSet {
        self.machine.db.dump()
    }

    /// Counters of the construction-time full fixpoint.
    pub fn initial_stats(&self) -> EvalStats {
        self.initial_stats
    }

    /// Field-wise total of construction plus every batch (see
    /// [`DeltaReport::stats`] for the partition law).
    pub fn cumulative_stats(&self) -> EvalStats {
        self.cumulative
    }

    /// Batches successfully propagated.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Batch facts that were new when applied (duplicates excluded).
    pub fn applied_facts(&self) -> u64 {
        self.applied_facts
    }

    /// Derivation provenance across construction and all batches, if
    /// requested at construction.
    pub fn provenance(&self) -> Option<&Provenance> {
        self.machine.provenance.as_ref()
    }

    /// Whether a failed propagation left the frontier inconsistent.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The last published converged frontier. Unaffected by a failed
    /// propagation (the poisoned flag, not the frontier, records that) —
    /// but a poisoned resident must not be *served*, so callers check
    /// [`ResidentEval::poisoned`] first.
    pub fn frontier(&self) -> Frontier {
        self.frontier
    }

    /// Total sealed sorted-run count across the resident database's
    /// relations — the `xdl_storage_runs` input.
    pub fn storage_runs(&self) -> usize {
        self.machine.db.storage_runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate, extract_answers};
    use datalog_ast::parse_program;

    const TC: &str = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                      a(X, Y) :- p(X, Y).\n\
                      ?- a(X, Y).";

    fn edge(i: i64, j: i64) -> Fact {
        Fact::new(PredRef::new("p"), vec![Value::int(i), Value::int(j)])
    }

    fn chain(n: i64) -> FactSet {
        let mut fs = FactSet::new();
        for i in 0..n {
            fs.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
        }
        fs
    }

    fn q_atom(src: &str) -> Atom {
        parse_program(src).unwrap().program.query.unwrap().atom
    }

    #[test]
    fn batches_converge_to_the_cold_fixpoint() {
        let p = parse_program(TC).unwrap().program;
        let opts = EvalOptions::default();
        let mut r = ResidentEval::new(&p, &chain(4), &opts).unwrap();
        let mut all = chain(4);
        // Extend the chain one edge at a time; after each batch the
        // frontier must be set-identical to a cold run over the union.
        for i in 4..8 {
            let rep = r
                .apply_deltas(&[edge(i, i + 1)], &DeltaLimits::default())
                .unwrap();
            assert!(rep.changed);
            assert_eq!(rep.new_facts, 1);
            all.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
            let cold = evaluate(&p, &all, &opts).unwrap();
            assert_eq!(r.dump(), cold.database.dump());
            assert_eq!(r.answers(&q_atom(TC)), {
                let (ans, _) = crate::eval::query_answers(&p, &all, &opts).unwrap();
                ans
            });
        }
        assert_eq!(r.batches(), 4);
        assert_eq!(r.applied_facts(), 4);
    }

    #[test]
    fn duplicate_and_empty_batches_are_noops() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(4), &EvalOptions::default()).unwrap();
        let before = r.dump();
        let rep = r
            .apply_deltas(&[edge(0, 1)], &DeltaLimits::default())
            .unwrap();
        assert!(!rep.changed);
        assert_eq!(rep.new_facts, 0);
        let rep = r.apply_deltas(&[], &DeltaLimits::default()).unwrap();
        assert!(!rep.changed);
        assert_eq!(r.dump(), before);
    }

    #[test]
    fn stats_partition_exactly() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(3), &EvalOptions::default()).unwrap();
        let mut expected = r.initial_stats();
        for i in 3..6 {
            let rep = r
                .apply_deltas(&[edge(i, i + 1)], &DeltaLimits::default())
                .unwrap();
            add_stats(&mut expected, &rep.stats);
        }
        assert_eq!(expected, r.cumulative_stats());
    }

    #[test]
    fn unit_rules_fire_on_construction() {
        // Unit rules (empty bodies — the optimizer pipeline introduces
        // them) have no delta variants; only the seed round fires them.
        // Regression guard for the seed_first flag.
        let mut p = parse_program(TC).unwrap().program;
        p.rules.push(datalog_ast::Rule::new(
            Atom::fact(PredRef::new("a"), vec![Value::int(100), Value::int(200)]),
            vec![],
        ));
        let mut r = ResidentEval::new(&p, &FactSet::new(), &EvalOptions::default()).unwrap();
        assert_eq!(r.answers(&q_atom(TC)).len(), 1);
        // And the unit fact joins with later deltas: p(0,100) must derive
        // a(0,200) through the resident a(100,200).
        r.apply_deltas(&[edge(0, 100)], &DeltaLimits::default())
            .unwrap();
        let mut all = FactSet::new();
        all.insert(PredRef::new("p"), vec![Value::int(0), Value::int(100)]);
        let cold = evaluate(&p, &all, &EvalOptions::default()).unwrap();
        assert_eq!(r.dump(), cold.database.dump());
        assert_eq!(r.answers(&q_atom(TC)).len(), 3);
    }

    #[test]
    fn batch_introducing_a_new_predicate_is_carried() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(2), &EvalOptions::default()).unwrap();
        let f = Fact::new(PredRef::new("unrelated"), vec![Value::sym("x")]);
        let rep = r.apply_deltas(&[f], &DeltaLimits::default()).unwrap();
        assert!(rep.changed);
        assert_eq!(rep.derived_facts, 0);
        assert!(r
            .dump()
            .iter()
            .any(|(pred, _)| pred == &PredRef::new("unrelated")));
        // And later batches still work over the grown predicate table.
        r.apply_deltas(&[edge(2, 3)], &DeltaLimits::default())
            .unwrap();
        assert_eq!(r.answers(&q_atom(TC)).len(), 6);
    }

    #[test]
    fn bad_arity_rejects_without_applying_anything() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(2), &EvalOptions::default()).unwrap();
        let before = r.dump();
        let bad = vec![
            edge(2, 3),
            Fact::new(PredRef::new("p"), vec![Value::int(9)]),
        ];
        let err = r.apply_deltas(&bad, &DeltaLimits::default()).unwrap_err();
        assert!(matches!(err, EngineError::FactArity { .. }));
        assert!(!r.poisoned());
        assert_eq!(r.dump(), before, "batch must be all-or-nothing");
    }

    #[test]
    fn negation_is_refused() {
        let src = "a(X) :- p(X, _), not q(X).\n?- a(X).";
        let p = parse_program(src).unwrap().program;
        assert!(!ResidentEval::supports(&p));
        let err = ResidentEval::new(&p, &FactSet::new(), &EvalOptions::default()).unwrap_err();
        assert!(matches!(err, EngineError::NonMonotone { .. }));
    }

    #[test]
    fn frontier_versions_are_monotone_and_published_per_batch() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(4), &EvalOptions::default()).unwrap();
        let f1 = r.frontier();
        assert_eq!(f1.version, 1);
        assert_eq!(f1.watermark, 4, "construction input is the base watermark");
        r.apply_deltas(&[edge(4, 5)], &DeltaLimits::default())
            .unwrap();
        let f2 = r.frontier();
        assert_eq!(f2.version, 2);
        assert_eq!(f2.watermark, 5);
        // A duplicate (no-op) batch still re-publishes: convergence was
        // re-confirmed, so the version advances while the watermark holds.
        r.apply_deltas(&[edge(4, 5)], &DeltaLimits::default())
            .unwrap();
        let f3 = r.frontier();
        assert_eq!(f3.version, 3);
        assert_eq!(f3.watermark, 5);
        // A rejected batch publishes nothing.
        let bad = [Fact::new(PredRef::new("p"), vec![Value::int(9)])];
        assert!(r.apply_deltas(&bad, &DeltaLimits::default()).is_err());
        assert_eq!(r.frontier().version, 3);
    }

    #[test]
    fn a_batch_with_no_new_row_publishes_without_iterating() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(4), &EvalOptions::default()).unwrap();
        let mut expected = r.initial_stats();
        let new = r
            .apply_deltas(&[edge(4, 5)], &DeltaLimits::default())
            .unwrap();
        add_stats(&mut expected, &new.stats);
        let version = r.frontier().version;
        // What a racing drain hands over: rows the frontier already holds.
        let dup = r
            .apply_deltas(&[edge(4, 5), edge(0, 1)], &DeltaLimits::default())
            .unwrap();
        assert_eq!((dup.batch_facts, dup.new_facts), (2, 0));
        assert_eq!(dup.stats, EvalStats::default(), "no iteration ran");
        assert_eq!(dup.iterations, 0);
        assert!(!dup.changed);
        assert_eq!(r.frontier().version, version + 1);
        assert_eq!(r.batches(), 2);
        add_stats(&mut expected, &dup.stats);
        assert_eq!(expected, r.cumulative_stats());
    }

    #[test]
    fn propagation_work_is_proportional_to_the_delta() {
        // Transitive closure over a 2 000-edge chain, restricted to paths
        // that end in a marked sink so that building the resident is not
        // two million facts. Appending the edge into the sink derives one
        // fact per iteration for 2 001 iterations. Started from the one-row
        // delta an iteration costs two rows; started from `p` it costs all
        // 2 001 of them.
        let src = "a(X, Y) :- p(X, Z), a(Z, Y).\n\
                   a(X, Y) :- p(X, Y), sink(Y).\n\
                   ?- a(X, Y).";
        let p = parse_program(src).unwrap().program;
        let mut input = chain(2000);
        input.insert(PredRef::new("sink"), vec![Value::int(2001)]);
        let mut r = ResidentEval::new(&p, &input, &EvalOptions::default()).unwrap();
        let rep = r
            .apply_deltas(&[edge(2000, 2001)], &DeltaLimits::default())
            .unwrap();
        assert_eq!(rep.derived_facts, 2001);
        let bound = 4 * (rep.derived_facts + rep.iterations as u64);
        assert!(
            rep.stats.tuples_scanned <= bound,
            "scanned {} rows for {} facts in {} iterations",
            rep.stats.tuples_scanned,
            rep.derived_facts,
            rep.iterations
        );
        assert!(rep.stats.index_probes <= bound);
    }

    #[test]
    fn an_index_exists_only_once_a_planned_order_probes_it() {
        let src = "above(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                   above(X, Y) :- mgr(X, Y).\n\
                   flagged(X) :- above(X, Y), audit(Y).\n\
                   ?- flagged(X).";
        let p = parse_program(src).unwrap().program;
        let mut input = FactSet::new();
        for i in 0..20 {
            input.insert(PredRef::new("mgr"), vec![Value::int(i + 1), Value::int(i)]);
        }
        input.insert(PredRef::new("audit"), vec![Value::int(10)]);
        let mut r = ResidentEval::new(&p, &input, &EvalOptions::default()).unwrap();
        assert_eq!(r.answers(&q_atom(src)).len(), 10);
        let above = r.database().pred_id(&PredRef::new("above")).unwrap();
        // The base orders probe `above` on column 0 only; column 1 is what
        // the `audit`-delta variant probes, and no cold run plans it.
        assert!(r.database().relation(above).has_index(&[0]));
        assert!(!r.database().relation(above).has_index(&[1]));
        let audit = Fact::new(PredRef::new("audit"), vec![Value::int(3)]);
        r.apply_deltas(&[audit], &DeltaLimits::default()).unwrap();
        assert!(r.database().relation(above).has_index(&[1]));
        assert_eq!(r.answers(&q_atom(src)).len(), 17);
    }

    #[test]
    fn a_resident_read_fills_the_slot_of_its_first_bound_column_only() {
        let src = "above(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                   above(X, Y) :- mgr(X, Y).\n\
                   flagged(X) :- above(X, Y), audit(Y).\n\
                   path(X, Y, Z) :- mgr(X, Y), mgr(Y, Z).\n\
                   ?- flagged(X).";
        let p = parse_program(src).unwrap().program;
        let mut input = FactSet::new();
        for i in 0..20 {
            input.insert(PredRef::new("mgr"), vec![Value::int(i + 1), Value::int(i)]);
        }
        input.insert(PredRef::new("audit"), vec![Value::int(10)]);
        let mut r = ResidentEval::new(&p, &input, &EvalOptions::default()).unwrap();
        let atom = |s: &str| datalog_ast::parse_atom(s).unwrap();
        let slots = |r: &ResidentEval, pred: &str| -> Vec<bool> {
            let rel = r
                .database()
                .relation(r.database().pred_id(&PredRef::new(pred)).unwrap());
            (0..rel.arity()).map(|c| rel.has_read_index(c)).collect()
        };
        // All-free, existential, repeated-variable and fully bound reads
        // bind no column to probe: no slot.
        for free in ["above(X, Y)", "above(X, _)", "above(X, X)", "above(7, 3)"] {
            r.answers(&atom(free));
        }
        assert_eq!(r.answers(&atom("above(7, 3)")).as_bool(), Some(true));
        assert_eq!(slots(&r, "above"), [false, false]);
        // Column 0 of `above` is probed by the recursive rule, so a read
        // bound there uses the planned index; column 1 has none, so the
        // first read bound there fills its slot — exactly that one.
        assert_eq!(r.answers(&atom("above(7, Y)")).len(), 7);
        assert_eq!(slots(&r, "above"), [false, false]);
        let overhead = r.database().storage_overhead_bytes();
        let below_five = r.answers(&atom("above(X, 5)"));
        assert_eq!(below_five.len(), 15);
        assert_eq!(slots(&r, "above"), [false, true]);
        // 4 bytes a row of `above` (20 + 19 + … + 1 pairs), accounted.
        assert_eq!(r.database().storage_overhead_bytes(), overhead + 4 * 210);
        assert_eq!(r.answers(&atom("above(X, 5)")), below_five);
        // Two bound columns of three: the first one's slot, then that slot
        // serves reads bound elsewhere as well.
        assert_eq!(r.answers(&atom("path(X, 4, 3)")).len(), 1);
        assert_eq!(slots(&r, "path"), [false, true, false]);
        assert_eq!(r.answers(&atom("path(_, 9, 8)")).as_bool(), Some(true));
        assert_eq!(r.answers(&atom("path(X, Y, 3)")).len(), 1);
        assert_eq!(slots(&r, "path"), [false, true, true]);
        // `extract_answers` never creates, even on a resident's database.
        extract_answers(&atom("mgr(X, 3)"), r.database());
        assert_eq!(slots(&r, "mgr"), [false, false]);
        // An `audit` delta makes the planner index `above` on column 1:
        // the planned index takes the slot's place and the read is the same.
        let audit = Fact::new(PredRef::new("audit"), vec![Value::int(3)]);
        r.apply_deltas(&[audit], &DeltaLimits::default()).unwrap();
        let above = r.database().pred_id(&PredRef::new("above")).unwrap();
        assert!(r.database().relation(above).has_index(&[1]));
        assert_eq!(slots(&r, "above"), [false, false]);
        assert_eq!(r.answers(&atom("above(X, 5)")), below_five);
        assert_eq!(slots(&r, "above"), [false, false]);
    }

    /// Three-literal bodies with the delta first, in the middle and at the
    /// end, a recursive rule, a body constant and a repeated variable.
    const THREE: &str = "r(X, W) :- e(X, Y), f(Y, Z), g(Z, W).\n\
                         r(X, W) :- e(X, Y), r(Y, Z), g(Z, W).\n\
                         t(X) :- r(X, X), f(X, 0), g(0, X).\n\
                         ?- r(X, Y).";

    /// A deterministic scramble of `n` edges over `e`, `f`, `g` between
    /// `dom` nodes.
    fn three_facts(n: i64, dom: i64) -> Vec<Fact> {
        let mut x: i64 = 7;
        (0..n)
            .map(|i| {
                x = (x * 1103515245 + 12345).rem_euclid(1 << 31);
                let pred = ["e", "f", "g"][(i % 3) as usize];
                let (a, b) = ((x >> 8).rem_euclid(dom), (x >> 16).rem_euclid(dom));
                Fact::new(PredRef::new(pred), vec![Value::int(a), Value::int(b)])
            })
            .collect()
    }

    /// Every recorded justification instantiates its rule with the premise
    /// rows taken in body-literal order.
    fn assert_premises_in_body_order(p: &Program, r: &ResidentEval) {
        let db = r.database();
        let prov = r.provenance().expect("provenance is recorded");
        let fact_of = |pred: crate::database::PredId, row: u32| {
            let tuple = db.relation(pred).row(row as usize).to_vec();
            Atom::fact(db.pred_ref(pred).clone(), tuple)
        };
        let mut checked = 0;
        for id in 0..db.pred_count() {
            let pred = crate::database::PredId(id as u32);
            for row in 0..db.relation(pred).len() as u32 {
                let Some(j) = prov.justification(pred, row) else {
                    continue;
                };
                let rule = &p.rules[j.rule_idx];
                assert_eq!(j.premises.len(), rule.body.len());
                let mut s = datalog_ast::subst::Subst::new();
                for (lit, &(ppred, prow)) in rule.body.iter().zip(&j.premises) {
                    assert!(
                        datalog_ast::subst::match_atom(lit, &fact_of(ppred, prow), &mut s),
                        "premise {} does not match body literal {lit} of rule {}",
                        fact_of(ppred, prow),
                        j.rule_idx
                    );
                }
                assert_eq!(s.apply_atom(&rule.head), fact_of(pred, row));
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn single_fact_batches_reach_every_delta_position() {
        let p = parse_program(THREE).unwrap().program;
        let opts = EvalOptions {
            record_provenance: true,
            ..EvalOptions::default()
        };
        let facts = three_facts(60, 6);
        let (loaded, rest) = facts.split_at(36);
        let mut all = FactSet::new();
        for f in loaded {
            all.insert(f.pred.clone(), f.tuple.clone());
        }
        let mut r1 = ResidentEval::new(&p, &all, &opts).unwrap();
        // One fact per batch, cycling through `e`, `f` and `g`: the delta
        // sits first, in the middle and at the end of the three-literal
        // bodies, each time far shorter than the relation the base order
        // would walk.
        for f in rest {
            let batch = std::slice::from_ref(f);
            r1.apply_deltas(batch, &DeltaLimits::default()).unwrap();
            all.insert(f.pred.clone(), f.tuple.clone());
            let cold = evaluate(&p, &all, &opts).unwrap();
            assert_eq!(r1.dump(), cold.database.dump());
            assert_eq!(
                r1.answers(&q_atom(THREE)),
                extract_answers(&q_atom(THREE), &cold.database)
            );
        }
        assert_premises_in_body_order(&p, &r1);
        let t = r1.database().pred_id(&PredRef::new("t")).unwrap();
        assert!(!r1.database().relation(t).is_empty(), "the `t` rule fired");
    }

    #[test]
    fn both_orders_enumerate_the_same_instantiations() {
        // The same `f` and `g` rows reach two residents of the same
        // program: as one batch whose deltas are longer than `e`, the
        // relation the base order walks first (base order chosen), and one
        // row per batch (delta-first chosen).
        let p = parse_program(THREE).unwrap().program;
        let facts = three_facts(240, 9);
        let (loaded, rest) = facts.split_at(60);
        let rest: Vec<Fact> = rest
            .iter()
            .filter(|f| f.pred != PredRef::new("e"))
            .cloned()
            .collect();
        let mut all = FactSet::new();
        for f in loaded {
            all.insert(f.pred.clone(), f.tuple.clone());
        }
        let opts = EvalOptions::default();
        let mut bulk = ResidentEval::new(&p, &all, &opts).unwrap();
        let mut trickle = ResidentEval::new(&p, &all, &opts).unwrap();
        let len = |r: &ResidentEval, pred: &str| {
            let id = r.database().pred_id(&PredRef::new(pred)).unwrap();
            r.database().relation(id).len()
        };
        let (f_old, g_old) = (len(&bulk, "f"), len(&bulk, "g"));
        bulk.apply_deltas(&rest, &DeltaLimits::default()).unwrap();
        assert!(len(&bulk, "f") - f_old >= len(&bulk, "e"));
        assert!(len(&bulk, "g") - g_old >= len(&bulk, "e"));
        for f in &rest {
            trickle
                .apply_deltas(std::slice::from_ref(f), &DeltaLimits::default())
                .unwrap();
            all.insert(f.pred.clone(), f.tuple.clone());
        }
        let cold = evaluate(&p, &all, &opts).unwrap();
        assert_eq!(bulk.dump(), cold.database.dump());
        assert_eq!(trickle.dump(), cold.database.dump());
        // Semi-naive enumerates each instantiation once however the rows
        // are batched and whichever order walks it; only the rows scanned
        // (and the probes made) on the way may differ.
        let (b, t) = (bulk.cumulative_stats(), trickle.cumulative_stats());
        assert_eq!(b.derivations, t.derivations);
        assert_eq!(b.facts_derived, t.facts_derived);
        assert_eq!(b.duplicates, t.duplicates);
        // (1 351 derivations, 75 facts, 1 276 duplicates on this instance,
        // and in the cold run too.)
        assert_eq!(b.derivations, cold.stats.derivations);
        assert_eq!(b.facts_derived, cold.stats.facts_derived);
        assert_ne!(b.tuples_scanned, t.tuples_scanned);
    }

    #[test]
    fn deadline_trip_poisons_the_state() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(50), &EvalOptions::default()).unwrap();
        let limits = DeltaLimits {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            cancel: None,
        };
        let err = r.apply_deltas(&[edge(50, 51)], &limits).unwrap_err();
        assert!(err.is_limit());
        assert!(r.poisoned());
    }
}
