//! Incremental view maintenance: resident semi-naive state with delta
//! propagation.
//!
//! A [`ResidentEval`] retains everything a cold [`crate::evaluate`] run
//! builds and then throws away — the saturated [`Database`] (derived
//! relations *and* their composite probe indexes), the compiled rule
//! plans, and the per-predicate semi-naive marks at convergence. From that
//! frontier, [`ResidentEval::apply_deltas`] loads a batch of newly
//! ingested EDB facts through the cold evaluation's own loader
//! ([`load_input`]) and pushes it through the **same** fixpoint loop
//! ([`Machine::run_stratum`]): join variants fixed from frozen marks, each
//! enumerated into the one candidate buffer and merged in order.
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
//! The resident database after any sequence of batches is
//! **set-identical** to a cold fixpoint over the union of the inputs
//! ([`Database::dump`] compares equal), and query answers extracted from
//! it are **byte-identical** (an [`AnswerSet`] is canonically sorted).
//! Physical row *order* inside derived relations legitimately differs from
//! the cold run's — rows arrive in delta order, not seed order — which is
//! why the identity the server and the differential fuzzer enforce is:
//! answers byte-identical vs cold and database set-identical vs cold.
//!
//! ## Scope
//!
//! Every **stratifiable** program is maintainable, negation included,
//! because the input only grows: nothing is ever retracted. Each batch
//! runs the cold evaluation's strata loop ([`Machine::run_strata`]) stratum
//! by stratum, lowest first. A stratum none of whose inputs changed runs
//! no iteration. A stratum whose negated predicates did not grow is
//! monotone for this batch — a new row can only add to what its rules
//! derive — so it propagates the rows loaded or derived since the batch
//! began, exactly as above. A stratum one of whose negated predicates grew
//! may have to lose facts: it clears its head relations and reruns from a
//! seed round over the strata below it, which are complete; so does every
//! stratum that reads a relation recomputed below it. A program with
//! negation therefore takes no input rows for a predicate it derives
//! (a recompute would clear them): [`ResidentEval::new`] and
//! [`ResidentEval::apply_deltas`] refuse them with
//! [`EngineError::DerivedInput`]. [`ResidentEval::supports`] is the gate;
//! an unstratifiable program is refused with
//! [`EngineError::NotStratified`], as a cold run refuses it. The §3.1
//! boolean cut is disabled for resident state: retirement *timing* is
//! data-dependent, so a cut taken against a partial database could
//! suppress derivations a cold run over the full database would have made,
//! breaking set-identity.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use datalog_ast::{Atom, PredRef, Program, Value};

use crate::cancel::CancelToken;
use crate::database::{Database, PredId};
use crate::eval::{load_input, read_answers, stratify, EvalOptions, Machine, Strategy, StratumRun};
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

/// What one [`ResidentEval::apply_deltas`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReport {
    /// Batch facts that were actually new (not already present).
    pub new_facts: usize,
    /// Facts derived by propagating the batch through the rules.
    pub derived_facts: u64,
}

/// Retained semi-naive evaluation state for one program: the saturated
/// database, compiled plans, probe indexes, and converged delta marks.
/// See the module docs for the maintenance argument.
#[derive(Debug)]
pub struct ResidentEval {
    /// Program arities, for batch validation (the check cold loading does).
    arities: BTreeMap<PredRef, usize>,
    /// The predicates a program with negation derives, which take no input
    /// rows; empty for a program without negation.
    derived: BTreeSet<PredRef>,
    /// The cold evaluation's machine, kept: database, plans, strata,
    /// provenance and metrics. The boolean cut is off (see module docs), so
    /// every rule stays active. Between calls every predicate's `mark_prev
    /// == mark_cur == len`.
    machine: Machine,
    /// What each stratum did in the last pass (construction or batch).
    last_runs: Vec<StratumRun>,
    strategy: Strategy,
    /// Per-propagation iteration budget (from [`EvalOptions::max_iterations`]).
    max_iterations: usize,
    /// Counters of the construction-time full fixpoint.
    initial_stats: EvalStats,
    /// Set when a propagation erred mid-flight (deadline, cancellation):
    /// the frontier may be between iterations and MUST NOT be served or
    /// propagated further. Callers drop poisoned state and fall back to a
    /// cold evaluation.
    poisoned: bool,
}

impl ResidentEval {
    /// Whether `program` is maintainable incrementally: stratifiable, as
    /// a cold run requires too. Negation is fine (see module docs).
    pub fn supports(program: &Program) -> bool {
        stratify(program).is_ok()
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
    /// applies to construction and to every later propagation. A program
    /// with negation takes no `input` rows for a predicate it derives.
    pub fn new(
        program: &Program,
        input: impl Into<Edb>,
        opts: &EvalOptions,
    ) -> Result<ResidentEval, EngineError> {
        let derived = if program.rules.iter().any(|r| r.has_negation()) {
            program.idb_preds()
        } else {
            BTreeSet::new()
        };
        let resident = EvalOptions {
            boolean_cut: false,
            profile: false,
            ..opts.clone()
        };
        let (mut m, arities) = Machine::start(program, input.into(), &resident)?;
        if let Some(pred) = derived.iter().find(|p| {
            m.db.pred_id(p)
                .is_some_and(|id| !m.db.relation(id).is_empty())
        }) {
            return Err(EngineError::DerivedInput {
                pred: pred.to_string(),
            });
        }
        let last_runs = m.run_strata(opts.strategy, opts.max_iterations, None)?;
        Ok(ResidentEval {
            arities,
            derived,
            initial_stats: m.stats,
            machine: m,
            last_runs,
            strategy: opts.strategy,
            max_iterations: opts.max_iterations,
            poisoned: false,
        })
    }

    /// Propagate one batch of ingested facts to a new consistent frontier.
    ///
    /// The batch enters through the cold evaluation's loader, grouped into
    /// flat batches by predicate: every predicate's rows are arity-checked before any is
    /// loaded, so a bad fact leaves the frontier untouched, and so does a
    /// fact for a predicate a program with negation derives. Then each
    /// stratum propagates, recomputes or idles (see module docs). If the
    /// propagation itself errs (deadline or cancellation mid-fixpoint) the
    /// frontier is left between iterations: the state is **poisoned** and
    /// every later call panics — drop it and rebuild from cold.
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
        if let Some(f) = batch.iter().find(|f| self.derived.contains(&f.pred)) {
            return Err(EngineError::DerivedInput {
                pred: f.pred.to_string(),
            });
        }
        let m = &mut self.machine;
        let input = Edb::from_rows(batch.iter().map(|f| (&f.pred, &f.tuple[..])));
        // The converged lengths: every row past them is new in this batch.
        let lens: Vec<usize> = (0..m.db.pred_count())
            .map(|p| m.db.relation(PredId(p as u32)).len())
            .collect();
        let new_facts = load_input(&mut m.db, &self.arities, input)?;
        // This propagation's counters and limits; there is no fact budget.
        m.stats = EvalStats::default();
        m.started = m.clock.now();
        m.deadline = limits.deadline;
        m.fact_budget = None;
        m.cancel = limits.cancel.clone();
        // A batch that loaded nothing (racing drains hand over rows the
        // frontier already holds) leaves every stratum idle.
        match m.run_strata(self.strategy, self.max_iterations, Some(&lens)) {
            Ok(runs) => self.last_runs = runs,
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        }
        Ok(DeltaReport {
            new_facts,
            derived_facts: m.stats.facts_derived,
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

    /// Derivation provenance across construction and all batches, if
    /// requested at construction.
    pub fn provenance(&self) -> Option<&Provenance> {
        self.machine.provenance.as_ref()
    }

    /// Whether a failed propagation left the frontier inconsistent.
    pub fn poisoned(&self) -> bool {
        self.poisoned
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

    /// The counters of the last propagation alone.
    fn batch_stats(r: &ResidentEval) -> EvalStats {
        r.machine.stats
    }

    /// Field-wise accumulation, `iterations` included: sequential batches
    /// add up, unlike [`EvalStats::merge`]'s side-by-side runs.
    fn add_stats(acc: &mut EvalStats, s: &EvalStats) {
        acc.iterations += s.iterations;
        acc.facts_derived += s.facts_derived;
        acc.derivations += s.derivations;
        acc.duplicates += s.duplicates;
        acc.tuples_scanned += s.tuples_scanned;
        acc.index_probes += s.index_probes;
        acc.rules_retired += s.rules_retired;
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
            assert_eq!(rep.new_facts, 1);
            assert!(rep.derived_facts > 0);
            all.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
            let cold = evaluate(&p, &all, &opts).unwrap();
            assert_eq!(r.dump(), cold.database.dump());
            assert_eq!(r.answers(&q_atom(TC)), {
                let (ans, _) = crate::eval::query_answers(&p, &all, &opts).unwrap();
                ans
            });
        }
    }

    #[test]
    fn duplicate_and_empty_batches_are_noops() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(4), &EvalOptions::default()).unwrap();
        let before = r.dump();
        let rep = r
            .apply_deltas(&[edge(0, 1)], &DeltaLimits::default())
            .unwrap();
        let nothing = DeltaReport {
            new_facts: 0,
            derived_facts: 0,
        };
        assert_eq!(rep, nothing);
        let rep = r.apply_deltas(&[], &DeltaLimits::default()).unwrap();
        assert_eq!(rep, nothing);
        assert_eq!(r.dump(), before);
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
        assert_eq!(rep.new_facts, 1);
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
        // A predicate no rule mentions, carried at arity 1 from here on.
        let carried = |tuple: Vec<Value>| Fact::new(PredRef::new("u"), tuple);
        r.apply_deltas(&[carried(vec![Value::sym("x")])], &DeltaLimits::default())
            .unwrap();
        let before = r.dump();
        let cases: [(&str, Vec<Fact>, EngineError); 3] = [
            (
                "a program predicate at another arity",
                vec![
                    edge(2, 3),
                    Fact::new(PredRef::new("p"), vec![Value::int(9)]),
                ],
                EngineError::FactArity {
                    pred: "p".into(),
                    expected: 2,
                    found: 1,
                },
            ),
            (
                "the second predicate's rows disagree",
                vec![
                    edge(2, 3),
                    Fact::new(PredRef::new("v"), vec![Value::int(1), Value::int(2)]),
                    Fact::new(PredRef::new("v"), vec![Value::int(1)]),
                ],
                EngineError::FactArity {
                    pred: "v".into(),
                    expected: 1,
                    found: 2,
                },
            ),
            (
                "a carried predicate comes back at another arity",
                vec![edge(2, 3), carried(vec![Value::sym("x"), Value::sym("y")])],
                EngineError::FactArity {
                    pred: "u".into(),
                    expected: 1,
                    found: 2,
                },
            ),
        ];
        for (what, batch, want) in cases {
            let err = r.apply_deltas(&batch, &DeltaLimits::default()).unwrap_err();
            assert_eq!(err, want, "{what}");
            assert!(!r.poisoned(), "{what}");
            assert_eq!(r.dump(), before, "{what}: batch must be all-or-nothing");
            assert!(r.database().pred_id(&PredRef::new("v")).is_none(), "{what}");
        }
        // Nothing was applied, so the good row still propagates in full.
        let rep = r
            .apply_deltas(&[edge(2, 3)], &DeltaLimits::default())
            .unwrap();
        assert_eq!((rep.new_facts, rep.derived_facts), (1, 3));
    }

    #[test]
    fn an_unstratifiable_program_is_refused() {
        // Negation through recursion: no stratification exists.
        let src = "a(X) :- p(X, Y), not b(Y).\nb(X) :- p(X, Y), a(Y).\n?- a(X).";
        let p = parse_program(src).unwrap().program;
        assert!(!ResidentEval::supports(&p));
        let err = ResidentEval::new(&p, &FactSet::new(), &EvalOptions::default()).unwrap_err();
        assert_eq!(err, EngineError::NotStratified { pred: "a".into() });
        // Stratified negation is supported.
        let src = "a(X) :- p(X, _), not q(X).\n?- a(X).";
        assert!(ResidentEval::supports(&parse_program(src).unwrap().program));
    }

    /// The org schema: `clean` (stratum 1) negates `flagged` (stratum 0).
    const ORG: &str = "above(X, Y) :- mgr(X, Y).\n\
                       above(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                       peer(X, Y) :- mgr(Z, X), mgr(Z, Y).\n\
                       skip(X, Y) :- mgr(X, Z), mgr(Z, Y).\n\
                       flagged(X) :- above(X, Y), audit(Y).\n\
                       clean(X) :- emp(X), not flagged(X).\n\
                       clean(X) :- flagged(X), cleared(X).\n\
                       ?- clean(X).";

    /// Three strata: `ok` negates the derived `blocked` and the EDB
    /// `banned`; `lone` negates the derived `ok`.
    const THREE_STRATA: &str = "reach(X, Y) :- e(X, Y).\n\
                                reach(X, Y) :- e(X, Z), reach(Z, Y).\n\
                                blocked(X) :- reach(X, Y), bad(Y).\n\
                                ok(X) :- node(X), not blocked(X), not banned(X).\n\
                                lone(X, Y) :- ok(X), reach(X, Y), not ok(Y).\n\
                                ?- lone(X, Y).";

    fn fact(pred: &str, vals: &[i64]) -> Fact {
        Fact::new(
            PredRef::new(pred),
            vals.iter().map(|&v| Value::int(v)).collect(),
        )
    }

    /// Feed `batches` to a resident of `src` built over `initial`, and
    /// after every batch check it against a cold run over the union —
    /// database set-identical, answers byte-identical, provenance only of
    /// rows that exist — and that each stratum did what `expect` says.
    fn differential(src: &str, initial: &[Fact], batches: &[(Vec<Fact>, Vec<StratumRun>)]) {
        let p = parse_program(src).unwrap().program;
        let opts = EvalOptions {
            record_provenance: true,
            ..EvalOptions::default()
        };
        let mut all = FactSet::new();
        for f in initial {
            all.insert(f.pred.clone(), f.tuple.clone());
        }
        let mut r = ResidentEval::new(&p, &all, &opts).unwrap();
        for (i, (batch, expect)) in batches.iter().enumerate() {
            r.apply_deltas(batch, &DeltaLimits::default()).unwrap();
            for f in batch {
                all.insert(f.pred.clone(), f.tuple.clone());
            }
            let cold = evaluate(&p, &all, &opts).unwrap();
            assert_eq!(r.dump(), cold.database.dump(), "batch {i}");
            assert_eq!(
                r.answers(&q_atom(src)).to_string(),
                extract_answers(&q_atom(src), &cold.database).to_string(),
                "batch {i}"
            );
            assert_eq!(&r.last_runs, expect, "batch {i}");
            assert_premises_in_body_order(&p, &r);
            // One justification per derived row: a cleared row's is gone.
            assert_eq!(
                r.provenance().map(Provenance::len),
                cold.provenance.as_ref().map(Provenance::len),
                "batch {i}"
            );
        }
    }

    #[test]
    fn stratified_batches_match_cold_runs_and_recompute_only_when_negation_grows() {
        use StratumRun::{Idle, Propagated as Prop, Recomputed as Redo};
        // A four-level chain 1 <- 2 <- 3 <- 4 (`mgr(X, Y)`: Y manages X).
        let mut initial: Vec<Fact> = (1..4).map(|i| fact("mgr", &[i + 1, i])).collect();
        initial.extend((1..=4).map(|i| fact("emp", &[i])));
        initial.push(fact("audit", &[2]));
        differential(
            ORG,
            &initial,
            &[
                // `emp` only grows a positive input of `clean`.
                (vec![fact("emp", &[5])], vec![Idle, Prop]),
                // 5 goes under 1, whom no audit is above: `flagged`
                // keeps its rows, `clean` reads nothing new.
                (vec![fact("mgr", &[5, 1])], vec![Prop, Idle]),
                // An audit of 1, above everyone: `flagged` grows, `clean`
                // is recomputed and loses them.
                (vec![fact("audit", &[1])], vec![Prop, Redo]),
                // Cleared: a positive input again.
                (vec![fact("cleared", &[5])], vec![Idle, Prop]),
                // A mixed batch that grows `flagged`.
                (
                    vec![
                        fact("mgr", &[6, 5]),
                        fact("emp", &[6]),
                        fact("cleared", &[4]),
                    ],
                    vec![Prop, Redo],
                ),
                // Rows the frontier already holds, and nothing at all.
                (
                    vec![fact("emp", &[1]), fact("audit", &[1])],
                    vec![Idle, Idle],
                ),
                (vec![], vec![Idle, Idle]),
            ],
        );
    }

    #[test]
    fn three_strata_follow_a_recompute_upward() {
        use StratumRun::{Idle, Propagated as Prop, Recomputed as Redo};
        let mut initial: Vec<Fact> = (0..5).map(|i| fact("e", &[i, i + 1])).collect();
        initial.extend((0..6).map(|i| fact("node", &[i])));
        initial.push(fact("bad", &[5]));
        initial.push(fact("e", &[7, 8]));
        differential(
            THREE_STRATA,
            &initial,
            &[
                // Reaches nothing bad: only `reach` and `lone` see it.
                (vec![fact("e", &[8, 9])], vec![Prop, Idle, Prop]),
                // New nodes: `ok` grows, so `lone`, which negates it, is
                // recomputed.
                (
                    vec![fact("node", &[7]), fact("node", &[9])],
                    vec![Idle, Prop, Redo],
                ),
                // The EDB `banned` grows: `ok` is recomputed, and so is
                // `lone` above it.
                (vec![fact("banned", &[8])], vec![Idle, Redo, Redo]),
                // A new bad node grows the derived `blocked`.
                (vec![fact("bad", &[9])], vec![Prop, Redo, Redo]),
                // An edge into the bad part grows `reach` and `blocked`.
                (vec![fact("e", &[5, 7])], vec![Prop, Redo, Redo]),
                (vec![fact("node", &[100])], vec![Idle, Prop, Redo]),
            ],
        );
    }

    #[test]
    fn rows_for_a_derived_predicate_of_a_program_with_negation_are_refused() {
        let p = parse_program(ORG).unwrap().program;
        let opts = EvalOptions::default();
        let mut input = FactSet::new();
        input.insert(PredRef::new("flagged"), vec![Value::int(1)]);
        let err = ResidentEval::new(&p, &input, &opts).unwrap_err();
        assert_eq!(
            err,
            EngineError::DerivedInput {
                pred: "flagged".into()
            }
        );
        let mut r = ResidentEval::new(&p, &FactSet::new(), &opts).unwrap();
        let err = r
            .apply_deltas(
                &[fact("emp", &[1]), fact("above", &[1, 2])],
                &DeltaLimits::default(),
            )
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::DerivedInput {
                pred: "above".into()
            }
        );
        assert!(!r.poisoned());
        assert!(r.dump().is_empty(), "nothing of the batch was loaded");
        // A monotone program still takes them, as a cold run does.
        let mut r =
            ResidentEval::new(&parse_program(TC).unwrap().program, &chain(2), &opts).unwrap();
        let seeded = Fact::new(PredRef::new("a"), vec![Value::int(7), Value::int(8)]);
        r.apply_deltas(&[seeded], &DeltaLimits::default()).unwrap();
        assert_eq!(r.answers(&q_atom(TC)).len(), 4);
    }

    #[test]
    fn a_batch_with_no_new_row_publishes_without_iterating() {
        let p = parse_program(TC).unwrap().program;
        let mut r = ResidentEval::new(&p, &chain(4), &EvalOptions::default()).unwrap();
        r.apply_deltas(&[edge(4, 5)], &DeltaLimits::default())
            .unwrap();
        assert!(batch_stats(&r).iterations > 0);
        let before = r.dump();
        // What a racing drain hands over: rows the frontier already holds.
        let dup = r
            .apply_deltas(&[edge(4, 5), edge(0, 1)], &DeltaLimits::default())
            .unwrap();
        assert_eq!((dup.new_facts, dup.derived_facts), (0, 0));
        assert_eq!(batch_stats(&r), EvalStats::default(), "no iteration ran");
        assert!(!r.poisoned());
        assert_eq!(r.dump(), before);
        // Still converged: the next batch propagates as usual.
        let rep = r
            .apply_deltas(&[edge(5, 6)], &DeltaLimits::default())
            .unwrap();
        assert_eq!((rep.new_facts, rep.derived_facts), (1, 6));
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
        let stats = batch_stats(&r);
        let bound = 4 * (rep.derived_facts + stats.iterations as u64);
        assert!(
            stats.tuples_scanned <= bound,
            "scanned {} rows for {} facts in {} iterations",
            stats.tuples_scanned,
            rep.derived_facts,
            stats.iterations
        );
        assert!(stats.index_probes <= bound);
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
        // The read index over `above`'s 210 rows, accounted: 20 keys in 64
        // slots, 32 group headers, and groups of 2 to 20 ids in vectors of
        // capacity 2, 4 (twice), 8 (four times), 16 (eight) and 32 (four),
        // 298 ids, plus the column set.
        let groups = 2 + 2 * 4 + 4 * 8 + 8 * 16 + 4 * 32;
        assert_eq!(
            r.database().storage_overhead_bytes(),
            overhead + 64 * 4 + 32 * 24 + groups * 4 + 8
        );
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
        let mut b = bulk.initial_stats();
        bulk.apply_deltas(&rest, &DeltaLimits::default()).unwrap();
        add_stats(&mut b, &batch_stats(&bulk));
        assert!(len(&bulk, "f") - f_old >= len(&bulk, "e"));
        assert!(len(&bulk, "g") - g_old >= len(&bulk, "e"));
        let mut t = trickle.initial_stats();
        for f in &rest {
            trickle
                .apply_deltas(std::slice::from_ref(f), &DeltaLimits::default())
                .unwrap();
            add_stats(&mut t, &batch_stats(&trickle));
            all.insert(f.pred.clone(), f.tuple.clone());
        }
        let cold = evaluate(&p, &all, &opts).unwrap();
        assert_eq!(bulk.dump(), cold.database.dump());
        assert_eq!(trickle.dump(), cold.database.dump());
        // Semi-naive enumerates each instantiation once however the rows
        // are batched and whichever order walks it; only the rows scanned
        // (and the probes made) on the way may differ.
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
