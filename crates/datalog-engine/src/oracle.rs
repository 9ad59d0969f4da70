//! Equivalence oracles.
//!
//! * [`uniform_test`] — Sagiv's decidable test for deleting a rule under
//!   **uniform equivalence** (Example 4 of the paper): freeze the rule's
//!   variables to skolem constants, feed the frozen body to the program
//!   *without* the rule, and check that the frozen head is re-derived.
//! * [`uniform_query_test`] — the paper's **uniform query equivalence**
//!   variant (Example 6): instead of the frozen head, check that every
//!   *query-predicate* fact the full program derives from the frozen body
//!   is also derived without the rule. The paper offers this as a
//!   sufficient condition; it is strictly more permissive than Sagiv's
//!   test, and `datalog-opt` pairs it with randomized validation because
//!   the bare test can over-delete on adversarial programs (see the
//!   `paper_test_is_not_sound_alone` test below).
//! * [`theorem_5_2_test`] — the optimistic-derivation test of Theorem 5.2.
//! * [`bounded_equiv_check`] — randomized refutation of (query)
//!   equivalence between two programs: generate random instances, compare
//!   answers. Used pervasively by the test suites and by the optimizer's
//!   `validate_deletions` mode.
//! * [`extract_by_matching`] — answer extraction by unifying the query atom
//!   with every stored fact: what [`crate::extract_answers`] did before it
//!   became a compiled read, kept as the reference the differential tests
//!   and the fuzzer compare the read plan against. No serving path calls it.
//! * [`check_indexes`] — a relation's planned indexes and membership test
//!   against a filtered scan of its rows: the storage reference for the
//!   unit tests and the fuzzer's storage self-check.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use datalog_ast::{freeze_rule, subst, Atom, Program, Term, Value};

use crate::database::Database;
use crate::eval::{evaluate, query_answers, EvalOptions};
use crate::facts::{AnswerSet, FactSet};
use crate::optimistic::{optimistic_fixpoint, Grounding};
use crate::relation::Relation;
use crate::EngineError;

/// Sagiv's frozen-rule test: is `program` *uniformly equivalent* to
/// `program.without_rule(rule_idx)`?
///
/// Deleting a rule can only shrink the least fixpoint, so the test reduces
/// to containment of the deleted rule: with the frozen body as input DB,
/// the remaining rules must re-derive the frozen head.
pub fn uniform_test(program: &Program, rule_idx: usize) -> Result<bool, EngineError> {
    let frozen = freeze_rule(&program.rules[rule_idx]);
    let reduced = program.without_rule(rule_idx);
    let mut input = FactSet::new();
    for f in &frozen.body_facts {
        input.insert_atom(f);
    }
    let out = evaluate(&reduced, &input, &EvalOptions::default())?;
    Ok(out.database.dump().contains_atom(&frozen.head_fact))
}

/// The paper's uniform *query* equivalence test (Example 6): with the
/// frozen body of `rule_idx` as input, every fact of the query predicate
/// derivable by the full program must be derivable without the rule.
///
/// Requires `program.query` to be set.
pub fn uniform_query_test(program: &Program, rule_idx: usize) -> Result<bool, EngineError> {
    let query_pred = program
        .query
        .as_ref()
        .ok_or(EngineError::Ast(datalog_ast::AstError::NoQuery))?
        .atom
        .pred
        .clone();
    let frozen = freeze_rule(&program.rules[rule_idx]);
    let mut input = FactSet::new();
    for f in &frozen.body_facts {
        input.insert_atom(f);
    }
    let reduced = program.without_rule(rule_idx);
    let full_out = evaluate(program, &input, &EvalOptions::default())?;
    let reduced_out = evaluate(&reduced, &input, &EvalOptions::default())?;
    let full_q = full_out.database.dump().restrict_to(&query_pred);
    let reduced_q = reduced_out.database.dump().restrict_to(&query_pred);
    let contained = full_q.iter().all(|(p, t)| reduced_q.contains(p, t));
    Ok(contained)
}

/// Theorem 5.2's optimistic test: the optimistic answer of the full program
/// on the frozen body of `rule_idx`, restricted to the query predicate,
/// must be contained in the (ordinary) answer of the program without the
/// rule on the same input.
///
/// See [`Grounding`] for the two readings of "optimistic"; `ActiveDomain`
/// is the literal (conservative) one.
pub fn theorem_5_2_test(
    program: &Program,
    rule_idx: usize,
    grounding: Grounding,
) -> Result<bool, EngineError> {
    let query_pred = program
        .query
        .as_ref()
        .ok_or(EngineError::Ast(datalog_ast::AstError::NoQuery))?
        .atom
        .pred
        .clone();
    let frozen = freeze_rule(&program.rules[rule_idx]);
    let mut input = FactSet::new();
    for f in &frozen.body_facts {
        input.insert_atom(f);
    }
    let optimistic = optimistic_fixpoint(program, &input, grounding).restrict_to(&query_pred);
    let reduced = program.without_rule(rule_idx);
    let actual = evaluate(&reduced, &input, &EvalOptions::default())?
        .database
        .dump()
        .restrict_to(&query_pred);
    let contained = optimistic.iter().all(|(p, t)| actual.contains(p, t));
    Ok(contained)
}

/// Configuration for randomized equivalence refutation.
#[derive(Debug, Clone)]
pub struct EquivCheckConfig {
    /// Number of random instances to try.
    pub instances: usize,
    /// Domain size: instances draw from `0..domain` plus every constant
    /// that occurs in either program's rules or query.
    pub domain: i64,
    /// Facts generated per predicate (before deduplication).
    pub facts_per_pred: usize,
    /// Seed the *IDB* predicates too (uniform-equivalence style inputs).
    pub seed_idb: bool,
    /// RNG seed, for reproducibility.
    pub rng_seed: u64,
}

impl Default for EquivCheckConfig {
    fn default() -> EquivCheckConfig {
        EquivCheckConfig {
            instances: 30,
            domain: 5,
            facts_per_pred: 8,
            seed_idb: false,
            rng_seed: 0x5eed,
        }
    }
}

/// A counterexample instance found by [`bounded_equiv_check`].
#[derive(Debug, Clone)]
pub struct EquivWitness {
    /// The instance on which the programs disagree.
    pub instance: FactSet,
    /// Answer rows of the first program.
    pub answers1: Vec<Vec<Value>>,
    /// Answer rows of the second program.
    pub answers2: Vec<Vec<Value>>,
}

/// Randomized refutation of query equivalence: evaluate both programs'
/// queries on random instances and compare answer *rows* (column naming may
/// legitimately differ between an original and an optimized program).
///
/// `Ok(None)` means no counterexample was found (not a proof!);
/// `Ok(Some(w))` is a concrete disagreeing instance.
///
/// Instances populate the union of both programs' EDB predicates; with
/// [`EquivCheckConfig::seed_idb`] they also populate IDB predicates that
/// occur in *both* programs with the same arity (uniform-equivalence style
/// inputs).
pub fn bounded_equiv_check(
    p1: &Program,
    p2: &Program,
    cfg: &EquivCheckConfig,
) -> Result<Option<EquivWitness>, EngineError> {
    let a1 = p1.arities()?;
    let a2 = p2.arities()?;
    // A predicate derived in EITHER program must never be seeded in a plain
    // (query-equivalence) check: a rule deletion can strand a predicate so
    // that it *looks* like EDB in the reduced program, and seeding it would
    // launder the lost derivations (IDB predicates start empty on real
    // inputs). Uniform-style seeding is opt-in via `seed_idb`.
    let derived: BTreeSet<datalog_ast::PredRef> =
        p1.idb_preds().union(&p2.idb_preds()).cloned().collect();
    let mut gen_preds: Vec<(datalog_ast::PredRef, usize)> = Vec::new();
    for p in p1.edb_preds().union(&p2.edb_preds()) {
        if derived.contains(p) {
            continue;
        }
        let arity = a1.get(p).or_else(|| a2.get(p)).copied().unwrap_or(0);
        gen_preds.push((p.clone(), arity));
    }
    if cfg.seed_idb {
        for p in p1.idb_preds().intersection(&p2.idb_preds()) {
            if let (Some(&k1), Some(&k2)) = (a1.get(p), a2.get(p)) {
                if k1 == k2 {
                    gen_preds.push((p.clone(), k1));
                }
            }
        }
    }
    // A query or rule that mentions a constant outside `0..domain` (or any
    // symbol) is false for both programs on every instance that cannot
    // contain it, and the comparison would pass vacuously: the constants
    // the programs name are part of the domain.
    let mut domain: Vec<Value> = (0..cfg.domain).map(Value::Int).collect();
    let atoms = [p1, p2].into_iter().flat_map(|p| {
        let rule_atoms = p
            .rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(&r.body).chain(&r.negative));
        rule_atoms.chain(p.query.iter().map(|q| &q.atom))
    });
    for term in atoms.flat_map(|atom| &atom.terms) {
        if let Term::Const(v) = term {
            if !domain.contains(v) {
                domain.push(*v);
            }
        }
    }
    // Round 0: the *critical instance* — the union of every rule's frozen
    // body, restricted to non-derived predicates. This instance exercises
    // each rule at least once and deterministically exposes the classic
    // failure mode of the bare uniform-query test (a deletion stranding an
    // intermediate predicate that downstream rules still need).
    {
        let mut instance = FactSet::new();
        for program in [p1, p2] {
            for rule in &program.rules {
                let frozen = freeze_rule(rule);
                for atom in &frozen.body_facts {
                    if !derived.contains(&atom.pred) {
                        instance.insert_atom(atom);
                    }
                }
            }
        }
        let (ans1, _) = query_answers(p1, &instance, &EvalOptions::default())?;
        let (ans2, _) = query_answers(p2, &instance, &EvalOptions::default())?;
        if ans1.rows != ans2.rows {
            return Ok(Some(EquivWitness {
                instance,
                answers1: ans1.rows.into_iter().collect(),
                answers2: ans2.rows.into_iter().collect(),
            }));
        }
    }
    for round in 0..cfg.instances {
        let mut instance = FactSet::new();
        for (pred, arity) in &gen_preds {
            // Each predicate draws from an RNG seeded by (seed, round,
            // predicate NAME): generation is independent of predicate
            // iteration order and of interner ids, so results are
            // reproducible across processes.
            let mut h: u64 = 0xcbf29ce484222325;
            for b in pred.to_string().bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
            }
            let mut rng =
                StdRng::seed_from_u64(cfg.rng_seed ^ h ^ (round as u64).wrapping_mul(0x9e3779b9));
            // Vary density: sometimes sparse, sometimes dense.
            let n = rng.gen_range(0..=cfg.facts_per_pred);
            for _ in 0..n {
                let tuple: Vec<Value> = (0..*arity)
                    .map(|_| domain[rng.gen_range(0..domain.len())])
                    .collect();
                instance.insert(pred.clone(), tuple);
            }
        }
        let (ans1, _) = query_answers(p1, &instance, &EvalOptions::default())?;
        let (ans2, _) = query_answers(p2, &instance, &EvalOptions::default())?;
        if ans1.rows != ans2.rows {
            return Ok(Some(EquivWitness {
                instance,
                answers1: ans1.rows.into_iter().collect(),
                answers2: ans2.rows.into_iter().collect(),
            }));
        }
    }
    Ok(None)
}

/// Reference answer extraction: walk the whole relation, turn every row
/// into a ground [`Atom`] and unify the query atom with it. Slow by design
/// (an `Atom` and a `Subst` per row) and independent of the read plan, the
/// read indexes and the store's probe paths.
pub fn extract_by_matching(q_atom: &Atom, database: &Database) -> AnswerSet {
    let mut answers = AnswerSet::default();
    // Output columns: named variables in first-occurrence order.
    let mut out_vars = Vec::new();
    for v in q_atom.var_occurrences() {
        if !v.is_wildcard() && !out_vars.contains(&v) {
            out_vars.push(v);
        }
    }
    answers.columns = out_vars.iter().map(|v| v.name()).collect();
    if let Some(id) = database.pred_id(&q_atom.pred) {
        for row in database.relation(id).iter() {
            let fact = Atom::fact(q_atom.pred.clone(), row.to_vec());
            let mut s = subst::Subst::new();
            if subst::match_atom(q_atom, &fact, &mut s) {
                let tuple: Vec<Value> = out_vars
                    .iter()
                    .map(|v| match s.resolve(Term::Var(*v)) {
                        Term::Const(c) => c,
                        Term::Var(_) => unreachable!("matched against ground fact"),
                    })
                    .collect();
                answers.rows.insert(tuple);
            }
        }
    }
    answers
}

/// Reference storage check: every stored row is distinct and `contains`
/// finds it, and every planned index, probed over each of `ranges` with
/// every stored key and an absent one, returns exactly the ids a
/// filtered scan of [`Relation::rows_in`] finds, in ascending order.
/// Independent of the runs, tails and bloom filters it checks. Returns the
/// first disagreement.
pub fn check_indexes(rel: &Relation, ranges: &[(usize, usize)]) -> Result<(), String> {
    let mut distinct = BTreeSet::new();
    for row in rel.iter() {
        if !distinct.insert(row) {
            return Err(format!("row {row:?} is stored twice"));
        }
        if !rel.contains(row) {
            return Err(format!("contains misses stored row {row:?}"));
        }
    }
    for cols in rel.index_columns() {
        let project = |row: &[Value]| -> Vec<Value> { cols.iter().map(|&c| row[c]).collect() };
        // The tests and the fuzzer store small values, never this one.
        let absent = vec![Value::int(i64::MIN); cols.len()];
        let keys: BTreeSet<Vec<Value>> = rel.iter().map(project).chain([absent]).collect();
        for &(start, end) in ranges {
            let mut scan: BTreeMap<Vec<Value>, Vec<u32>> = BTreeMap::new();
            for (id, row) in rel.rows_in(start, end) {
                scan.entry(project(row)).or_default().push(id as u32);
            }
            for key in &keys {
                let probed = rel.probe_range(cols, key, start, end).to_vec();
                let want = scan.get(key).map_or(&[][..], Vec::as_slice);
                if probed != want {
                    return Err(format!(
                        "index {cols:?}, key {key:?}, ids {start}..{end}: \
                         probe {probed:?}, scan {want:?}"
                    ));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    /// Example 3/4 of the paper: in the projected transitive closure, the
    /// recursive rule is deletable under *uniform* equivalence.
    const PROJECTED_TC: &str = "a[nd](X) :- p(X, Z), a[nd](Z).\n\
                                a[nd](X) :- p(X, Z).\n\
                                ?- a[nd](X).";

    #[test]
    fn example_4_uniform_deletion() {
        let p = parse_program(PROJECTED_TC).unwrap().program;
        // Rule 0 (recursive) is uniformly redundant: from {p(x,z), a[nd](z)}
        // the exit rule re-derives a[nd](x).
        assert!(uniform_test(&p, 0).unwrap());
        // The exit rule is NOT uniformly redundant.
        assert!(!uniform_test(&p, 1).unwrap());
    }

    /// Example 3a's caveat: with a *different* base predicate in the exit
    /// rule, the recursive rule is no longer deletable.
    #[test]
    fn example_3a_negative_case() {
        let p = parse_program(
            "a[nd](X) :- p(X, Z), a[nd](Z).\n\
             a[nd](X) :- p1(X, Z).\n\
             ?- a[nd](X).",
        )
        .unwrap()
        .program;
        assert!(!uniform_test(&p, 0).unwrap());
        assert!(!uniform_query_test(&p, 0).unwrap());
    }

    /// Example 5/6 of the paper: left-recursive TC with an existential
    /// query. Uniform equivalence deletes nothing, but uniform *query*
    /// equivalence deletes the recursive a[nn] rule.
    const EX5: &str = "a[nd](X) :- a[nn](X, Z), p(Z, Y).\n\
                       a[nd](X) :- p(X, Y).\n\
                       a[nn](X, Y) :- a[nn](X, Z), p(Z, Y).\n\
                       a[nn](X, Y) :- p(X, Y).\n\
                       ?- a[nd](X).";

    #[test]
    fn example_5_uniform_equivalence_deletes_nothing() {
        let p = parse_program(EX5).unwrap().program;
        for i in 0..p.rules.len() {
            assert!(
                !uniform_test(&p, i).unwrap(),
                "rule {i} unexpectedly deletable under uniform equivalence"
            );
        }
    }

    #[test]
    fn example_6_uqe_deletes_recursive_ann_rule() {
        let p = parse_program(EX5).unwrap().program;
        // Rule 2 = a[nn](X,Y) :- a[nn](X,Z), p(Z,Y): the paper's first step.
        assert!(uniform_query_test(&p, 2).unwrap());
        // And after removing it, the a[nn] exit rule also passes.
        let p2 = p.without_rule(2);
        assert!(uniform_query_test(&p2, 2).unwrap());
    }

    /// The bare Example 6 test is only a heuristic: deleting the sole
    /// definition of an intermediate predicate can pass the frozen-body
    /// check while breaking real instances. The optimizer therefore
    /// validates UQE deletions; this documents the counterexample.
    #[test]
    fn paper_test_is_not_sound_alone() {
        let p = parse_program(
            "q(X) :- h(X, Y), w(Y).\n\
             h(X, Y) :- s(X, Y).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        // Frozen body of rule 1 is {s(x,y)}; neither program derives any q
        // fact from it, so the containment trivially holds...
        assert!(uniform_query_test(&p, 1).unwrap());
        // ...yet the programs are NOT query equivalent: randomized checking
        // finds a witness (an instance with s and w facts).
        let witness = bounded_equiv_check(&p, &p.without_rule(1), &EquivCheckConfig::default())
            .unwrap()
            .expect("must find a counterexample");
        // Deletion only loses answers: the reduced program's answers are a
        // strict subset of the original's.
        assert!(witness.answers1.len() > witness.answers2.len());
        assert!(witness
            .answers2
            .iter()
            .all(|row| witness.answers1.contains(row)));
        // Theorem 5.2 with the liberal grounding correctly rejects it.
        assert!(!theorem_5_2_test(&p, 1, Grounding::ActiveDomain).unwrap());
    }

    #[test]
    fn theorem_5_2_strict_accepts_example_6() {
        let p = parse_program(EX5).unwrap().program;
        assert!(theorem_5_2_test(&p, 2, Grounding::KnownOnly).unwrap());
        // The liberal reading is more conservative and rejects it — a
        // finding we document in EXPERIMENTS.md.
        assert!(!theorem_5_2_test(&p, 2, Grounding::ActiveDomain).unwrap());
    }

    #[test]
    fn bounded_check_accepts_true_equivalences() {
        // Example 6's end-to-end result: existential TC reduces to the exit
        // rule only. These are query-equivalent (EDB inputs).
        let original = parse_program(EX5).unwrap().program;
        let optimized = parse_program(
            "a[nd](X) :- p(X, Y).\n\
             ?- a[nd](X).",
        )
        .unwrap()
        .program;
        let w = bounded_equiv_check(&original, &optimized, &EquivCheckConfig::default()).unwrap();
        assert!(w.is_none(), "unexpected witness: {w:?}");
    }

    /// A query about a constant outside `0..domain` is false for both
    /// programs on every instance drawn from `0..domain` alone; the check
    /// must not accept a deletion on that vacuous agreement.
    #[test]
    fn bounded_check_draws_the_constants_the_programs_name() {
        for who in ["116", "carol"] {
            let p = parse_program(&format!(
                "above(X, Y) :- mgr(X, Y).\n\
                 above(X, Y) :- mgr(X, Z), above(Z, Y).\n\
                 flagged(X) :- above(X, Y), audit(Y).\n\
                 ?- flagged({who})."
            ))
            .unwrap()
            .program;
            // Without the exit rule `above` is empty and nobody is flagged.
            let w = bounded_equiv_check(&p, &p.without_rule(0), &EquivCheckConfig::default())
                .unwrap()
                .unwrap_or_else(|| panic!("no witness for ?- flagged({who})."));
            assert_eq!((w.answers1.len(), w.answers2.len()), (1, 0));
        }
    }

    #[test]
    fn bounded_check_with_idb_seeding_separates_uqe_from_qe() {
        // Same pair as above: query-equivalent but NOT uniformly query
        // equivalent (seeding a[nn] makes the originals diverge).
        let original = parse_program(EX5).unwrap().program;
        let optimized = parse_program(
            "a[nd](X) :- p(X, Y).\n\
             a[nn](X, Y) :- p(X, Y).\n\
             ?- a[nd](X).",
        )
        .unwrap()
        .program;
        let cfg = EquivCheckConfig {
            seed_idb: true,
            instances: 60,
            ..EquivCheckConfig::default()
        };
        let w = bounded_equiv_check(&original, &optimized, &cfg).unwrap();
        assert!(
            w.is_some(),
            "seeded a[nn] facts should expose the difference"
        );
    }
}
