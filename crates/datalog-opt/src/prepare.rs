//! Prepared query forms: fingerprinting, canonical optimization, reuse.
//!
//! The paper's central artifact — the adorned, optimized program
//! `P^{e,ad}` (§2–§3) — depends only on the *query form*: the rule set,
//! the query predicate, and the query's existential adornment. Two queries
//! `?- a(X, _)` and `?- a(7, _)` share the form `(P, a, nd)`; the
//! optimized program is the same, only the selection applied at answer
//! extraction differs. That makes the form the natural cache key for a
//! long-running service: optimize once per form, evaluate per query.
//!
//! This module provides the three pieces the `datalog-server` cache needs:
//!
//! * [`fingerprint_rules`] — an order-insensitive 64-bit fingerprint of a
//!   rule set (FNV-1a over sorted rule renderings);
//! * [`prepare`] — run the full pipeline against a *canonical* query atom
//!   of the given adornment and remember how the pipeline reshaped the
//!   query (projection may have dropped the `d` positions, Lemma 3.2);
//! * [`PreparedProgram::instantiate`] — splice a concrete query atom of
//!   the same form into the optimized program, so a cache hit skips the
//!   optimizer entirely and still answers exactly like a cold run.
//!
//! Reuse is sound because every pipeline phase preserves *query
//! equivalence* (§4): the optimized program computes the same relation for
//! the query form on every EDB, and a concrete atom's constants and
//! repeated variables are selections applied on top of that relation at
//! extraction time.

use std::collections::BTreeSet;

use datalog_ast::{Ad, Adornment, Atom, PredRef, Program, Query, Rule, Term, Var};
use datalog_lint::bounds::BoundsReport;
use datalog_trace::{BoundClass, PhaseEvent};

use crate::pipeline::{optimize, OptimizerConfig};
use crate::report::{EquivalenceLevel, Phase, Report};
use crate::OptError;

/// Order-insensitive FNV-1a fingerprint of a rule set. Renders each rule,
/// sorts the renderings, and hashes the result — so rule order, which does
/// not affect semantics, does not affect the fingerprint either.
pub fn fingerprint_rules(rules: &[Rule]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut texts: Vec<String> = rules.iter().map(|r| r.to_string()).collect();
    texts.sort();
    let mut h = OFFSET;
    for t in &texts {
        for b in t.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        // Separator so rule boundaries matter.
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// How the pipeline reshaped the query atom, i.e. how to splice a concrete
/// atom into the optimized program on a cache hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryShape {
    /// The optimized query atom kept the original arity: copy the concrete
    /// atom's terms through unchanged.
    Full,
    /// Projection dropped the `d` positions (§3.2): keep only the terms at
    /// these (original) positions, in order.
    Projected(Vec<usize>),
}

/// A fully optimized program for one query form, plus everything needed to
/// reuse and invalidate it.
#[derive(Debug, Clone)]
pub struct PreparedProgram {
    /// The optimized program, with the canonical query still in place.
    pub program: Program,
    /// The optimizer's phase-by-phase report for the canonical run.
    pub report: Report,
    /// The form's adornment (over the *original* query arity).
    pub adornment: Adornment,
    /// How to rebuild the query atom for a concrete query of this form.
    pub shape: QueryShape,
    /// Base (unadorned) EDB predicates the optimized query reads —
    /// transitively, via [`Program::reachable_from_query`]. An ingested
    /// fact outside this set cannot change this form's answers.
    pub support: BTreeSet<PredRef>,
    /// Static derivation bounds of the *optimized* program: per-predicate
    /// symbolic upper bounds on derived-fact counts as polynomials in EDB
    /// cardinalities. Serving layers evaluate these against live
    /// cardinalities for bound-aware admission.
    pub bounds: BoundsReport,
    /// Worst recursion classification across the optimized program's IDB
    /// predicates — the form-level verdict admission control keys on.
    pub bound_class: BoundClass,
}

/// The canonical query atom of a form: fresh named variables `Qc<i>` at
/// the `n` positions, fresh wildcards at the `d` positions. Optimizing
/// against this atom is exactly as general as the form itself.
pub fn canonical_query_atom(pred: &PredRef, adornment: &Adornment) -> Atom {
    let terms = adornment
        .0
        .iter()
        .enumerate()
        .map(|(i, ad)| match ad {
            Ad::N => Term::var(&format!("Qc{i}")),
            Ad::D => Term::Var(Var::fresh_wildcard()),
        })
        .collect();
    Atom::new(pred.base(), terms)
}

/// Base EDB predicates the program's query transitively reads. Adornment
/// is stripped so the set can be intersected with ingestion-side predicate
/// names (facts are always stored under base predicates).
pub fn edb_support(program: &Program) -> BTreeSet<PredRef> {
    let reachable = program.reachable_from_query();
    program
        .edb_preds()
        .iter()
        .filter(|p| reachable.contains(*p))
        .map(|p| p.base())
        .collect()
}

/// Optimize a rule set for one query form. The concrete query that
/// triggered preparation is *not* consulted beyond its predicate and
/// adornment — the result serves every atom of the form.
pub fn prepare(
    rules: &[Rule],
    pred: &PredRef,
    adornment: &Adornment,
    cfg: &OptimizerConfig,
) -> Result<PreparedProgram, OptError> {
    let canonical = canonical_query_atom(pred, adornment);
    let input = Program::with_query(rules.to_vec(), Query::new(canonical));
    let mut out = optimize(&input, cfg)?;
    let bounds = datalog_lint::bounds::analyze(&out.program)
        .map_err(|e| OptError::ValidationFailed(format!("bounds analysis: {e}")))?;
    let bound_class = bounds.worst_class();
    let query_pred = out
        .program
        .query
        .as_ref()
        .map(|q| q.atom.pred.clone())
        .unwrap_or_else(|| pred.clone());
    let query_bound = bounds
        .preds
        .get(&query_pred)
        .map(|pb| pb.count.render())
        .unwrap_or_else(|| "0".to_string());
    out.report.record_event(
        Phase::Bounds,
        EquivalenceLevel::Uniform,
        format!(
            "bounds: query form {query_pred} classified {bound_class}, count <= {query_bound} \
             ({} derived predicates analyzed)",
            bounds.idb.len()
        ),
        PhaseEvent::BoundsAnalyzed {
            pred: query_pred.to_string(),
            class: bound_class,
            bound: query_bound,
            preds: bounds.idb.len(),
        },
    );
    let opt_arity = out
        .program
        .query
        .as_ref()
        .map_or(adornment.len(), |q| q.atom.arity());
    let shape = if opt_arity == adornment.len() {
        QueryShape::Full
    } else {
        // After projection the optimized atom holds exactly the `n`
        // positions (Lemma 3.2); anything else would mean the pipeline
        // produced a query shape this module does not understand.
        debug_assert_eq!(opt_arity, adornment.needed_count());
        QueryShape::Projected(adornment.needed_positions())
    };
    let support = edb_support(&out.program);
    Ok(PreparedProgram {
        program: out.program,
        report: out.report,
        adornment: adornment.clone(),
        shape,
        support,
        bounds,
        bound_class,
    })
}

impl PreparedProgram {
    /// Splice a concrete query atom of this form into the optimized
    /// program. Returns `None` when the atom's arity does not match the
    /// form (the caller keyed the cache wrongly).
    ///
    /// The resulting program is ready for `query_answers_full`: constants
    /// and repeated variables in `atom` become selections at answer
    /// extraction, exactly as in a cold run.
    pub fn instantiate(&self, atom: &Atom) -> Option<Program> {
        let spliced = self.instantiate_atom(atom)?;
        let mut program = self.program.clone();
        program.query = Some(Query::new(spliced));
        Some(program)
    }

    /// Reshape a concrete query atom of this form into the optimized
    /// query's predicate and shape — the atom [`instantiate`] would put in
    /// the program, without cloning the program. Serving paths that keep
    /// the form's evaluation resident (the optimized program is
    /// query-atom-independent) extract answers by matching this atom
    /// against the resident query-predicate relation.
    ///
    /// Returns `None` when the atom's arity does not match the form.
    ///
    /// [`instantiate`]: PreparedProgram::instantiate
    pub fn instantiate_atom(&self, atom: &Atom) -> Option<Atom> {
        if atom.arity() != self.adornment.len() {
            return None;
        }
        let opt_query = self.program.query.as_ref()?;
        let terms: Vec<Term> = match &self.shape {
            QueryShape::Full => atom.terms.clone(),
            QueryShape::Projected(keep) => {
                let mut kept: Vec<Term> = keep.iter().map(|&i| atom.terms[i]).collect();
                if kept.len() != opt_query.atom.arity() {
                    return None;
                }
                // Replace any wildcard that survived (an explicitly adorned
                // query may name a `d` position `n`) with a fresh one so
                // instantiations never share wildcard identities.
                for t in &mut kept {
                    if t.as_var().is_some_and(|v| v.is_wildcard()) {
                        *t = Term::Var(Var::fresh_wildcard());
                    }
                }
                kept
            }
        };
        Some(Atom::new(opt_query.atom.pred.clone(), terms))
    }

    /// Whether an update to (base) predicate `pred` can change this form's
    /// answers.
    pub fn depends_on(&self, pred: &PredRef) -> bool {
        self.support.contains(&pred.base())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;
    use datalog_ast::Value;
    use datalog_engine::{query_answers, EvalOptions, FactSet};

    fn chain(n: i64) -> FactSet {
        let mut fs = FactSet::new();
        for i in 0..n {
            fs.insert(PredRef::new("p"), vec![Value::int(i), Value::int(i + 1)]);
        }
        fs
    }

    #[test]
    fn fingerprint_ignores_rule_order_but_not_content() {
        let a = parse_program("a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).")
            .unwrap()
            .program;
        let b = parse_program("a(X, Y) :- p(X, Y).\na(X, Y) :- p(X, Z), a(Z, Y).")
            .unwrap()
            .program;
        let c = parse_program("a(X, Y) :- q(X, Y).").unwrap().program;
        assert_eq!(fingerprint_rules(&a.rules), fingerprint_rules(&b.rules));
        assert_ne!(fingerprint_rules(&a.rules), fingerprint_rules(&c.rules));
        assert_ne!(fingerprint_rules(&a.rules), fingerprint_rules(&[]));
    }

    #[test]
    fn prepared_projected_form_answers_like_cold_run() {
        let src = "a(X, Y) :- a(X, Z), p(Z, Y).\na(X, Y) :- p(X, Y).\n?- a(X, _).";
        let cold = parse_program(src).unwrap().program;
        let edb = chain(6);
        let cold_out = optimize(&cold, &OptimizerConfig::default()).unwrap();
        let (cold_ans, _) =
            query_answers(&cold_out.program, &edb, &EvalOptions::default()).unwrap();

        let ad = Adornment::parse("nd").unwrap();
        let prep = prepare(
            &cold.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(prep.shape, QueryShape::Projected(vec![0]));
        assert!(prep.support.contains(&PredRef::new("p")));
        assert!(!prep.depends_on(&PredRef::new("q")));

        let warm = prep
            .instantiate(&cold.query.as_ref().unwrap().atom)
            .unwrap();
        let (warm_ans, _) = query_answers(&warm, &edb, &EvalOptions::default()).unwrap();
        assert_eq!(warm_ans, cold_ans);
    }

    #[test]
    fn instantiate_applies_constant_selection() {
        let src = "a(X, Y) :- a(X, Z), p(Z, Y).\na(X, Y) :- p(X, Y).\n?- a(X, _).";
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse("nd").unwrap();
        let prep = prepare(
            &p.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // ?- a(2, _): same form, constant at the needed position.
        let atom = Atom::new(
            PredRef::new("a"),
            vec![Term::int(2), Term::Var(Var::fresh_wildcard())],
        );
        let warm = prep.instantiate(&atom).unwrap();
        let (ans, _) = query_answers(&warm, &chain(6), &EvalOptions::default()).unwrap();
        assert_eq!(ans.columns, Vec::<String>::new());
        assert_eq!(ans.as_bool(), Some(true));

        // Out-of-domain constant: same program, empty selection.
        let atom = Atom::new(
            PredRef::new("a"),
            vec![Term::int(99), Term::Var(Var::fresh_wildcard())],
        );
        let warm = prep.instantiate(&atom).unwrap();
        let (ans, _) = query_answers(&warm, &chain(6), &EvalOptions::default()).unwrap();
        assert_eq!(ans.as_bool(), Some(false));
    }

    #[test]
    fn all_needed_form_keeps_full_arity() {
        let src = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n?- a(X, Y).";
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse("nn").unwrap();
        let prep = prepare(
            &p.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        assert_eq!(prep.shape, QueryShape::Full);
        let warm = prep.instantiate(&p.query.as_ref().unwrap().atom).unwrap();
        let (warm_ans, _) = query_answers(&warm, &chain(4), &EvalOptions::default()).unwrap();
        let (cold_ans, _) = query_answers(&p, &chain(4), &EvalOptions::default()).unwrap();
        assert_eq!(warm_ans, cold_ans);
        assert_eq!(warm_ans.len(), 10);
    }

    #[test]
    fn prepare_attaches_bounds_and_verdict() {
        let src = "a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\n?- a(X, Y).";
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse("nn").unwrap();
        let prep = prepare(
            &p.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Linear TC must never be classified unbounded, and the analysis
        // must cover the optimized query predicate.
        assert!(prep.bound_class < BoundClass::Unbounded);
        assert!(!prep.bounds.idb.is_empty());
        let qp = &prep.program.query.as_ref().unwrap().atom.pred;
        assert!(prep.bounds.preds.contains_key(qp), "no bound for {qp}");
        // The verdict was recorded as a typed event the validator replays.
        let ev = prep
            .report
            .events()
            .find(|e| e.kind() == "bounds-analyzed")
            .expect("no bounds-analyzed event recorded");
        if let PhaseEvent::BoundsAnalyzed { class, preds, .. } = ev {
            assert_eq!(*class, prep.bound_class);
            assert_eq!(*preds, prep.bounds.idb.len());
        }
    }

    #[test]
    fn instantiate_rejects_wrong_arity() {
        let src = "a(X, Y) :- p(X, Y).\n?- a(X, _).";
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse("nd").unwrap();
        let prep = prepare(
            &p.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        let bad = Atom::new(PredRef::new("a"), vec![Term::var("X")]);
        assert!(prep.instantiate(&bad).is_none());
    }

    #[test]
    fn instantiate_atom_matches_the_spliced_program_query() {
        let src = "a(X, Y) :- a(X, Z), p(Z, Y).\na(X, Y) :- p(X, Y).\n?- a(X, _).";
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse("nd").unwrap();
        let prep = prepare(
            &p.rules,
            &PredRef::new("a"),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap();
        // Constants survive the reshape, so answer extraction against a
        // resident database sees the same selection the spliced program
        // would apply.
        let atom = Atom::new(
            PredRef::new("a"),
            vec![Term::int(2), Term::Var(Var::fresh_wildcard())],
        );
        let spliced = prep.instantiate_atom(&atom).unwrap();
        let program = prep.instantiate(&atom).unwrap();
        let in_program = &program.query.as_ref().unwrap().atom;
        assert_eq!(spliced.pred, in_program.pred);
        assert_eq!(spliced.arity(), in_program.arity());
        assert_eq!(spliced.terms[0], Term::int(2));
        assert!(prep
            .instantiate_atom(&Atom::new(PredRef::new("a"), vec![Term::var("X")]))
            .is_none());
    }

    #[test]
    fn edb_support_excludes_unreachable_preds() {
        let src = "a(X) :- p(X, Y).\nother(X) :- r(X).\n?- a(X).";
        let p = parse_program(src).unwrap().program;
        let support = edb_support(&p);
        assert!(support.contains(&PredRef::new("p")));
        assert!(!support.contains(&PredRef::new("r")));
    }
}
