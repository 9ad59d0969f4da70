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
//! * [`closure_fingerprints`] — one fingerprint per derived predicate of an
//!   optimized program, over the rules that derive it, so a server can
//!   tell when one form's program already computes another form's answer
//!   relation;
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

use std::collections::{BTreeMap, BTreeSet};

use datalog_ast::{Ad, Adornment, Atom, Kind, PredRef, Program, Query, Rule, Term, Var};
use datalog_lint::bounds::BoundsReport;
use datalog_trace::{BoundClass, PhaseEvent};

use crate::pipeline::{optimize, OptimizerConfig};
use crate::report::{EquivalenceLevel, Phase, Report};
use crate::OptError;

/// FNV-1a over `texts`, each followed by a separator so boundaries
/// matter.
fn fnv1a<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for t in texts {
        for b in t.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h ^= 0xff;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Order-insensitive FNV-1a fingerprint of a rule set. Renders each rule,
/// sorts the renderings, and hashes the result — so rule order, which does
/// not affect semantics, does not affect the fingerprint either.
pub fn fingerprint_rules(rules: &[Rule]) -> u64 {
    let mut texts: Vec<String> = rules.iter().map(|r| r.to_string()).collect();
    texts.sort();
    fnv1a(texts.iter().map(String::as_str))
}

/// A rule as text that does not depend on its variable names: variables
/// are numbered by first occurrence (`?0`, `?1`, ...), integers are `#n`
/// and symbols carry their byte length, so no two different rules share a
/// text.
fn canonical_rule(rule: &Rule) -> String {
    use std::fmt::Write as _;
    let vars = rule.vars();
    let mut out = String::new();
    let atom = |out: &mut String, lead: &str, a: &Atom| {
        let _ = write!(out, "{lead}{}(", a.pred);
        for t in &a.terms {
            let _ = match t {
                Term::Var(v) => write!(out, "?{},", vars.iter().position(|w| w == v).unwrap_or(0)),
                Term::Const(c) => match c.kind() {
                    Kind::Int(i) => write!(out, "#{i},"),
                    Kind::Sym(s) => s.with_str(|s| write!(out, "${}:{s},", s.len())),
                },
            };
        }
        out.push(')');
    };
    atom(&mut out, "", &rule.head);
    for a in &rule.body {
        atom(&mut out, " ", a);
    }
    for a in &rule.negative {
        atom(&mut out, " !", a);
    }
    out
}

/// One fingerprint per derived predicate the program's query reads (every
/// derived predicate when it has no query): FNV-1a over the sorted
/// [canonical](canonical_rule) texts of the rules that define the
/// predicate and, transitively, every derived predicate those rules read,
/// negated ones included.
///
/// Two programs that give a predicate the same fingerprint derive the same
/// relation for it from the same EDB, whatever else they hold — which is
/// what lets a resident of one program answer a form of the other. A
/// generated name (`b1`) may make two equal closures miss each other; a
/// miss is safe.
pub fn closure_fingerprints(program: &Program) -> BTreeMap<PredRef, u64> {
    let graph = program.dependency_graph();
    let texts: Vec<(&PredRef, String)> = (program.rules.iter())
        .map(|r| (&r.head.pred, canonical_rule(r)))
        .collect();
    let reachable = program.reachable_from_query();
    (graph.keys())
        .filter(|p| reachable.contains(*p))
        .map(|p| {
            let mut closure = BTreeSet::new();
            let mut work = vec![p];
            while let Some(q) = work.pop() {
                if closure.insert(q) {
                    work.extend(graph.get(q).into_iter().flatten());
                }
            }
            let mut mine: Vec<&str> = (texts.iter())
                .filter(|(head, _)| closure.contains(head))
                .map(|(_, text)| text.as_str())
                .collect();
            mine.sort_unstable();
            (p.clone(), fnv1a(mine))
        })
        .collect()
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
    /// [`closure_fingerprints`] of the optimized program: a resident of
    /// this program holds the answer relation of every form whose
    /// [`query_closure`](PreparedProgram::query_closure) is among them.
    pub closures: BTreeMap<PredRef, u64>,
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
    let closures = closure_fingerprints(&out.program);
    Ok(PreparedProgram {
        program: out.program,
        report: out.report,
        adornment: adornment.clone(),
        shape,
        support,
        bounds,
        bound_class,
        closures,
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

    /// The closure fingerprint of the optimized query predicate: any
    /// program that defines that predicate under this fingerprint computes
    /// this form's answer relation. `None` when no rule derives it (the
    /// form's answers are empty).
    pub fn query_closure(&self) -> Option<u64> {
        let query = self.program.query.as_ref()?;
        self.closures.get(&query.atom.pred).copied()
    }

    /// Whether a resident of this program computes `form`'s answer
    /// relation: it defines `form`'s optimized query predicate under
    /// `form`'s own [closure fingerprint](PreparedProgram::query_closure).
    /// The same rules over the same facts derive the same relation, so a
    /// read of `form`'s spliced atom off such a resident answers `form`.
    pub fn holds(&self, form: &PreparedProgram) -> bool {
        let Some(query) = &form.program.query else {
            return false;
        };
        form.query_closure().is_some()
            && self.closures.get(&query.atom.pred) == form.query_closure().as_ref()
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

    /// The org schema's rules: `clean[n]`'s program contains `flagged[n]`'s
    /// rule for rule, and that contains `above[nn]`'s.
    const ORG: &str = "above(X, Y) :- mgr(X, Y).
above(X, Y) :- mgr(X, Z), above(Z, Y).
peer(X, Y) :- mgr(Z, X), mgr(Z, Y).
flagged(X) :- above(X, Y), audit(Y).
clean(X) :- emp(X), not flagged(X).
clean(X) :- flagged(X), cleared(X).";

    fn prep(src: &str, pred: &str, ad: &str) -> PreparedProgram {
        let p = parse_program(src).unwrap().program;
        let ad = Adornment::parse(ad).unwrap();
        prepare(
            &p.rules,
            &PredRef::new(pred),
            &ad,
            &OptimizerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn a_program_holds_the_forms_whose_closures_it_contains() {
        let clean = prep(ORG, "clean", "n");
        let flagged = prep(ORG, "flagged", "n");
        let above = prep(ORG, "above", "nn");
        for (holder, form, want) in [
            (&clean, &flagged, true),
            (&clean, &above, true),
            (&flagged, &above, true),
            (&clean, &clean, true),
            (&above, &flagged, false),
            (&flagged, &clean, false),
            // `above[nd]` is one projected rule: `above[nn]`'s program
            // covers it (Lemma 3.2) but does not hold it.
            (&above, &prep(ORG, "above", "nd"), false),
            (&clean, &prep(ORG, "peer", "nn"), false),
        ] {
            let (h, f) = (&holder.program, &form.program);
            assert_eq!(holder.holds(form), want, "{h:?} holds {f:?}");
        }
        // Only what the query reaches is fingerprinted: `peer` is not.
        assert_eq!(clean.closures.len(), 3);
        // A query predicate no rule derives has no closure: nothing holds
        // its (empty) answers.
        let mut none = prep("a(X) :- p(X).\nb(X) :- q(X).", "a", "n");
        assert_eq!(none.closures.len(), 1, "b is not reached");
        none.program.rules.clear();
        none.closures = closure_fingerprints(&none.program);
        assert_eq!(none.query_closure(), None);
    }

    #[test]
    fn closure_fingerprints_ignore_names_and_order_but_not_content() {
        let fp = |src: &str| {
            let mut p = parse_program(src).unwrap().program;
            p.query = Some(Query::new(Atom::new(
                PredRef::new("a"),
                vec![Term::var("Q")],
            )));
            closure_fingerprints(&p)[&PredRef::new("a")]
        };
        let base = fp("a(X) :- e(X, Y), a(Y).\na(X) :- f(X).");
        assert_eq!(base, fp("a(F) :- f(F).\na(U) :- e(U, W), a(W)."));
        for other in [
            "a(X) :- e(Y, X), a(Y).\na(X) :- f(X).",
            "a(X) :- e(X, Y), a(Y).\na(X) :- g(X).",
            "a(X) :- e(X, Y), a(Y).\na(X) :- f(X), not g(X).",
            "a(X) :- e(X, 1), a(X).\na(X) :- f(X).",
            "a(X) :- e(X, \"1\"), a(X).\na(X) :- f(X).",
            "a(X) :- e(X, Y), a(Y).",
        ] {
            assert_ne!(base, fp(other), "{other}");
        }
        // A rule for a predicate the closure reads changes it; one for a
        // predicate it does not read does not.
        let with = |extra: &str| fp(&format!("a(X) :- b(X).\nb(X) :- f(X).\n{extra}"));
        assert_ne!(with(""), with("b(X) :- g(X)."));
        assert_eq!(with(""), with("c(X) :- g(X)."));
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
