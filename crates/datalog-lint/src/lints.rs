//! Program lints over parsed Datalog programs.
//!
//! Errors make the program malformed (safety/range-restriction violations,
//! arity and adornment inconsistencies, unknown query predicates — plus
//! unsound `d` marks found by the Lemma 2.2 audit). Warnings flag
//! suspicious-but-legal constructs: singleton ("typo") variables, unused
//! or underivable predicates, rules unreachable from the query, duplicate
//! or θ-subsumed rules, and facts for derived predicates.

use std::collections::{BTreeMap, BTreeSet};

use datalog_ast::{parse_program, Atom, ParsedProgram, PredRef, Rule};

use crate::audit::audit_adorned_rules;
use crate::contain::subsumption_pairs;
use crate::diag::{sort_diagnostics, Diagnostic};

/// Lint a source text. Parse failures are reported as a single
/// `error[parse]` diagnostic at the failure position.
pub fn lint_source(src: &str) -> Vec<Diagnostic> {
    match parse_program(src) {
        Ok(parsed) => lint_program(&parsed),
        Err(e) => vec![Diagnostic::error("parse", (e.line, e.col), e.message)],
    }
}

/// Lint a parsed program. Diagnostics come back in source order.
pub fn lint_program(parsed: &ParsedProgram) -> Vec<Diagnostic> {
    let program = &parsed.program;
    let mut diags = Vec::new();

    check_arities(parsed, &mut diags);
    for (ri, rule) in program.rules.iter().enumerate() {
        let span = parsed.rule_span(ri);
        check_rule_safety(rule, span, &mut diags);
        check_singletons(rule, span, &mut diags);
    }
    for (ri, message) in audit_adorned_rules(program) {
        diags.push(Diagnostic::error(
            "adornment",
            parsed.rule_span(ri),
            message,
        ));
    }
    check_predicates(parsed, &mut diags);
    check_subsumption(parsed, &mut diags);
    check_query(parsed, &mut diags);
    diags.extend(crate::bounds::bounds_diagnostics(parsed));

    sort_diagnostics(&mut diags);
    diags
}

/// Arity and adornment-shape consistency, first-conflict-wins, mirrored
/// from `Program::arities` but anchored to statement spans.
fn check_arities(parsed: &ParsedProgram, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<PredRef, usize> = BTreeMap::new();
    fn visit(
        seen: &mut BTreeMap<PredRef, usize>,
        atom: &Atom,
        span: (usize, usize),
        diags: &mut Vec<Diagnostic>,
    ) {
        if let Some(ad) = &atom.pred.adornment {
            let k = atom.arity();
            if k != ad.len() && k != ad.needed_count() {
                diags.push(Diagnostic::error(
                    "arity",
                    span,
                    format!(
                        "`{}` has adornment {ad} ({} position(s)) but {k} argument(s)",
                        atom.pred,
                        ad.len()
                    ),
                ));
                return;
            }
        }
        match seen.get(&atom.pred) {
            None => {
                seen.insert(atom.pred.clone(), atom.arity());
            }
            Some(&k) if k != atom.arity() => diags.push(Diagnostic::error(
                "arity",
                span,
                format!(
                    "`{}` used with {} argument(s) but previously with {k}",
                    atom.pred,
                    atom.arity()
                ),
            )),
            Some(_) => {}
        }
    }
    for (ri, rule) in parsed.program.rules.iter().enumerate() {
        let span = parsed.rule_span(ri);
        visit(&mut seen, &rule.head, span, diags);
        for lit in rule.body.iter().chain(rule.negative.iter()) {
            visit(&mut seen, lit, span, diags);
        }
    }
    // Facts come in one batch per predicate and arity: every fact of a
    // batch at the wrong arity is reported, at its own statement.
    for batch in parsed.facts.batches() {
        let pred = &batch.pred;
        match seen.get(pred) {
            Some(&k) if k != batch.arity => {
                for &span in &batch.spans {
                    diags.push(Diagnostic::error(
                        "arity",
                        fact_span(span),
                        format!(
                            "fact for `{pred}` has {} value(s) but the predicate has arity {k}",
                            batch.arity
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    if let Some(q) = &parsed.program.query {
        let span = parsed.query_span.unwrap_or((1, 1));
        visit(&mut seen, &q.atom, span, diags);
    }
}

/// A fact's statement position as a diagnostic's.
fn fact_span((line, col): (u32, u32)) -> (usize, usize) {
    (line as usize, col as usize)
}

/// Range restriction: every head variable and every variable of a negated
/// literal must be bound by a positive body literal. Wildcards in the head
/// are flagged separately — a head position that is never bound cannot be
/// range-restricted at all.
fn check_rule_safety(rule: &Rule, span: (usize, usize), diags: &mut Vec<Diagnostic>) {
    let body_vars = rule.body_vars();
    let mut reported = BTreeSet::new();
    for v in rule.head.var_occurrences() {
        if v.is_wildcard() {
            if reported.insert(v) {
                diags.push(Diagnostic::error(
                    "wildcard-in-head",
                    span,
                    format!("wildcard in the head of `{rule}`: head positions must be named"),
                ));
            }
            continue;
        }
        if !body_vars.contains(&v) && reported.insert(v) {
            diags.push(Diagnostic::error(
                "safety",
                span,
                format!("head variable {v} of `{rule}` is not bound by a positive body literal"),
            ));
        }
    }
    for v in rule.negative.iter().flat_map(|a| a.var_occurrences()) {
        if !body_vars.contains(&v) && reported.insert(v) {
            diags.push(Diagnostic::error(
                "safety",
                span,
                format!(
                    "variable {v} of a negated literal in `{rule}` is not bound by a \
                     positive body literal"
                ),
            ));
        }
    }
}

/// Singleton ("typo") variables: a named variable occurring exactly once
/// in the whole rule, in the positive body. One-off variables are legal
/// (they read as existentials) but a misspelling produces exactly this
/// shape, so the lint asks for an explicit `_` or `_name`.
fn check_singletons(rule: &Rule, span: (usize, usize), diags: &mut Vec<Diagnostic>) {
    let body_only: BTreeSet<_> = rule.body.iter().flat_map(|a| a.var_occurrences()).collect();
    for v in body_only {
        if v.is_wildcard() || v.name().starts_with('_') {
            continue;
        }
        if rule.occurrence_count(v) == 1 {
            diags.push(Diagnostic::warning(
                "singleton-var",
                span,
                format!(
                    "variable {v} occurs only once in `{rule}` — use `_` if the \
                     existential reading is intended"
                ),
            ));
        }
    }
}

/// Predicate-level lints: facts for derived predicates, derived predicates
/// never used, derived predicates that can never produce a fact, and rules
/// unreachable from the query.
fn check_predicates(parsed: &ParsedProgram, diags: &mut Vec<Diagnostic>) {
    let program = &parsed.program;
    let derived = program.idb_preds();

    for batch in parsed.facts.batches() {
        let pred = &batch.pred;
        if derived.contains(pred) {
            for &span in &batch.spans {
                diags.push(Diagnostic::warning(
                    "fact-for-derived",
                    fact_span(span),
                    format!(
                        "fact for derived predicate `{pred}`: by the paper's convention \
                         the IDB holds no facts (EDB facts arrive with the database)"
                    ),
                ));
            }
        }
    }

    // Derived predicates never referenced by any body, negation or query.
    let mut used: BTreeSet<PredRef> = BTreeSet::new();
    for rule in &program.rules {
        for lit in rule.body.iter().chain(rule.negative.iter()) {
            used.insert(lit.pred.clone());
        }
    }
    if let Some(q) = &program.query {
        used.insert(q.atom.pred.clone());
    }
    let mut unused: BTreeSet<PredRef> = BTreeSet::new();
    for pred in &derived {
        if !used.contains(pred) {
            unused.insert(pred.clone());
            let first = program.rules_for(pred)[0];
            diags.push(Diagnostic::warning(
                "unused-predicate",
                parsed.rule_span(first),
                format!("derived predicate `{pred}` is never used"),
            ));
        }
    }

    // Productivity fixpoint: a derived predicate is productive when some
    // rule for it has every positive derived body literal productive
    // (recursion with no exit rule can never derive a fact).
    let mut productive: BTreeSet<PredRef> = BTreeSet::new();
    loop {
        let mut changed = false;
        for rule in &program.rules {
            if productive.contains(&rule.head.pred) {
                continue;
            }
            let ok = rule
                .body
                .iter()
                .all(|lit| !derived.contains(&lit.pred) || productive.contains(&lit.pred));
            if ok {
                productive.insert(rule.head.pred.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for pred in &derived {
        if !productive.contains(pred) {
            let first = program.rules_for(pred)[0];
            diags.push(Diagnostic::warning(
                "underivable",
                parsed.rule_span(first),
                format!(
                    "derived predicate `{pred}` can never derive a fact \
                     (every rule depends on an underivable predicate)"
                ),
            ));
        }
    }

    if program.query.is_some() {
        let reachable = program.reachable_from_query();
        for (ri, rule) in program.rules.iter().enumerate() {
            if !reachable.contains(&rule.head.pred) && !unused.contains(&rule.head.pred) {
                diags.push(Diagnostic::warning(
                    "unreachable-rule",
                    parsed.rule_span(ri),
                    format!("rule `{rule}` is unreachable from the query"),
                ));
            }
        }
    }
}

/// Duplicate / θ-subsumed rules via the containment checker.
fn check_subsumption(parsed: &ParsedProgram, diags: &mut Vec<Diagnostic>) {
    for (i, j) in subsumption_pairs(&parsed.program) {
        let (line, _) = parsed.rule_span(i);
        let duplicate =
            crate::contain::subsumes(&parsed.program.rules[j], &parsed.program.rules[i]);
        let what = if duplicate {
            "a duplicate of"
        } else {
            "subsumed by"
        };
        diags.push(Diagnostic::warning(
            "subsumed-rule",
            parsed.rule_span(j),
            format!(
                "rule `{}` is {what} the rule at line {line} (`{}`) and can be deleted",
                parsed.program.rules[j], parsed.program.rules[i]
            ),
        ));
    }
}

/// Query checks: the query predicate must exist, and an explicit query
/// adornment must match the atom's arity.
fn check_query(parsed: &ParsedProgram, diags: &mut Vec<Diagnostic>) {
    let Some(q) = &parsed.program.query else {
        return;
    };
    let span = parsed.query_span.unwrap_or((1, 1));
    let known: BTreeSet<PredRef> = parsed
        .program
        .rules
        .iter()
        .flat_map(|r| {
            std::iter::once(&r.head)
                .chain(r.body.iter())
                .chain(r.negative.iter())
        })
        .map(|a| a.pred.base())
        .chain(parsed.facts.preds().map(|p| p.base()))
        .collect();
    if !known.contains(&q.atom.pred.base()) {
        diags.push(Diagnostic::error(
            "query",
            span,
            format!(
                "query references `{}`, which no rule or fact defines",
                q.atom.pred.base()
            ),
        ));
    }
    if let Some(ad) = &q.atom.pred.adornment {
        if ad.len() != q.atom.arity() && ad.needed_count() != q.atom.arity() {
            diags.push(Diagnostic::error(
                "query",
                span,
                format!(
                    "query adornment {ad} does not match arity {}",
                    q.atom.arity()
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{has_errors, Severity};

    fn codes(src: &str) -> Vec<(&'static str, Severity)> {
        lint_source(src)
            .into_iter()
            .map(|d| (d.code, d.severity))
            .collect()
    }

    #[test]
    fn clean_program_has_no_diagnostics() {
        let d = lint_source(
            "p(1, 2).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, Y).",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn parse_error_becomes_diagnostic() {
        let d = lint_source("q(X :- p(X).");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, "parse");
        assert!(has_errors(&d));
    }

    #[test]
    fn unsafe_head_variable() {
        let d = lint_source("q(X, Y) :- e(X).\n?- q(X, Y).");
        assert!(d.iter().any(|d| d.code == "safety"), "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn unsafe_negated_variable() {
        let d = lint_source("q(X) :- e(X), not d(X, Y).\n?- q(X).");
        assert!(
            d.iter()
                .any(|d| d.code == "safety" && d.message.contains("negated")),
            "{d:?}"
        );
    }

    #[test]
    fn wildcard_in_head() {
        let d = lint_source("q(X, _) :- e(X).\n?- q(X, Y).");
        assert!(d.iter().any(|d| d.code == "wildcard-in-head"), "{d:?}");
    }

    #[test]
    fn singleton_variable_is_warned_once() {
        let d = lint_source("q(X) :- e(X, Tmp).\n?- q(X).");
        let singles: Vec<_> = d.iter().filter(|d| d.code == "singleton-var").collect();
        assert_eq!(singles.len(), 1, "{d:?}");
        assert_eq!(singles[0].severity, Severity::Warning);
        assert!(singles[0].message.contains("Tmp"));
        // Underscore-named and wildcard variables are exempt.
        let d = lint_source("q(X) :- e(X, _tmp), f(X, _).\n?- q(X).");
        assert!(d.iter().all(|d| d.code != "singleton-var"), "{d:?}");
    }

    #[test]
    fn arity_mismatch_points_at_second_use() {
        let d = lint_source("q(X) :- e(X, Y).\nr(X) :- e(X).\n?- q(X).");
        let arity: Vec<_> = d.iter().filter(|d| d.code == "arity").collect();
        assert_eq!(arity.len(), 1, "{d:?}");
        assert_eq!(arity[0].line, 2);
        // Fact arity against rule use.
        let d = lint_source("e(1, 2, 3).\nq(X) :- e(X, Y).\n?- q(X).");
        assert!(d.iter().any(|d| d.code == "arity" && d.line == 1), "{d:?}");
    }

    #[test]
    fn adornment_shape_mismatch() {
        let d = lint_source("q[nnn](X) :- e(X).\n?- q[nnn](X, Y, Z).");
        assert!(d.iter().any(|d| d.code == "arity"), "{d:?}");
    }

    #[test]
    fn unused_and_underivable_predicates() {
        let d = lint_source(
            "q(X) :- e(X).\n\
             orphan(X) :- e(X).\n\
             loop(X) :- loop(X).\n\
             ?- q(X).",
        );
        assert!(d
            .iter()
            .any(|d| d.code == "unused-predicate" && d.message.contains("orphan")));
        assert!(d
            .iter()
            .any(|d| d.code == "underivable" && d.message.contains("loop")));
        // `orphan` is reported as unused, not additionally as unreachable.
        assert_eq!(
            d.iter().filter(|d| d.code == "unreachable-rule").count(),
            1, // only the `loop` rule
            "{d:?}"
        );
    }

    #[test]
    fn unreachable_rule_from_query() {
        let d = lint_source(
            "q(X) :- e(X).\n\
             helper(X) :- e(X).\n\
             side(X) :- helper(X).\n\
             ?- q(X).",
        );
        // helper is used (by side) so not unused; both are unreachable.
        assert!(
            d.iter()
                .any(|d| d.code == "unreachable-rule" && d.line == 2),
            "{d:?}"
        );
        assert!(d
            .iter()
            .any(|d| d.code == "unused-predicate" && d.message.contains("side")));
    }

    #[test]
    fn subsumed_rules_reference_the_subsumer() {
        let d = lint_source(
            "q(X) :- e(X, Y).\n\
             q(X) :- e(X, Y), f(Y).\n\
             ?- q(X).",
        );
        let s: Vec<_> = d.iter().filter(|d| d.code == "subsumed-rule").collect();
        assert_eq!(s.len(), 1, "{d:?}");
        assert_eq!(s[0].line, 2);
        assert!(s[0].message.contains("line 1"), "{}", s[0].message);
        assert!(s[0].message.contains("subsumed by"));
    }

    #[test]
    fn duplicate_rules_read_as_duplicates() {
        let d = lint_source("q(X) :- r(X).\nq(U) :- r(U).\n?- q(X).");
        assert!(
            d.iter()
                .any(|d| d.code == "subsumed-rule" && d.message.contains("duplicate")),
            "{d:?}"
        );
    }

    #[test]
    fn fact_for_derived_predicate() {
        let d = lint_source("q(1).\nq(X) :- e(X).\n?- q(X).");
        assert!(
            d.iter()
                .any(|d| d.code == "fact-for-derived" && d.line == 1),
            "{d:?}"
        );
    }

    #[test]
    fn unknown_query_predicate() {
        let d = lint_source("q(X) :- e(X).\n?- missing(X).");
        assert!(d.iter().any(|d| d.code == "query" && d.line == 2), "{d:?}");
    }

    #[test]
    fn adornment_audit_feeds_lints() {
        let d = lint_source("a[nd](X, Y) :- p(X, Z), a[dd](Z, Y).\n?- a[nd](X, _).");
        assert!(
            d.iter()
                .any(|d| d.code == "adornment" && d.severity == Severity::Error),
            "{d:?}"
        );
    }

    #[test]
    fn diagnostics_are_source_ordered() {
        let c = codes("loop(X) :- loop(X).\nq(X, Y) :- e(X).\n?- q(X, Y).");
        let lines: Vec<usize> = lint_source("loop(X) :- loop(X).\nq(X, Y) :- e(X).\n?- q(X, Y).")
            .iter()
            .map(|d| d.line)
            .collect();
        assert!(lines.windows(2).all(|w| w[0] <= w[1]), "{c:?} {lines:?}");
    }
}
