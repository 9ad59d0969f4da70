//! Freeze-test rule deletion: Sagiv's uniform-equivalence test (Example 4)
//! and the paper's uniform *query* equivalence test (Example 6).
//!
//! Both tests freeze a candidate rule's variables into skolem constants and
//! feed the frozen body to the program without the rule:
//!
//! * the **uniform** test requires the frozen *head* to be re-derived —
//!   decidable, sound, and complete for uniform equivalence of `P` vs
//!   `P − r` (Sagiv 1987);
//! * the **uniform-query** test only requires the *query-predicate* facts
//!   derivable from the frozen body to be preserved. The paper proposes it
//!   as a sufficient condition. As `datalog-engine::oracle` documents with
//!   a counterexample, the bare test can over-delete when the candidate is
//!   the sole producer of an intermediate predicate whose downstream
//!   consumers need *context* facts; we therefore (a) only apply it when
//!   [`UniformConfig::validate_uqe`] supplies a randomized-equivalence
//!   budget that fails to refute the deletion, and (b) record the action at
//!   the [`EquivalenceLevel::UniformQuery`] level with a note when
//!   validation was skipped.

use std::collections::BTreeSet;

use datalog_ast::{PredRef, Program};
use datalog_engine::oracle::{
    bounded_equiv_check, uniform_query_test, uniform_test, EquivCheckConfig,
};

use crate::cleanup::cleanup;
use crate::report::{EquivalenceLevel, Phase, Report};
use crate::OptError;
use datalog_trace::PhaseEvent;

/// Configuration for the freeze-test deletion loop. Sagiv's
/// uniform-equivalence deletions are always tried, and the cleanup passes
/// always run between deletions.
#[derive(Debug, Clone)]
pub struct UniformConfig {
    /// Try the paper's uniform-query-equivalence deletions.
    pub uqe: bool,
    /// Randomized validation budget for UQE deletions. `None` applies the
    /// paper's test unguarded (not recommended; see module docs).
    pub validate_uqe: Option<EquivCheckConfig>,
}

impl Default for UniformConfig {
    fn default() -> UniformConfig {
        UniformConfig {
            uqe: true,
            validate_uqe: Some(EquivCheckConfig {
                instances: 60,
                domain: 4,
                facts_per_pred: 10,
                ..EquivCheckConfig::default()
            }),
        }
    }
}

/// Delete rules to a fixpoint using the freeze tests.
pub fn freeze_deletion(
    program: &Program,
    derived: &BTreeSet<PredRef>,
    cfg: &UniformConfig,
    report: &mut Report,
) -> Result<Program, OptError> {
    let query_pred = program.query.as_ref().map(|q| q.atom.pred.clone());
    // Candidate order: rules defining auxiliary (non-query) predicates
    // first. Deleting an auxiliary exit rule lets cleanups collapse the
    // whole auxiliary chain (Example 6's route to the one-rule program);
    // deleting the query's own exit first would instead strand an
    // equivalent but slower unit chain.
    let order = |p: &Program| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..p.rules.len()).collect();
        idx.sort_by_key(|&i| Some(&p.rules[i].head.pred) == query_pred.as_ref());
        idx
    };
    let mut current = program.clone();
    'outer: loop {
        current = cleanup(&current, derived, report);
        // Per candidate (auxiliary-head rules first), try the uniform test
        // and then the UQE test before moving on. The candidate order
        // matters more than the level order: deleting an auxiliary exit
        // rule under UQE (Example 6) must win over deleting the query's
        // exit rule under uniform equivalence, or the optimizer strands an
        // equivalent-but-slower unit chain.
        for ri in order(&current) {
            if uniform_test(&current, ri).map_err(OptError::Engine)? {
                report.record_event(
                    Phase::UniformDeletion,
                    EquivalenceLevel::Uniform,
                    format!("deleted rule (Sagiv uniform test): {}", current.rules[ri]),
                    PhaseEvent::RuleDeleted {
                        rule: current.rules[ri].to_string(),
                        condition: "Sagiv uniform-equivalence test".into(),
                    },
                );
                current = current.without_rule(ri);
                continue 'outer;
            }
            if cfg.uqe
                && current.query.is_some()
                && uniform_query_test(&current, ri).map_err(OptError::Engine)?
            {
                let reduced = current.without_rule(ri);
                if let Some(val) = &cfg.validate_uqe {
                    if bounded_equiv_check(&current, &reduced, val)
                        .map_err(OptError::Engine)?
                        .is_some()
                    {
                        // The paper's test passed but randomized validation
                        // refuted the deletion: skip it.
                        report.record(
                            Phase::UqeDeletion,
                            EquivalenceLevel::UniformQuery,
                            format!(
                                "REFUSED unsound UQE deletion (validation found a \
                                 counterexample): {}",
                                current.rules[ri]
                            ),
                        );
                        continue;
                    }
                }
                report.record_event(
                    Phase::UqeDeletion,
                    EquivalenceLevel::UniformQuery,
                    format!(
                        "deleted rule (uniform-query freeze test{}): {}",
                        if cfg.validate_uqe.is_some() {
                            ", validated"
                        } else {
                            ", UNVALIDATED"
                        },
                        current.rules[ri]
                    ),
                    PhaseEvent::RuleDeleted {
                        rule: current.rules[ri].to_string(),
                        condition: if cfg.validate_uqe.is_some() {
                            "uniform-query freeze test (randomized validation passed)".into()
                        } else {
                            "uniform-query freeze test (unvalidated)".into()
                        },
                    },
                );
                current = reduced;
                continue 'outer;
            }
        }
        return Ok(cleanup(&current, derived, report));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;

    fn run(src: &str, cfg: &UniformConfig) -> (Program, Report) {
        let p = parse_program(src).unwrap().program;
        let derived = p.idb_preds();
        let mut report = Report::default();
        let out = freeze_deletion(&p, &derived, cfg, &mut report).unwrap();
        (out, report)
    }

    /// Example 4: the projected TC's recursive rule is uniformly redundant.
    #[test]
    fn example_4_uniform_deletes_recursive_rule() {
        let (out, report) = run(
            "a[nd](X) :- p(X, Z), a[nd](Z).\n\
             a[nd](X) :- p(X, Z).\n\
             ?- a[nd](X).",
            &UniformConfig::default(),
        );
        assert_eq!(out.rules.len(), 1);
        assert_eq!(out.rules[0].to_string(), "a[nd](X) :- p(X, Z).");
        assert!(report
            .actions
            .iter()
            .any(|a| a.phase == Phase::UniformDeletion));
        assert_eq!(report.weakest_level(), EquivalenceLevel::Uniform);
    }

    /// Example 3a: with a different exit predicate the recursive rule must
    /// survive.
    #[test]
    fn example_3a_nothing_deletable() {
        let (out, report) = run(
            "a[nd](X) :- p(X, Z), a[nd](Z).\n\
             a[nd](X) :- p1(X, Z).\n\
             ?- a[nd](X).",
            &UniformConfig::default(),
        );
        assert_eq!(out.rules.len(), 2);
        assert_eq!(report.deletions(), 0);
    }

    /// Example 6 end-to-end: the left-recursive existential TC collapses to
    /// its exit rule under UQE (uniform equivalence alone deletes nothing —
    /// Example 5).
    #[test]
    fn example_6_collapses_to_exit_rule() {
        const EX5: &str = "a[nd](X) :- a[nn](X, Z), p(Z, Y).\n\
                           a[nd](X) :- p(X, Y).\n\
                           a[nn](X, Y) :- a[nn](X, Z), p(Z, Y).\n\
                           a[nn](X, Y) :- p(X, Y).\n\
                           ?- a[nd](X).";
        // Uniform-only: stuck (Example 5's point).
        let (stuck, _) = run(
            EX5,
            &UniformConfig {
                uqe: false,
                ..UniformConfig::default()
            },
        );
        assert_eq!(stuck.rules.len(), 4);
        // With UQE: down to the single exit rule (Example 6's point).
        let (out, report) = run(EX5, &UniformConfig::default());
        assert_eq!(out.rules.len(), 1, "{}", out.to_text());
        assert_eq!(out.rules[0].to_string(), "a[nd](X) :- p(X, Y).");
        assert!(report.actions.iter().any(|a| a.phase == Phase::UqeDeletion));
        assert!(report.actions.iter().any(|a| a.phase == Phase::Cleanup));
        assert_eq!(report.weakest_level(), EquivalenceLevel::Query);
    }

    /// The engine-documented counterexample: the bare UQE test would delete
    /// the sole `h` rule and break the query; validation must refuse it.
    #[test]
    fn validation_refuses_unsound_uqe_deletion() {
        let (out, report) = run(
            "q(X) :- h(X, Y), w(Y).\n\
             h(X, Y) :- s(X, Y).\n\
             ?- q(X).",
            &UniformConfig::default(),
        );
        assert_eq!(out.rules.len(), 2, "{}", out.to_text());
        assert!(report
            .actions
            .iter()
            .any(|a| a.description.contains("REFUSED")));
        // Without validation the paper's bare test over-deletes — this is
        // the documented hazard.
        let (bare, _) = run(
            "q(X) :- h(X, Y), w(Y).\n\
             h(X, Y) :- s(X, Y).\n\
             ?- q(X).",
            &UniformConfig {
                validate_uqe: None,
                ..UniformConfig::default()
            },
        );
        assert!(bare.rules.len() < 2);
    }

    #[test]
    fn no_query_skips_uqe_but_uniform_still_works() {
        let p = parse_program(
            "a(X) :- p(X, Z), a(Z).\n\
             a(X) :- p(X, Z).",
        )
        .unwrap()
        .program;
        let derived = p.idb_preds();
        let mut report = Report::default();
        let out = freeze_deletion(&p, &derived, &UniformConfig::default(), &mut report).unwrap();
        assert_eq!(out.rules.len(), 1);
    }
}
