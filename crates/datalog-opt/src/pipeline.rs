//! The end-to-end optimizer pipeline.
//!
//! Order of phases (matching the paper's presentation):
//!
//! 1. **adorn** the program from the query (§2);
//! 2. **extract components** — boolean existential subqueries (§3.1);
//! 3. **push projections** — drop `d` argument positions (§3.2);
//! 4. **delete rules** to a fixpoint, interleaving the summary-based test
//!    (Lemmas 5.1/5.3), Sagiv's uniform test and the (validated) uniform-
//!    query freeze test, plus the cleanup passes (§3.3, §5);
//!
//! Magic-sets rewriting (`datalog-magic`) is orthogonal and composes after
//! this pipeline, as the paper observes.

use std::collections::BTreeSet;

use datalog_ast::Program;

use crate::components::extract_components;
use crate::deletion::{summary_deletion, SummaryConfig};
use crate::projection::push_projections;
use crate::report::{EquivalenceLevel, Phase, Report};
use crate::subsume::delete_subsumed;
use crate::uniform::{freeze_deletion, UniformConfig};
use crate::OptError;
use datalog_trace::PhaseEvent;

/// Pipeline configuration. The default runs everything the paper
/// describes, with randomized validation guarding the UQE freeze test.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// §3.1 boolean extraction.
    pub components: bool,
    /// §3.2 projection pushing.
    pub projection: bool,
    /// §5 summary-based deletion.
    pub summary: SummaryConfig,
    /// Enable the summary-deletion phase.
    pub summary_enabled: bool,
    /// Freeze-test deletion (uniform + UQE).
    pub freeze: UniformConfig,
    /// Enable the freeze-test phase.
    pub freeze_enabled: bool,
    /// θ-subsumption pre-pass (syntactic, uniform-equivalence level).
    pub subsumption: bool,
    /// Search for folding opportunities (Example 11's "guess", §6) and
    /// apply the best one before deletions. Off by default: folding adds a
    /// predicate, which only pays off when it unlocks deletions.
    pub auto_fold: bool,
    /// Translation-validate the run before returning: re-check every
    /// rewrite phase and re-justify every deletion with `datalog-lint`'s
    /// independent checkers, failing with
    /// [`OptError::ValidationFailed`](crate::OptError) if any check fails.
    /// Off by default (it re-evaluates the program many times); `xdl
    /// verify-opt` and `xdl serve --verify` switch it on.
    pub verify: bool,
}

impl Default for OptimizerConfig {
    fn default() -> OptimizerConfig {
        OptimizerConfig {
            components: true,
            projection: true,
            summary: SummaryConfig::default(),
            summary_enabled: true,
            freeze: UniformConfig::default(),
            freeze_enabled: true,
            subsumption: true,
            auto_fold: false,
            verify: false,
        }
    }
}

impl OptimizerConfig {
    /// Only adornment + rewriting, no deletions (cheap compile time).
    pub fn rewrite_only() -> OptimizerConfig {
        OptimizerConfig {
            summary_enabled: false,
            freeze_enabled: false,
            subsumption: false,
            ..OptimizerConfig::default()
        }
    }

    /// Everything on, including the fold search (Example 9 → Example 11).
    pub fn aggressive() -> OptimizerConfig {
        OptimizerConfig {
            auto_fold: true,
            ..OptimizerConfig::default()
        }
    }
}

/// Result of running the pipeline.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The optimized program.
    pub program: Program,
    /// What happened, phase by phase.
    pub report: Report,
}

/// Run the full optimizer.
pub fn optimize(program: &Program, cfg: &OptimizerConfig) -> Result<OptimizeOutcome, OptError> {
    program.validate()?;
    let mut report = Report {
        rules_before: program.rules.len(),
        ..Report::default()
    };
    let mut current = program.clone();
    report.snapshot("input", &current);

    // §2 adornment always runs, except on programs that are already
    // adorned (e.g. the paper's worked examples are given in adorned form).
    let already_adorned = current
        .rules
        .iter()
        .any(|r| r.head.pred.is_adorned() || r.body.iter().any(|a| a.pred.is_adorned()));
    if !already_adorned {
        let adorned = datalog_adorn::adorn(&current)?;
        let versions = adorned.version_count();
        if versions > 0 {
            report.record_event(
                Phase::Adorn,
                EquivalenceLevel::Uniform,
                format!(
                    "adorned program: {} adorned predicate version(s), {} rule(s)",
                    versions,
                    adorned.program.rules.len()
                ),
                PhaseEvent::Adorned {
                    versions,
                    rules_after: adorned.program.rules.len(),
                },
            );
            current = adorned.program;
            report.snapshot("adorned", &current);
        }
    }

    if cfg.components {
        let r = extract_components(&current, cfg.projection, &mut report);
        if !r.booleans.is_empty() && r.needs_projection && !cfg.projection {
            // Cannot happen: extract_components only dangles heads when
            // assume_projection is set, which mirrors cfg.projection.
            unreachable!("components dangled a head without projection enabled");
        }
        current = r.program;
        report.snapshot("components", &current);
    }

    if cfg.projection {
        current = push_projections(&current, &mut report)?;
        report.snapshot("projected", &current);
    }

    // The set of semantically-derived predicates — every IDB predicate of
    // the rewritten program, *including* the booleans the components phase
    // generated. Captured after all program-shape-changing rewrites (and
    // re-captured after folding): a stale set would let deletions strand a
    // generated predicate without the undefined-users cleanup noticing.
    let mut derived: BTreeSet<_> = current.idb_preds();

    // Deletion phases loop until jointly stable. The summary and freeze
    // machinery is justified for Horn programs only; with stratified
    // negation (the §6 extension) we conservatively keep just the
    // syntactic θ-subsumption pass, whose soundness argument extends to
    // negated literals directly.
    let negated = current.has_negation();
    if cfg.auto_fold && !negated {
        // At most two rounds of folding: each adds one predicate; further
        // rounds rarely unlock anything and risk bloating the program.
        for _ in 0..2 {
            match crate::fold::apply_best_fold(&current, &derived, &mut report)? {
                Some(folded) => current = folded,
                None => break,
            }
        }
        derived = current.idb_preds();
    }
    if negated && (cfg.summary_enabled || cfg.freeze_enabled) {
        report.record(
            Phase::Cleanup,
            EquivalenceLevel::Uniform,
            "program uses negation: summary/freeze deletions disabled (Horn-only theory)",
        );
    }
    report.snapshot("deletions", &current);
    loop {
        let before = current.rules.len();
        if cfg.subsumption {
            current = delete_subsumed(&current, &mut report);
        }
        if !negated && cfg.summary_enabled && current.query.is_some() {
            current = summary_deletion(&current, &derived, &cfg.summary, &mut report)?;
        }
        if !negated && cfg.freeze_enabled {
            current = freeze_deletion(&current, &derived, &cfg.freeze, &mut report)?;
        }
        if current.rules.len() == before {
            break;
        }
    }

    report.rules_after = current.rules.len();
    report.snapshot("final", &current);

    if cfg.verify {
        let validation = crate::validate::validate(&report);
        if !validation.ok() {
            return Err(OptError::ValidationFailed(
                validation
                    .failures()
                    .iter()
                    .map(|c| format!("[{}] {}", c.phase, c.detail))
                    .collect::<Vec<_>>()
                    .join("\n"),
            ));
        }
        report.record_event(
            Phase::Validation,
            EquivalenceLevel::Uniform,
            format!(
                "translation validation passed: {} check(s)",
                validation.checks.len()
            ),
            PhaseEvent::TranslationValidated {
                checks: validation.checks.len(),
                failures: 0,
            },
        );
    }

    Ok(OptimizeOutcome {
        program: current,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::parse_program;
    use datalog_engine::oracle::{bounded_equiv_check, EquivCheckConfig};

    fn run(src: &str) -> OptimizeOutcome {
        let p = parse_program(src).unwrap().program;
        let out = optimize(&p, &OptimizerConfig::default()).unwrap();
        let w = bounded_equiv_check(&p, &out.program, &EquivCheckConfig::default()).unwrap();
        assert!(
            w.is_none(),
            "pipeline changed answers: {w:?}\n{}",
            out.program.to_text()
        );
        out
    }

    /// The paper's flagship chain (Examples 1 → 3 → 4): right-recursive TC
    /// with an existential query ends as a single non-recursive rule.
    #[test]
    fn flagship_example_1_to_4() {
        let out = run("query(X) :- a(X, Y).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- query(X).");
        let text = out.program.to_text();
        // Adornment produced a[nd]; projection made it unary; the uniform
        // test deleted the recursive rule.
        assert!(!out.program.is_recursive(), "{text}");
        assert!(
            text.contains("a[nd](X) :- p(X, Y).") || text.contains("a[nd](X) :- p(X, Z)."),
            "{text}"
        );
        assert_eq!(out.report.rules_before, 3);
        assert!(out.report.rules_after <= 3);
        assert!(out
            .report
            .actions
            .iter()
            .any(|a| a.phase == Phase::UniformDeletion));
    }

    /// Example 5/6: left-recursive TC, existential query. The pipeline
    /// (covers + summaries + UQE) reduces four adorned rules to one.
    #[test]
    fn example_6_full_pipeline() {
        let out = run("a(X, Y) :- a(X, Z), p(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, _).");
        let text = out.program.to_text();
        assert_eq!(out.program.rules.len(), 1, "{text}");
        assert!(!out.program.is_recursive());
        assert!(text.contains("a[nd](X) :- p(X, Y)."), "{text}");
    }

    /// §1.2's motivating rule: the existential subquery c(W) becomes a
    /// boolean; the program stays recursive but c is fenced off.
    #[test]
    fn motivating_example_gets_boolean() {
        let out = run("q(X, Y) :- a(X, Z), q(Z, Y), c(W).\n\
             q(X, Y) :- b(X, Y).\n\
             ?- q(X, Y).");
        let text = out.program.to_text();
        assert!(text.contains("b1 :- c(_)."), "{text}");
        assert!(out
            .report
            .actions
            .iter()
            .any(|a| a.phase == Phase::Components));
    }

    /// All-needed query: the pipeline must not degrade a plain TC.
    #[test]
    fn plain_tc_survives_unharmed() {
        let out = run("a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- a(X, Y).");
        assert_eq!(out.program.rules.len(), 2);
        assert!(out.program.is_recursive());
        assert_eq!(out.report.deletions(), 0);
    }

    /// Rewrite-only config performs no deletions.
    #[test]
    fn rewrite_only_config() {
        let p = parse_program(
            "query(X) :- a(X, Y).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- query(X).",
        )
        .unwrap()
        .program;
        let out = optimize(&p, &OptimizerConfig::rewrite_only()).unwrap();
        // Projection happened, deletion did not: recursive rule intact.
        assert!(out.program.is_recursive());
        assert!(out.program.to_text().contains("a[nd](X)"));
    }

    /// EDB-only query: nothing to do, nothing broken.
    #[test]
    fn edb_query_is_identity() {
        let p = parse_program("helper(X) :- e(X, Y).\n?- e(X, _).")
            .unwrap()
            .program;
        let out = optimize(&p, &OptimizerConfig::default()).unwrap();
        // helper is unreachable from the query and gets cleaned up... but
        // only once a query exists over derived predicates; for an EDB
        // query the adorned program is the original.
        assert!(out.program.query.is_some());
    }

    /// The report records phases in order and totals line up.
    #[test]
    fn report_bookkeeping() {
        let out = run("query(X) :- a(X, Y).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- query(X).");
        assert_eq!(out.report.rules_before, 3);
        assert_eq!(out.report.rules_after, out.program.rules.len());
        let text = out.report.to_text();
        assert!(text.contains("adorn"));
        assert!(text.contains("projection"));
    }
}
