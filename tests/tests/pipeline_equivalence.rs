//! Property: the optimizer preserves query answers on random safe programs
//! and random instances — for the full pipeline and for each phase subset.

use proptest::prelude::*;

use datalog_ast::parse_program;
use datalog_engine::{query_answers, EvalOptions, FactSet};
use datalog_opt::{optimize, OptimizerConfig};
use xdl_integration_tests::{instance_strategy, program_strategy};

fn eval_opts_with_cut() -> EvalOptions {
    EvalOptions {
        boolean_cut: true,
        max_iterations: 10_000,
        ..EvalOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Full pipeline ≡ original on random instances.
    #[test]
    fn full_pipeline_preserves_answers(
        program in program_strategy(),
        instance in instance_strategy(4, 20),
    ) {
        let out = optimize(&program, &OptimizerConfig::default()).unwrap();
        let (orig, _) = query_answers(&program, &instance, &EvalOptions::default()).unwrap();
        let (opt, _) = query_answers(&out.program, &instance, &eval_opts_with_cut()).unwrap();
        prop_assert_eq!(
            &orig.rows, &opt.rows,
            "program:\n{}\noptimized:\n{}\ninstance:\n{}",
            program.to_text(), out.program.to_text(), instance.to_text()
        );
    }

    /// Rewrite-only (adorn + components + projection, no deletions).
    #[test]
    fn rewrite_only_preserves_answers(
        program in program_strategy(),
        instance in instance_strategy(4, 20),
    ) {
        let out = optimize(&program, &OptimizerConfig::rewrite_only()).unwrap();
        let (orig, _) = query_answers(&program, &instance, &EvalOptions::default()).unwrap();
        let (opt, _) = query_answers(&out.program, &instance, &eval_opts_with_cut()).unwrap();
        prop_assert_eq!(&orig.rows, &opt.rows,
            "program:\n{}\noptimized:\n{}", program.to_text(), out.program.to_text());
    }

    /// The optimized program never blows up the derivation work. (Several
    /// adorned versions of one predicate can legitimately coexist — e.g. a
    /// swap recursion generates `s[nd]` and `s[dn]` — so the bound allows a
    /// constant factor, not a free pass.)
    #[test]
    fn optimizer_never_blows_up_facts(
        program in program_strategy(),
        instance in instance_strategy(4, 20),
    ) {
        let out = optimize(&program, &OptimizerConfig::default()).unwrap();
        let (_, so) = query_answers(&program, &instance, &EvalOptions::default()).unwrap();
        let (_, sp) = query_answers(&out.program, &instance, &eval_opts_with_cut()).unwrap();
        // Adornment can fork a predicate into several versions (q[nn],
        // q[dn], ...) plus zero-ary booleans, each materialized separately;
        // on micro-instances the constants dominate, hence the slack.
        prop_assert!(
            sp.facts_derived <= 3 * so.facts_derived + 10,
            "optimized did more work: {} vs {} facts\nprogram:\n{}\noptimized:\n{}",
            sp.facts_derived, so.facts_derived, program.to_text(), out.program.to_text()
        );
    }
}

/// A query that names a constant the equivalence oracle's `0..domain`
/// instances cannot contain — a larger integer, a symbol — must still come
/// out of the optimizer with its answers: `xdl run` == `xdl run
/// --no-optimize`.
#[test]
fn constants_in_the_query_survive_the_pipeline() {
    for (who, boss) in [("116", "2"), ("carol", "bob")] {
        let src = format!(
            "above(X, Y) :- mgr(X, Y).\n\
             above(X, Y) :- mgr(X, Z), above(Z, Y).\n\
             flagged(X) :- above(X, Y), audit(Y).\n\
             mgr(0, 1). mgr(1, {boss}). mgr({boss}, 3). mgr({who}, {boss}). audit(3).\n\
             ?- flagged({who})."
        );
        let parsed = parse_program(&src).unwrap();
        let facts = FactSet::from_parsed(&parsed.facts);
        let out = optimize(&parsed.program, &OptimizerConfig::default()).unwrap();
        let (orig, _) = query_answers(&parsed.program, &facts, &EvalOptions::default()).unwrap();
        let (opt, _) = query_answers(&out.program, &facts, &eval_opts_with_cut()).unwrap();
        assert_eq!(orig.as_bool(), Some(true), "{src}");
        assert_eq!(orig.rows, opt.rows, "optimized:\n{}", out.program.to_text());
    }
}
