//! Engine-level properties on random programs and instances: strategy
//! agreement, cut transparency, magic-sets equivalence, optimistic
//! monotonicity.

use proptest::prelude::*;

use datalog_engine::optimistic::{optimistic_fixpoint, Grounding};
use datalog_engine::{evaluate, query_answers, EvalOptions, Strategy};
use xdl_integration_tests::{instance_strategy, program_strategy};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// Naive and semi-naive compute the same least fixpoint.
    #[test]
    fn naive_equals_seminaive(
        program in program_strategy(),
        instance in instance_strategy(4, 18),
    ) {
        let naive = evaluate(&program, &instance, &EvalOptions {
            strategy: Strategy::Naive,
            ..EvalOptions::default()
        }).unwrap();
        let semi = evaluate(&program, &instance, &EvalOptions::default()).unwrap();
        prop_assert_eq!(naive.database.dump(), semi.database.dump(),
            "program:\n{}", program.to_text());
    }

    /// The boolean-cut runtime never changes the query's answers.
    #[test]
    fn boolean_cut_is_transparent(
        program in program_strategy(),
        instance in instance_strategy(4, 18),
    ) {
        let (plain, _) = query_answers(&program, &instance, &EvalOptions::default()).unwrap();
        let (cut, _) = query_answers(&program, &instance, &EvalOptions {
            boolean_cut: true,
            ..EvalOptions::default()
        }).unwrap();
        prop_assert_eq!(plain.rows, cut.rows, "program:\n{}", program.to_text());
    }

    /// Magic sets with a bound query constant preserves the answers.
    #[test]
    fn magic_preserves_answers(
        program in program_strategy(),
        instance in instance_strategy(4, 18),
        bound in 0..4i64,
    ) {
        // Bind the first query argument to a constant.
        let mut bound_program = program.clone();
        let q = bound_program.query.as_mut().unwrap();
        q.atom.terms[0] = datalog_ast::Term::Const(datalog_ast::Value::int(bound));
        match datalog_magic::magic_rewrite(&bound_program) {
            Ok(m) => {
                let (orig, _) =
                    query_answers(&bound_program, &instance, &EvalOptions::default()).unwrap();
                let (magic, _) =
                    query_answers(&m.program, &instance, &EvalOptions::default()).unwrap();
                prop_assert_eq!(orig.rows, magic.rows,
                    "program:\n{}\nmagic:\n{}", bound_program.to_text(), m.program.to_text());
            }
            Err(e) => prop_assert!(false, "magic refused a bound query: {e}"),
        }
    }

    /// Optimistic derivation over-approximates the real fixpoint (under the
    /// liberal active-domain grounding) and is monotone in the grounding.
    #[test]
    fn optimistic_overapproximates(
        program in program_strategy(),
        instance in instance_strategy(3, 12),
    ) {
        let real = evaluate(&program, &instance, &EvalOptions::default()).unwrap()
            .database.dump();
        let liberal = optimistic_fixpoint(&program, &instance, Grounding::ActiveDomain);
        let strict = optimistic_fixpoint(&program, &instance, Grounding::KnownOnly);
        for (p, t) in real.iter() {
            prop_assert!(liberal.contains(p, t),
                "real fact {p}{t:?} missing from liberal optimistic set");
        }
        for (p, t) in strict.iter() {
            prop_assert!(liberal.contains(p, t),
                "strict fact {p}{t:?} missing from liberal optimistic set");
        }
    }

    /// Greedy join reordering never changes the fixpoint.
    #[test]
    fn join_reordering_is_transparent(
        program in program_strategy(),
        instance in instance_strategy(4, 18),
    ) {
        let plain = evaluate(&program, &instance, &EvalOptions::default()).unwrap();
        let reordered = evaluate(&program, &instance, &EvalOptions {
            reorder_joins: true,
            ..EvalOptions::default()
        }).unwrap();
        prop_assert_eq!(plain.database.dump(), reordered.database.dump(),
            "program:\n{}", program.to_text());
    }

    /// Evaluation is deterministic.
    #[test]
    fn evaluation_is_deterministic(
        program in program_strategy(),
        instance in instance_strategy(4, 18),
    ) {
        let a = evaluate(&program, &instance, &EvalOptions::default()).unwrap();
        let b = evaluate(&program, &instance, &EvalOptions::default()).unwrap();
        prop_assert_eq!(a.database.dump(), b.database.dump());
        prop_assert_eq!(a.stats, b.stats);
    }
}
