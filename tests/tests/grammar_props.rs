//! Grammar-side properties: the Lemma 4.1 correspondence on random chain
//! programs, and Theorem 3.3's monadic rewriting on random right-linear
//! grammars.

use proptest::prelude::*;

use datalog_ast::{parse_atom, Query};
use datalog_engine::{query_answers, EvalOptions, FactSet};
use datalog_grammar::regular::{monadic_equivalent, KeptArg};
use datalog_grammar::{bounded_language, grammar_to_program, is_chain_program, program_to_grammar};
use xdl_integration_tests::right_linear_chain_strategy;

/// Random edge instance over the chain program's terminal relations.
fn chain_instance(program: &datalog_ast::Program, seed: u64) -> FactSet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fs = FactSet::new();
    for pred in program.edb_preds() {
        let m = rng.gen_range(3..12);
        for _ in 0..m {
            let a = rng.gen_range(0..8i64);
            let b = rng.gen_range(0..8i64);
            fs.insert(
                pred.clone(),
                vec![datalog_ast::Value::int(a), datalog_ast::Value::int(b)],
            );
        }
    }
    fs
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        max_shrink_iters: 100,
        ..ProptestConfig::default()
    })]

    /// Program → grammar → program round-trips at the grammar level.
    #[test]
    fn grammar_roundtrip(program in right_linear_chain_strategy()) {
        prop_assert!(is_chain_program(&program));
        let g = program_to_grammar(&program).unwrap();
        let p2 = grammar_to_program(&g);
        let g2 = program_to_grammar(&p2).unwrap();
        prop_assert_eq!(g, g2);
    }

    /// Theorem 3.3 (constructive direction): the synthesized monadic
    /// program computes exactly the first-column projection of the chain
    /// program's answers.
    #[test]
    fn monadic_rewrite_preserves_projection(
        program in right_linear_chain_strategy(),
        seed in 0u64..1000,
    ) {
        let rewrite = monadic_equivalent(&program, KeptArg::First)
            .unwrap()
            .expect("right-linear grammars are regular");
        let mut projected = program.clone();
        projected.query = Some(Query::new(parse_atom("s(X, _)").unwrap()));
        let instance = chain_instance(&program, seed);
        let (orig, _) = query_answers(&projected, &instance, &EvalOptions::default()).unwrap();
        let (mono, _) = query_answers(&rewrite.program, &instance, &EvalOptions::default()).unwrap();
        prop_assert_eq!(orig.rows, mono.rows,
            "program:\n{}\nmonadic:\n{}", program.to_text(), rewrite.program.to_text());
    }

    /// Lemma 4.1(2), bounded: a word of length k is in L(G) iff the chain
    /// program answers `s(0, k)` on the "word instance" spelling that word.
    #[test]
    fn words_match_path_queries(program in right_linear_chain_strategy()) {
        let g = program_to_grammar(&program).unwrap();
        let words = bounded_language(&g, 4).unwrap();
        for word in words.iter().take(8) {
            // Build the instance 0 -w1-> 1 -w2-> 2 ... along the word.
            let mut fs = FactSet::new();
            for (i, sym) in word.iter().enumerate() {
                fs.insert(
                    datalog_ast::PredRef { name: *sym, adornment: None },
                    vec![
                        datalog_ast::Value::int(i as i64),
                        datalog_ast::Value::int(i as i64 + 1),
                    ],
                );
            }
            let mut p = program.clone();
            let end = word.len() as i64;
            p.query = Some(Query::new(parse_atom(&format!("s(0, {end})")).unwrap()));
            let (ans, _) = query_answers(&p, &fs, &EvalOptions::default()).unwrap();
            prop_assert_eq!(
                ans.as_bool(), Some(true),
                "word {:?} in L(G) but path not derived\nprogram:\n{}",
                word, program.to_text()
            );
        }
    }
}

/// Lemma 4.1(3/4) on the canonical pair: left- vs right-recursive TC are
/// query-equivalent (same language) but not uniformly equivalent
/// (different extended language) — checked both grammar-side and
/// program-side.
#[test]
fn lemma_4_1_canonical_pair() {
    use datalog_ast::parse_program;
    use datalog_engine::oracle::{bounded_equiv_check, EquivCheckConfig};
    use datalog_grammar::bounded_language_equal;

    let right = parse_program(
        "a(X, Y) :- p(X, Z), a(Z, Y).\n\
         a(X, Y) :- p(X, Y).\n\
         ?- a(X, Y).",
    )
    .unwrap()
    .program;
    let left = parse_program(
        "a(X, Y) :- a(X, Z), p(Z, Y).\n\
         a(X, Y) :- p(X, Y).\n\
         ?- a(X, Y).",
    )
    .unwrap()
    .program;
    let gr = program_to_grammar(&right).unwrap();
    let gl = program_to_grammar(&left).unwrap();

    // Same terminal language (query equivalence)...
    assert!(bounded_language_equal(&gr, &gl, 7, false).unwrap());
    let w = bounded_equiv_check(&right, &left, &EquivCheckConfig::default()).unwrap();
    assert!(w.is_none());

    // ...different extended language (uniform inequivalence)...
    assert!(!bounded_language_equal(&gr, &gl, 7, true).unwrap());
    // ...witnessed program-side by seeding the IDB.
    let cfg = EquivCheckConfig {
        seed_idb: true,
        instances: 80,
        ..EquivCheckConfig::default()
    };
    let w = bounded_equiv_check(&right, &left, &cfg).unwrap();
    assert!(
        w.is_some(),
        "seeded instances must separate left- from right-recursive TC"
    );
}
