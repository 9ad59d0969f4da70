//! Stratified-negation evaluation tests (the §6 extension).

use datalog_ast::{parse_program, Kind, PredRef, Value};
use datalog_engine::{evaluate, query_answers, EngineError, EvalOptions, FactSet, Strategy};

fn fs(pairs: &[(&str, &[i64])]) -> FactSet {
    let mut f = FactSet::new();
    for (p, args) in pairs {
        f.insert(
            PredRef::new(p),
            args.iter().map(|&a| Value::int(a)).collect(),
        );
    }
    f
}

#[test]
fn basic_negation_as_failure() {
    let p = parse_program(
        "alive(X) :- node(X), not dead(X).\n\
         ?- alive(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("node", &[1]),
        ("node", &[2]),
        ("node", &[3]),
        ("dead", &[2]),
    ]);
    let (ans, _) = query_answers(&p, &input, &EvalOptions::default()).unwrap();
    let rows: Vec<i64> = ans
        .rows
        .iter()
        .map(|r| match r[0].kind() {
            Kind::Int(i) => i,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(rows, vec![1, 3]);
}

#[test]
fn negation_of_derived_predicate_uses_lower_stratum() {
    // Unreachable nodes: reach in stratum 0, unreached in stratum 1.
    let p = parse_program(
        "reach(Y) :- start(Y).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         unreached(X) :- node(X), not reach(X).\n\
         ?- unreached(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("start", &[0]),
        ("edge", &[0, 1]),
        ("edge", &[1, 2]),
        ("edge", &[3, 4]),
        ("node", &[0]),
        ("node", &[1]),
        ("node", &[2]),
        ("node", &[3]),
        ("node", &[4]),
    ]);
    let (ans, _) = query_answers(&p, &input, &EvalOptions::default()).unwrap();
    assert_eq!(ans.len(), 2); // nodes 3 and 4
    assert!(ans.rows.contains(&vec![Value::int(3)]));
    assert!(ans.rows.contains(&vec![Value::int(4)]));
}

#[test]
fn three_strata_chain() {
    let p = parse_program(
        "a(X) :- base(X).\n\
         b(X) :- univ(X), not a(X).\n\
         c(X) :- univ(X), not b(X).\n\
         ?- c(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[("base", &[1]), ("univ", &[1]), ("univ", &[2])]);
    // a = {1}; b = {2}; c = univ \ b = {1}.
    let (ans, _) = query_answers(&p, &input, &EvalOptions::default()).unwrap();
    assert_eq!(ans.rows, [vec![Value::int(1)]].into());
}

#[test]
fn unstratified_program_is_rejected() {
    let p = parse_program(
        "win(X) :- move(X, Y), not win(Y).\n\
         ?- win(X).",
    )
    .unwrap()
    .program;
    let err = evaluate(&p, &FactSet::new(), &EvalOptions::default()).unwrap_err();
    assert!(matches!(err, EngineError::NotStratified { .. }), "{err}");
}

#[test]
fn mutual_recursion_with_external_negation_is_stratified() {
    let p = parse_program(
        "even(X) :- zero(X).\n\
         even(X) :- succ(Y, X), odd(Y).\n\
         odd(X) :- succ(Y, X), even(Y).\n\
         neither(X) :- num(X), not even(X), not odd(X).\n\
         ?- neither(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("zero", &[0]),
        ("succ", &[0, 1]),
        ("succ", &[1, 2]),
        ("num", &[0]),
        ("num", &[1]),
        ("num", &[2]),
        ("num", &[99]),
    ]);
    let (ans, _) = query_answers(&p, &input, &EvalOptions::default()).unwrap();
    assert_eq!(ans.rows, [vec![Value::int(99)]].into());
}

#[test]
fn naive_and_seminaive_agree_under_negation() {
    let p = parse_program(
        "reach(Y) :- start(Y).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         frontier(X) :- reach(X), not interior(X).\n\
         interior(X) :- edge(X, Y), reach(X), reach(Y).\n\
         ?- frontier(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("start", &[0]),
        ("edge", &[0, 1]),
        ("edge", &[1, 2]),
        ("edge", &[2, 3]),
    ]);
    let naive = evaluate(
        &p,
        &input,
        &EvalOptions {
            strategy: Strategy::Naive,
            ..EvalOptions::default()
        },
    )
    .unwrap();
    let semi = evaluate(&p, &input, &EvalOptions::default()).unwrap();
    assert_eq!(naive.database.dump(), semi.database.dump());
}

#[test]
fn boolean_cut_keeps_rules_read_only_through_negation() {
    // `flagged` has one consumer, and it is a negated literal. The cut
    // must count it: retiring `flagged` (and then `above`) after the seed
    // round would leave `flagged` incomplete and answer every employee.
    let p = parse_program(
        "above(X, Y) :- boss(X, Y).\n\
         above(X, Y) :- boss(X, Z), above(Z, Y).\n\
         flagged(X) :- above(X, Y), bad(Y).\n\
         clean(X) :- emp(X), not flagged(X).\n\
         ?- clean(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("boss", &[1, 2]),
        ("boss", &[2, 3]),
        ("boss", &[3, 4]),
        ("boss", &[5, 6]),
        ("bad", &[4]),
        ("emp", &[1]),
        ("emp", &[2]),
        ("emp", &[3]),
        ("emp", &[5]),
    ]);
    let run = |opts: EvalOptions| query_answers(&p, &input, &opts).unwrap().0;
    let oracle = run(EvalOptions {
        strategy: Strategy::Naive,
        ..EvalOptions::default()
    });
    assert_eq!(oracle.rows, [vec![Value::int(5)]].into());
    let cut = run(EvalOptions {
        boolean_cut: true,
        ..EvalOptions::default()
    });
    assert_eq!(cut, oracle, "cut on must equal the naive oracle");
    assert_eq!(run(EvalOptions::default()), oracle, "and cut off");
}

#[test]
fn negation_with_constants_and_wildcard_query() {
    let p = parse_program(
        "orphan(X) :- node(X), not edge(X, X).\n\
         ?- orphan(_).",
    )
    .unwrap()
    .program;
    let input = fs(&[("node", &[1]), ("node", &[2]), ("edge", &[1, 1])]);
    let (ans, _) = query_answers(&p, &input, &EvalOptions::default()).unwrap();
    // Boolean (all columns existential): some orphan exists.
    assert_eq!(ans.as_bool(), Some(true));
}

#[test]
fn stratified_negation_counts_probes() {
    let p = parse_program(
        "q(X) :- s(X), not t(X).\n\
         ?- q(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[("s", &[1]), ("s", &[2]), ("t", &[2])]);
    let out = evaluate(&p, &input, &EvalOptions::default()).unwrap();
    assert!(out.stats.index_probes >= 2, "negation checks are counted");
    assert_eq!(out.database.dump().count(&PredRef::new("q")), 1);
}

// --- join reordering (engine feature, not negation-specific, but this
// integration file exercises cross-cutting EvalOptions) ---

#[test]
fn join_reordering_preserves_answers_and_reduces_scans() {
    let p = parse_program(
        "q(X) :- e(X, Y), f(Y, 3).\n\
         ?- q(X).",
    )
    .unwrap()
    .program;
    let mut input = FactSet::new();
    for i in 0..200i64 {
        input.insert(PredRef::new("e"), vec![Value::int(i), Value::int(i % 50)]);
    }
    input.insert(PredRef::new("f"), vec![Value::int(7), Value::int(3)]);
    input.insert(PredRef::new("f"), vec![Value::int(8), Value::int(9)]);
    let plain = evaluate(&p, &input, &EvalOptions::default()).unwrap();
    let reordered = evaluate(
        &p,
        &input,
        &EvalOptions {
            reorder_joins: true,
            ..EvalOptions::default()
        },
    )
    .unwrap();
    assert_eq!(plain.database.dump(), reordered.database.dump());
    // Source order scans all of e then probes f; reordered starts from the
    // constant-bearing f literal and probes e on the bound column.
    assert!(
        reordered.stats.tuples_scanned < plain.stats.tuples_scanned / 5,
        "reordered {} vs plain {}",
        reordered.stats.tuples_scanned,
        plain.stats.tuples_scanned
    );
}

#[test]
fn join_reordering_agrees_on_recursion_and_negation() {
    let p = parse_program(
        "reach(Y) :- start(Y).\n\
         reach(Y) :- reach(X), edge(X, Y).\n\
         frontier(X) :- reach(X), not interior(X).\n\
         interior(X) :- reach(X), edge(X, Y), reach(Y).\n\
         ?- frontier(X).",
    )
    .unwrap()
    .program;
    let input = fs(&[
        ("start", &[0]),
        ("edge", &[0, 1]),
        ("edge", &[1, 2]),
        ("edge", &[5, 6]),
    ]);
    let plain = evaluate(&p, &input, &EvalOptions::default()).unwrap();
    let reordered = evaluate(
        &p,
        &input,
        &EvalOptions {
            reorder_joins: true,
            ..EvalOptions::default()
        },
    )
    .unwrap();
    assert_eq!(plain.database.dump(), reordered.database.dump());
}
