//! The lint fixtures under `tests/lint/` are intentionally broken and must
//! keep producing byte-identical diagnostics — `scripts/check.sh` and
//! editor integrations both consume the `path:line:col: severity[code]:
//! message` shape. A second suite re-validates the optimizer pipeline over
//! every example program, the in-process form of `xdl verify-opt`.

use datalog_lint::{has_errors, lint_source};
use datalog_opt::{optimize, validate, OptimizerConfig};

fn fixture(name: &str) -> String {
    let path = format!("{}/lint/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn rendered(name: &str) -> Vec<String> {
    lint_source(&fixture(name))
        .iter()
        .map(|d| d.render_at(&format!("tests/lint/{name}")))
        .collect()
}

#[test]
fn unsafe_rule_fixture_diagnostics_are_stable() {
    let src = fixture("unsafe_rule.dl");
    assert!(has_errors(&lint_source(&src)));
    assert_eq!(
        rendered("unsafe_rule.dl"),
        vec![
            "tests/lint/unsafe_rule.dl:4:1: error[safety]: head variable Y of \
             `reach(X, Y) :- edge(X, Z).` is not bound by a positive body literal",
            "tests/lint/unsafe_rule.dl:4:1: warning[singleton-var]: variable Z occurs \
             only once in `reach(X, Y) :- edge(X, Z).` — use `_` if the existential \
             reading is intended",
        ]
    );
}

#[test]
fn dead_code_fixture_diagnostics_are_stable() {
    let src = fixture("dead_code.dl");
    assert!(has_errors(&lint_source(&src)));
    assert_eq!(
        rendered("dead_code.dl"),
        vec![
            "tests/lint/dead_code.dl:5:1: warning[subsumed-rule]: rule \
             `path(U, V) :- edge(U, V).` is a duplicate of the rule at line 4 \
             (`path(X, Y) :- edge(X, Y).`) and can be deleted",
            "tests/lint/dead_code.dl:6:1: warning[unused-predicate]: derived \
             predicate `helper` is never used",
            "tests/lint/dead_code.dl:7:1: warning[fact-for-derived]: fact for \
             derived predicate `path`: by the paper's convention the IDB holds no \
             facts (EDB facts arrive with the database)",
            "tests/lint/dead_code.dl:8:1: error[arity]: fact for `edge` has \
             3 value(s) but the predicate has arity 2",
        ]
    );
}

#[test]
fn a_fact_at_the_wrong_arity_is_the_only_one_reported() {
    // `p` has arity 1 in the rule; of its four facts only `p(3, 4).` on
    // line 4 disagrees.
    assert_eq!(
        rendered("fact_arity.dl"),
        vec![
            "tests/lint/fact_arity.dl:4:1: error[arity]: fact for `p` has 2 \
             value(s) but the predicate has arity 1",
        ]
    );
}

#[test]
fn cartesian_fixture_diagnostics_are_stable() {
    let src = fixture("cartesian.dl");
    assert!(!has_errors(&lint_source(&src)), "warnings only");
    assert_eq!(
        rendered("cartesian.dl"),
        vec![
            "tests/lint/cartesian.dl:4:1: warning[bound-cartesian]: rule \
             `holds(P, A) :- owner(P), asset(A).` joins 2 variable-disjoint \
             groups {owner} x {asset} — the derivation bound is their full \
             cross product",
        ]
    );
}

#[test]
fn unbounded_fixture_diagnostics_are_stable() {
    let src = fixture("unbounded.dl");
    assert!(!has_errors(&lint_source(&src)), "warnings only");
    assert_eq!(
        rendered("unbounded.dl"),
        vec![
            "tests/lint/unbounded.dl:4:1: warning[bound-unbounded]: recursive \
             predicate `t` is nonlinear and no column can be traced to a base \
             relation; no size bound tighter than the active-domain fallback \
             adom^2 is certified — bound-aware admission will flag this form",
        ]
    );
}

#[test]
fn example_bounds_are_sound_against_actual_evaluation() {
    // For every shipped example: evaluate the program on its own facts and
    // check that no derived predicate exceeds the statically certified
    // bound at the true EDB cardinalities. This is the pinned, named-
    // workload form of the fuzz soundness arm.
    use datalog_engine::{evaluate, EvalOptions, FactSet};
    let dir = format!("{}/../examples/data", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let parsed = datalog_ast::parse_program(&src).unwrap();
        let report = datalog_lint::analyze_bounds(&parsed.program)
            .unwrap_or_else(|e| panic!("{}: bounds analysis failed: {e}", path.display()));
        let instance = FactSet::from_parsed(&parsed.facts);
        let cards: std::collections::BTreeMap<String, u64> = report
            .edb
            .iter()
            .map(|p| (p.to_string(), instance.count(p) as u64))
            .collect();
        let out = evaluate(&parsed.program, &instance, &EvalOptions::default()).unwrap();
        for pred in &report.idb {
            let actual = out
                .database
                .pred_id(pred)
                .map_or(0, |id| out.database.relation(id).len()) as u64;
            let bound = report.eval_count(pred, &cards).unwrap_or_else(|| {
                panic!("{}: no bound for derived predicate {pred}", path.display())
            });
            assert!(
                actual <= bound,
                "{}: {pred} derived {actual} facts, certified bound is {bound}",
                path.display()
            );
        }
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the shipped example programs in {dir}"
    );
}

#[test]
fn example_programs_lint_clean() {
    let dir = format!("{}/../examples/data", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let diags = lint_source(&src);
        assert!(
            !has_errors(&diags),
            "{}: {:?}",
            path.display(),
            diags.iter().map(|d| d.render_at("-")).collect::<Vec<_>>()
        );
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the shipped example programs in {dir}"
    );
}

#[test]
fn example_programs_survive_translation_validation() {
    // The in-process `xdl verify-opt examples/data/*.dl`: every phase of
    // every optimization run must be re-justifiable, with zero unjustified
    // deletions.
    let dir = format!("{}/../examples/data", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dl") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        let program = datalog_ast::parse_program(&src).unwrap().program;
        let out = optimize(&program, &OptimizerConfig::default()).unwrap();
        let v = validate(&out.report);
        assert!(v.ok(), "{}:\n{}", path.display(), v.to_text());
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected the shipped example programs in {dir}"
    );
}

#[test]
fn verify_flag_gates_the_pipeline() {
    // `OptimizerConfig::verify` makes a validation failure abort the
    // optimize call itself; on sound runs it is invisible apart from the
    // trailing validation event.
    let program = datalog_ast::parse_program(
        "a(X, Y) :- p(X, Z), a(Z, Y).\n\
         a(X, Y) :- p(X, Y).\n\
         ?- a(X, _).",
    )
    .unwrap()
    .program;
    let verified = optimize(
        &program,
        &OptimizerConfig {
            verify: true,
            ..OptimizerConfig::default()
        },
    )
    .unwrap();
    let plain = optimize(&program, &OptimizerConfig::default()).unwrap();
    assert_eq!(verified.program.to_text(), plain.program.to_text());
}
