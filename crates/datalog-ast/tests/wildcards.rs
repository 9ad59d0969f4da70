//! Parsing a wildcard interns nothing once its name exists. The interner is
//! process-global, so this test has a binary of its own: no other test can
//! intern a symbol while it counts.

use datalog_ast::{parse_program, Symbol};

#[test]
fn repeated_wildcard_queries_leave_the_interner_unchanged() {
    let ask = || parse_program("?- a(_, _).").unwrap().program.query.unwrap();
    let q = ask();
    assert_ne!(q.atom.terms[0], q.atom.terms[1]);
    assert!(q
        .atom
        .terms
        .iter()
        .all(|t| t.as_var().unwrap().is_wildcard()));
    let before = Symbol::interned_count();
    for _ in 0..100_000 {
        ask();
    }
    assert_eq!(Symbol::interned_count(), before);
}
