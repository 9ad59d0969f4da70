//! Support code for the cross-crate integration tests: proptest strategies
//! that generate random *safe* Datalog programs and random instances.

use proptest::prelude::*;

use datalog_ast::{Atom, PredRef, Program, Query, Rule, Term, Value, Var};
use datalog_engine::FactSet;

/// Schema used by the generators: predicate name + arity.
#[derive(Debug, Clone)]
pub struct Schema {
    /// Derived predicates.
    pub idb: Vec<(String, usize)>,
    /// Base predicates.
    pub edb: Vec<(String, usize)>,
}

impl Schema {
    /// A small default schema.
    pub fn small() -> Schema {
        Schema {
            idb: vec![("q".into(), 2), ("r".into(), 1)],
            edb: vec![("e".into(), 2), ("f".into(), 1), ("g".into(), 3)],
        }
    }

    fn all(&self) -> Vec<(String, usize, bool)> {
        self.idb
            .iter()
            .map(|(n, a)| (n.clone(), *a, true))
            .chain(self.edb.iter().map(|(n, a)| (n.clone(), *a, false)))
            .collect()
    }
}

const VAR_POOL: [&str; 6] = ["X", "Y", "Z", "U", "V", "W"];

/// Strategy: one rule with head predicate `head_idx` of the schema.
/// Safety is ensured by construction: head variables are drawn from the
/// variables that occur in the generated body.
fn rule_strategy(schema: Schema, head_idx: usize) -> impl Strategy<Value = Rule> {
    let preds = schema.all();
    let (head_name, head_arity) = (schema.idb[head_idx].0.clone(), schema.idb[head_idx].1);
    // Body: 1..=3 literals, each a predicate with variable picks.
    let lit = (
        0..preds.len(),
        proptest::collection::vec(0..VAR_POOL.len(), 0..4),
    );
    proptest::collection::vec(lit, 1..=3).prop_flat_map(move |body_spec| {
        let preds = preds.clone();
        let head_name = head_name.clone();
        let mut body: Vec<Atom> = Vec::new();
        let mut body_vars: Vec<Var> = Vec::new();
        for (pi, var_picks) in body_spec {
            let (name, arity, _derived) = &preds[pi];
            let terms: Vec<Term> = (0..*arity)
                .map(|k| {
                    let pick = var_picks.get(k).copied().unwrap_or(k % VAR_POOL.len());
                    let v = Var::new(VAR_POOL[pick % VAR_POOL.len()]);
                    Term::Var(v)
                })
                .collect();
            for t in &terms {
                if let Term::Var(v) = t {
                    if !body_vars.contains(v) {
                        body_vars.push(*v);
                    }
                }
            }
            body.push(Atom::new(PredRef::new(name), terms));
        }
        // Head: draw each argument from the body variables.
        let nvars = body_vars.len().max(1);
        proptest::collection::vec(0..nvars, head_arity).prop_map(move |head_picks| {
            let head_terms: Vec<Term> = head_picks
                .iter()
                .map(|&i| Term::Var(body_vars[i % body_vars.len()]))
                .collect();
            Rule::new(
                Atom::new(PredRef::new(&head_name), head_terms),
                body.clone(),
            )
        })
    })
}

/// Strategy: a whole random safe program over [`Schema::small`], with a
/// query on `q` whose second position may be existential.
pub fn program_strategy() -> impl Strategy<Value = Program> {
    let schema = Schema::small();
    let rules_q = proptest::collection::vec(rule_strategy(schema.clone(), 0), 1..=3);
    let rules_r = proptest::collection::vec(rule_strategy(schema.clone(), 1), 0..=2);
    (rules_q, rules_r, proptest::bool::ANY).prop_map(|(a, b, existential)| {
        let mut rules = a;
        rules.extend(b);
        let query_atom = if existential {
            Atom::new(
                PredRef::new("q"),
                vec![Term::Var(Var::new("X")), Term::Var(Var::fresh_wildcard())],
            )
        } else {
            Atom::new(
                PredRef::new("q"),
                vec![Term::Var(Var::new("X")), Term::Var(Var::new("Y"))],
            )
        };
        Program {
            rules,
            query: Some(Query::new(query_atom)),
        }
    })
}

/// Strategy: a random instance for the schema's EDB predicates over the
/// integer domain `0..domain`.
pub fn instance_strategy(domain: i64, max_facts: usize) -> impl Strategy<Value = FactSet> {
    let schema = Schema::small();
    let fact = (0..schema.edb.len(), proptest::collection::vec(0..domain, 3));
    proptest::collection::vec(fact, 0..max_facts).prop_map(move |facts| {
        let mut fs = FactSet::new();
        for (pi, vals) in facts {
            let (name, arity) = &schema.edb[pi];
            let tuple: Vec<Value> = (0..*arity).map(|k| Value::int(vals[k])).collect();
            fs.insert(PredRef::new(name), tuple);
        }
        fs
    })
}

/// Strategy: a random right-linear chain grammar as a program
/// (`a -> t a | t` shapes with up to three terminals and two nonterminals).
pub fn right_linear_chain_strategy() -> impl Strategy<Value = Program> {
    // Each production: (lhs in {s, t1}, terminals 1..=2, optional nt tail)
    let prod = (
        0..2usize,
        proptest::collection::vec(0..3usize, 1..=2),
        proptest::option::of(0..2usize),
    );
    proptest::collection::vec(prod, 1..=4).prop_map(|prods| {
        let nts = ["s", "t1"];
        let ts = ["ea", "eb", "ec"];
        let mut rules = Vec::new();
        let mut has_exit = [false, false];
        for (lhs, terms, tail) in &prods {
            if tail.is_none() {
                has_exit[*lhs] = true;
            }
            rules.push(make_chain_rule(
                nts[*lhs],
                &terms.iter().map(|&t| ts[t]).collect::<Vec<_>>(),
                tail.map(|t| nts[t]),
            ));
        }
        // Guarantee productivity: give every used nonterminal an exit rule.
        for (i, nt) in nts.iter().enumerate() {
            if !has_exit[i] {
                rules.push(make_chain_rule(nt, &["ea"], None));
            }
        }
        let mut p = Program::new(rules);
        p.query = Some(Query::new(Atom::new(
            PredRef::new("s"),
            vec![Term::Var(Var::new("X")), Term::Var(Var::new("Y"))],
        )));
        p
    })
}

fn make_chain_rule(head: &str, terminals: &[&str], tail: Option<&str>) -> Rule {
    let n = terminals.len() + usize::from(tail.is_some());
    let var_at = |i: usize| -> Term {
        if i == 0 {
            Term::Var(Var::new("X"))
        } else if i == n {
            Term::Var(Var::new("Y"))
        } else {
            Term::Var(Var::new(&format!("C{i}")))
        }
    };
    let mut body = Vec::new();
    for (i, t) in terminals.iter().enumerate() {
        body.push(Atom::new(PredRef::new(t), vec![var_at(i), var_at(i + 1)]));
    }
    if let Some(nt) = tail {
        body.push(Atom::new(
            PredRef::new(nt),
            vec![var_at(terminals.len()), var_at(n)],
        ));
    }
    Rule::new(
        Atom::new(PredRef::new(head), vec![var_at(0), var_at(n)]),
        body,
    )
}

#[cfg(test)]
mod smoke {
    use super::*;
    use proptest::strategy::ValueTree;
    use proptest::test_runner::TestRunner;

    #[test]
    fn strategies_produce_valid_programs() {
        let mut runner = TestRunner::default();
        for _ in 0..50 {
            let p = program_strategy().new_tree(&mut runner).unwrap().current();
            p.validate().expect("generated program must be safe");
        }
        for _ in 0..50 {
            let p = right_linear_chain_strategy()
                .new_tree(&mut runner)
                .unwrap()
                .current();
            p.validate().expect("generated chain program must be safe");
            assert!(datalog_grammar::is_chain_program(&p));
        }
    }
}
