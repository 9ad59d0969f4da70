//! Synthetic EDB generators.
//!
//! The paper has no published datasets (PODS 1988); these generators cover
//! the relation shapes its examples use: binary edge relations for the
//! transitive-closure programs (`p`), the `up`/`dn`/`flat`/`b`/`c`
//! relations of Example 12 and the same-generation family, the `b1..b4`,
//! `g1..g4` base relations of Examples 7–11, and bill-of-material style
//! DAGs for the boolean-cut experiment.

use datalog_ast::{PredRef, Value};
use datalog_engine::FactSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A simple chain `pred(0,1), pred(1,2), ..., pred(n-1,n)`.
pub fn chain(pred: &str, n: i64) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    for i in 0..n {
        fs.insert(p.clone(), vec![Value::int(i), Value::int(i + 1)]);
    }
    fs
}

/// A cycle of length `n`.
pub fn cycle(pred: &str, n: i64) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    for i in 0..n {
        fs.insert(p.clone(), vec![Value::int(i), Value::int((i + 1) % n)]);
    }
    fs
}

/// A random digraph with `n` nodes and `m` edges (duplicates deduped).
pub fn random_digraph(pred: &str, n: i64, m: usize, seed: u64) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..m {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        fs.insert(p.clone(), vec![Value::int(a), Value::int(b)]);
    }
    fs
}

/// A complete `k`-ary tree of the given depth, edges parent→child.
pub fn tree(pred: &str, arity: i64, depth: u32) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    let mut frontier: Vec<i64> = vec![0];
    let mut next_id: i64 = 1;
    for _ in 0..depth {
        let mut next = Vec::new();
        for &node in &frontier {
            for _ in 0..arity {
                fs.insert(p.clone(), vec![Value::int(node), Value::int(next_id)]);
                next.push(next_id);
                next_id += 1;
            }
        }
        frontier = next;
    }
    fs
}

/// The Example 12 / same-generation shape: a tower of `up` edges, matching
/// `dn` edges, `b(x, y, z)` base triples at the bottom and a `c` relation
/// over the third column with the given selectivity (fraction of `z`
/// values present in `c`).
pub fn updown(levels: i64, width: i64, c_selectivity: f64, seed: u64) -> FactSet {
    let mut fs = FactSet::new();
    let up = PredRef::new("up");
    let dn = PredRef::new("dn");
    let b = PredRef::new("b");
    let c = PredRef::new("c");
    let mut rng = StdRng::seed_from_u64(seed);
    // Node ids: level * width + offset; two disjoint towers for up and dn.
    let node = |lvl: i64, off: i64| Value::int(lvl * width + off);
    let dnode = |lvl: i64, off: i64| Value::int(1_000_000 + lvl * width + off);
    for lvl in 0..levels {
        for off in 0..width {
            // up goes toward the base (deeper level), dn comes back.
            fs.insert(up.clone(), vec![node(lvl, off), node(lvl + 1, off)]);
            fs.insert(dn.clone(), vec![dnode(lvl + 1, off), dnode(lvl, off)]);
        }
    }
    for off in 0..width {
        // Base triples tie the two towers together at the deepest level.
        let z = Value::int(2_000_000 + off);
        fs.insert(b.clone(), vec![node(levels, off), dnode(levels, off), z]);
        if rng.gen_bool(c_selectivity) {
            fs.insert(c.clone(), vec![z]);
        }
    }
    fs
}

/// Random EDB derived from a program's schema: every base (EDB) predicate
/// of `program` gets `per_rel` random tuples (deduplicated) over the
/// integer domain `0..n`, at whatever arity the program uses it.
pub fn edb_for(program: &datalog_ast::Program, n: i64, per_rel: usize, seed: u64) -> FactSet {
    let mut fs = FactSet::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let arities = program
        .arities()
        .expect("workload program has consistent arities");
    for pred in program.edb_preds() {
        let arity = arities[&pred];
        for _ in 0..per_rel {
            let t: Vec<Value> = (0..arity)
                .map(|_| Value::int(rng.gen_range(0..n)))
                .collect();
            fs.insert(pred.clone(), t);
        }
    }
    fs
}

/// A unary relation `pred(0..n)`.
pub fn unary(pred: &str, n: i64) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    for i in 0..n {
        fs.insert(p.clone(), vec![Value::int(i)]);
    }
    fs
}

/// Bill-of-materials style DAG for the boolean-cut experiment: `part(P)`
/// subparts via `sub(P, Q)`, plus a large `certified(S)` relation of which
/// only existence matters.
pub fn bom(parts: i64, fanout: i64, certified: i64) -> FactSet {
    let mut fs = FactSet::new();
    let sub = PredRef::new("sub");
    let cert = PredRef::new("certified");
    for p in 0..parts {
        for k in 1..=fanout {
            let q = p * fanout + k;
            if q < parts {
                fs.insert(sub.clone(), vec![Value::int(p), Value::int(q)]);
            }
        }
    }
    for s in 0..certified {
        fs.insert(cert.clone(), vec![Value::int(s)]);
    }
    fs
}

/// A random *safe* Datalog program over a small fixed schema, for
/// differential testing (`cargo run -p datalog-bench --bin fuzz`). Head
/// variables are drawn from the generated body, so every program validates.
/// The query is `?- q(X, _)` (existential) or `?- q(X, Y)`.
pub fn random_program(seed: u64) -> datalog_ast::Program {
    use datalog_ast::{Atom, PredRef, Program, Query, Rule, Term, Var};
    let mut rng = StdRng::seed_from_u64(seed);
    let idb: [(&str, usize); 2] = [("q", 2), ("r", 1)];
    let edb: [(&str, usize); 3] = [("e", 2), ("f", 1), ("g", 3)];
    let vars = ["X", "Y", "Z", "U", "V", "W"];
    let mut rules = Vec::new();
    let n_rules = rng.gen_range(2..=5);
    for k in 0..n_rules {
        // Guarantee at least one rule per IDB pred.
        let (hname, harity) = if k < idb.len() {
            idb[k]
        } else {
            idb[rng.gen_range(0..idb.len())]
        };
        let n_lits = rng.gen_range(1..=3);
        let mut body = Vec::new();
        let mut body_vars: Vec<Var> = Vec::new();
        for _ in 0..n_lits {
            let all: Vec<(&str, usize)> = idb.iter().chain(edb.iter()).copied().collect();
            let (name, arity) = all[rng.gen_range(0..all.len())];
            let terms: Vec<Term> = (0..arity)
                .map(|_| Term::Var(Var::new(vars[rng.gen_range(0..vars.len())])))
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
        let head_terms: Vec<Term> = (0..harity)
            .map(|_| Term::Var(body_vars[rng.gen_range(0..body_vars.len())]))
            .collect();
        rules.push(Rule::new(Atom::new(PredRef::new(hname), head_terms), body));
    }
    let query = if rng.gen_bool(0.5) {
        Atom::new(
            PredRef::new("q"),
            vec![Term::Var(Var::new("X")), Term::Var(Var::fresh_wildcard())],
        )
    } else {
        Atom::app("q", &["X", "Y"])
    };
    let mut p = Program::new(rules);
    p.query = Some(Query::new(query));
    p
}

/// [`random_program`]'s rules plus one or two strata above them with safe
/// negated literals, for the stratified incremental fuzz arm. A new
/// `s/1` reads the base predicates and negates some of them (derived or
/// EDB), and a recursive rule grows it positively; with probability one
/// half a `t/2` above it negates `s` as well. The query reads the top
/// stratum. `random_program(seed)` itself is left as it is, so a failing
/// seed of that generator keeps its program.
pub fn random_stratified_program(seed: u64) -> datalog_ast::Program {
    use datalog_ast::{Atom, PredRef, Query, Rule, Term, Var};
    let mut p = random_program(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5712_a71f);
    let vars = ["X", "Y", "Z"];
    // A literal over `pred` of `arity`, its variables drawn from `pool`.
    let lit = |rng: &mut StdRng, pred: &str, arity: usize, pool: &[&str]| {
        let terms: Vec<Term> = (0..arity)
            .map(|_| Term::Var(Var::new(pool[rng.gen_range(0..pool.len())])))
            .collect();
        Atom::new(PredRef::new(pred), terms)
    };
    // One rule for `head`: a positive body over `pos`, negated literals
    // over `neg` whose variables the body binds, a head from the body's.
    let rule =
        |rng: &mut StdRng, head: (&str, usize), pos: &[(&str, usize)], neg: &[(&str, usize)]| {
            let body: Vec<Atom> = (0..rng.gen_range(1..=2))
                .map(|_| {
                    let (name, arity) = pos[rng.gen_range(0..pos.len())];
                    lit(rng, name, arity, &vars)
                })
                .collect();
            let bound: Vec<&str> = vars
                .iter()
                .copied()
                .filter(|v| {
                    body.iter()
                        .any(|a| a.var_occurrences().any(|o| o == Var::new(v)))
                })
                .collect();
            let negative: Vec<Atom> = (0..rng.gen_range(1..=2))
                .map(|_| {
                    let (name, arity) = neg[rng.gen_range(0..neg.len())];
                    lit(rng, name, arity, &bound)
                })
                .collect();
            let head = lit(rng, head.0, head.1, &bound);
            Rule::with_negation(head, body, negative)
        };
    let base: [(&str, usize); 5] = [("q", 2), ("r", 1), ("e", 2), ("f", 1), ("g", 3)];
    p.rules.push(rule(&mut rng, ("s", 1), &base, &base));
    p.rules.push(Rule::new(
        Atom::app("s", &["Y"]),
        vec![Atom::app("s", &["X"]), Atom::app("e", &["X", "Y"])],
    ));
    let top = if rng.gen_bool(0.5) {
        let with_s: Vec<(&str, usize)> = base.iter().copied().chain([("s", 1)]).collect();
        p.rules.push(rule(
            &mut rng,
            ("t", 2),
            &with_s,
            &[("s", 1), ("q", 2), ("f", 1)],
        ));
        Atom::app("t", &["X", "Y"])
    } else {
        Atom::app("s", &["X"])
    };
    p.query = Some(Query::new(top));
    p
}

/// Pad a binary edge EDB into arity `2 + extra` by appending dead columns
/// (used by the arity-scaling experiment E7).
pub fn padded_edges(pred: &str, n: i64, extra: usize, seed: u64) -> FactSet {
    let mut fs = FactSet::new();
    let p = PredRef::new(pred);
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let mut t = vec![Value::int(i), Value::int(i + 1)];
        for _ in 0..extra {
            t.push(Value::int(rng.gen_range(0..8)));
        }
        fs.insert(p.clone(), t);
    }
    fs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_counts() {
        let fs = chain("p", 10);
        assert_eq!(fs.count(&PredRef::new("p")), 10);
        assert!(fs.contains(&PredRef::new("p"), &[Value::int(0), Value::int(1)]));
    }

    #[test]
    fn cycle_wraps() {
        let fs = cycle("p", 5);
        assert!(fs.contains(&PredRef::new("p"), &[Value::int(4), Value::int(0)]));
        assert_eq!(fs.count(&PredRef::new("p")), 5);
    }

    #[test]
    fn random_digraph_is_deterministic() {
        let a = random_digraph("p", 50, 100, 7);
        let b = random_digraph("p", 50, 100, 7);
        assert_eq!(a, b);
        let c = random_digraph("p", 50, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn tree_node_count() {
        // Binary tree depth 3: 2 + 4 + 8 = 14 edges.
        let fs = tree("p", 2, 3);
        assert_eq!(fs.count(&PredRef::new("p")), 14);
    }

    #[test]
    fn updown_structure() {
        let fs = updown(3, 4, 1.0, 1);
        assert_eq!(fs.count(&PredRef::new("up")), 12);
        assert_eq!(fs.count(&PredRef::new("dn")), 12);
        assert_eq!(fs.count(&PredRef::new("b")), 4);
        assert_eq!(fs.count(&PredRef::new("c")), 4);
        // Selectivity 0: no c facts.
        let fs0 = updown(3, 4, 0.0, 1);
        assert_eq!(fs0.count(&PredRef::new("c")), 0);
    }

    #[test]
    fn padded_edges_arity() {
        let fs = padded_edges("p", 5, 3, 1);
        for (_, t) in fs.iter() {
            assert_eq!(t.len(), 5);
        }
    }

    #[test]
    fn bom_has_certified() {
        let fs = bom(20, 2, 100);
        assert_eq!(fs.count(&PredRef::new("certified")), 100);
        assert!(fs.count(&PredRef::new("sub")) > 0);
    }

    #[test]
    fn edb_for_follows_program_schema() {
        let p = datalog_ast::parse_program("q(X) :- e2(X, Y), e3(X, Y, Z).\n?- q(X).")
            .unwrap()
            .program;
        let fs = edb_for(&p, 10, 5, 3);
        assert!(fs.count(&PredRef::new("e2")) > 0);
        assert!(fs.count(&PredRef::new("e3")) > 0);
        for t in fs.tuples(&PredRef::new("e3")) {
            assert_eq!(t.len(), 3);
        }
        // Derived predicates get no facts.
        assert_eq!(fs.count(&PredRef::new("q")), 0);
        // Deterministic in the seed.
        assert_eq!(fs, edb_for(&p, 10, 5, 3));
    }
}
