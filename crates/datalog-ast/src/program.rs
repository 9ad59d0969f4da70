//! Programs: rule sets with a query, and their static structure.
//!
//! Following the paper's §1.1, a *program* is a triple `(Q, IDB, EDB)`:
//! the IDB is the finite rule set, the EDB holds all facts (the IDB contains
//! none), and `Q` is a query atom. This module carries only the `(Q, IDB)`
//! part; fact storage lives in `datalog-engine`.

use std::collections::{BTreeMap, BTreeSet};

use crate::atom::Atom;
use crate::pred::PredRef;
use crate::rule::Rule;
use crate::AstError;

/// The query: an atom whose constants act as selections and whose variables
/// are the requested output columns. Wildcard variables in the query are how
/// the text format expresses existential output positions before adornment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The query atom.
    pub atom: Atom,
}

impl Query {
    /// Construct from an atom.
    pub fn new(atom: Atom) -> Query {
        Query { atom }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "?- {}.", self.atom)
    }
}

/// A Datalog program: an IDB (rules) plus an optional query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// The rules, in source order. Rule indices are stable and are used by
    /// the optimizers to report which rule was deleted/rewritten.
    pub rules: Vec<Rule>,
    /// The query, if any.
    pub query: Option<Query>,
}

/// Check one occurrence of a predicate against the arity its earlier
/// occurrences fixed (`known`), or — for a first occurrence of an adorned
/// predicate — against its adornment: the argument count must match the
/// adornment length (pre-projection form) or its needed count
/// (post-projection form). The per-atom step of [`Program::arities`], public
/// so a caller holding a validated rule set's arities can check one more
/// atom (a query) without re-walking the rules.
pub fn check_arity(known: Option<usize>, atom: &Atom) -> Result<(), AstError> {
    match known {
        Some(k) if k != atom.arity() => Err(AstError::ArityMismatch {
            pred: atom.pred.to_string(),
            expected: k,
            found: atom.arity(),
        }),
        Some(_) => Ok(()),
        None => match &atom.pred.adornment {
            Some(ad) if atom.arity() != ad.len() && atom.arity() != ad.needed_count() => {
                Err(AstError::AdornmentMismatch {
                    pred: atom.pred.name.as_str(),
                    adornment: ad.to_string(),
                    args: atom.arity(),
                })
            }
            _ => Ok(()),
        },
    }
}

impl Program {
    /// A program from rules, no query.
    pub fn new(rules: Vec<Rule>) -> Program {
        Program { rules, query: None }
    }

    /// A program from rules and a query.
    pub fn with_query(rules: Vec<Rule>, query: Query) -> Program {
        Program {
            rules,
            query: Some(query),
        }
    }

    /// The set of predicates defined by some rule head (derived / IDB
    /// predicates).
    pub fn idb_preds(&self) -> BTreeSet<PredRef> {
        self.rules.iter().map(|r| r.head.pred.clone()).collect()
    }

    /// The set of predicates that occur only in rule bodies (base / EDB
    /// predicates).
    pub fn edb_preds(&self) -> BTreeSet<PredRef> {
        let idb = self.idb_preds();
        let mut edb = BTreeSet::new();
        for r in &self.rules {
            for a in r.body.iter().chain(r.negative.iter()) {
                if !idb.contains(&a.pred) {
                    edb.insert(a.pred.clone());
                }
            }
        }
        if let Some(q) = &self.query {
            if !idb.contains(&q.atom.pred) {
                edb.insert(q.atom.pred.clone());
            }
        }
        edb
    }

    /// All predicates mentioned anywhere (heads, bodies, query).
    pub fn all_preds(&self) -> BTreeSet<PredRef> {
        let mut s = BTreeSet::new();
        for r in &self.rules {
            s.insert(r.head.pred.clone());
            for a in r.body.iter().chain(r.negative.iter()) {
                s.insert(a.pred.clone());
            }
        }
        if let Some(q) = &self.query {
            s.insert(q.atom.pred.clone());
        }
        s
    }

    /// Arity of every predicate, determined from its occurrences.
    ///
    /// Returns an error if a predicate occurs with two different arities, or
    /// if an adorned predicate's argument count matches neither its
    /// adornment length (pre-projection form) nor its needed count
    /// (post-projection form).
    pub fn arities(&self) -> Result<BTreeMap<PredRef, usize>, AstError> {
        let mut map: BTreeMap<PredRef, usize> = BTreeMap::new();
        let mut visit = |atom: &Atom| -> Result<(), AstError> {
            check_arity(map.get(&atom.pred).copied(), atom)?;
            map.entry(atom.pred.clone()).or_insert(atom.arity());
            Ok(())
        };
        for r in &self.rules {
            visit(&r.head)?;
            for a in r.body.iter().chain(r.negative.iter()) {
                visit(a)?;
            }
        }
        if let Some(q) = &self.query {
            visit(&q.atom)?;
        }
        Ok(map)
    }

    /// Validate the whole program: consistent arities, safe rules, no
    /// wildcard head variables, and (if a query is present) a known query
    /// predicate.
    pub fn validate(&self) -> Result<(), AstError> {
        self.arities()?;
        for r in &self.rules {
            r.check_safe()?;
            if r.head.var_occurrences().any(|v| v.is_wildcard()) {
                return Err(AstError::WildcardInHead {
                    rule: r.to_string(),
                });
            }
        }
        if let Some(q) = &self.query {
            if !self.all_preds().contains(&q.atom.pred) {
                return Err(AstError::UnknownQueryPredicate {
                    pred: q.atom.pred.to_string(),
                });
            }
        }
        Ok(())
    }

    /// The predicate dependency graph: `p` depends on `q` when some rule
    /// with head `p` has `q` in its body. Returned as an adjacency map over
    /// the IDB predicates (EDB predicates are sinks and omitted as keys).
    pub fn dependency_graph(&self) -> BTreeMap<PredRef, BTreeSet<PredRef>> {
        let mut g: BTreeMap<PredRef, BTreeSet<PredRef>> = BTreeMap::new();
        for r in &self.rules {
            let entry = g.entry(r.head.pred.clone()).or_default();
            for a in r.body.iter().chain(r.negative.iter()) {
                entry.insert(a.pred.clone());
            }
        }
        g
    }

    /// Strongly connected components of the dependency graph (Tarjan),
    /// restricted to IDB predicates, in reverse topological order (callees
    /// before callers).
    pub fn sccs(&self) -> Vec<Vec<PredRef>> {
        let g = self.dependency_graph();
        let idb = self.idb_preds();
        let nodes: Vec<PredRef> = idb.iter().cloned().collect();
        let index_of: BTreeMap<&PredRef, usize> =
            nodes.iter().enumerate().map(|(i, p)| (p, i)).collect();
        let succs: Vec<Vec<usize>> = nodes
            .iter()
            .map(|p| {
                g.get(p)
                    .map(|deps| {
                        deps.iter()
                            .filter_map(|d| index_of.get(d).copied())
                            .collect()
                    })
                    .unwrap_or_default()
            })
            .collect();

        // Iterative Tarjan.
        struct State {
            index: Vec<Option<usize>>,
            lowlink: Vec<usize>,
            on_stack: Vec<bool>,
            stack: Vec<usize>,
            next_index: usize,
            comps: Vec<Vec<usize>>,
        }
        let n = nodes.len();
        let mut st = State {
            index: vec![None; n],
            lowlink: vec![0; n],
            on_stack: vec![false; n],
            stack: Vec::new(),
            next_index: 0,
            comps: Vec::new(),
        };
        for start in 0..n {
            if st.index[start].is_some() {
                continue;
            }
            // Explicit DFS stack: (node, next-successor-position).
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            st.index[start] = Some(st.next_index);
            st.lowlink[start] = st.next_index;
            st.next_index += 1;
            st.stack.push(start);
            st.on_stack[start] = true;
            while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
                if *pos < succs[v].len() {
                    let w = succs[v][*pos];
                    *pos += 1;
                    if st.index[w].is_none() {
                        st.index[w] = Some(st.next_index);
                        st.lowlink[w] = st.next_index;
                        st.next_index += 1;
                        st.stack.push(w);
                        st.on_stack[w] = true;
                        dfs.push((w, 0));
                    } else if st.on_stack[w] {
                        st.lowlink[v] = st.lowlink[v].min(st.index[w].unwrap());
                    }
                } else {
                    dfs.pop();
                    if let Some(&(parent, _)) = dfs.last() {
                        st.lowlink[parent] = st.lowlink[parent].min(st.lowlink[v]);
                    }
                    if st.lowlink[v] == st.index[v].unwrap() {
                        let mut comp = Vec::new();
                        loop {
                            let w = st.stack.pop().expect("tarjan stack underflow");
                            st.on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        st.comps.push(comp);
                    }
                }
            }
        }
        st.comps
            .into_iter()
            .map(|c| c.into_iter().map(|i| nodes[i].clone()).collect())
            .collect()
    }

    /// Predicates that participate in recursion: members of an SCC of size
    /// ≥ 2, or self-looping predicates.
    pub fn recursive_preds(&self) -> BTreeSet<PredRef> {
        let g = self.dependency_graph();
        let mut rec = BTreeSet::new();
        for comp in self.sccs() {
            if comp.len() > 1 {
                rec.extend(comp);
            } else {
                let p = &comp[0];
                if g.get(p).is_some_and(|deps| deps.contains(p)) {
                    rec.insert(p.clone());
                }
            }
        }
        rec
    }

    /// Whether the program contains any recursion.
    pub fn is_recursive(&self) -> bool {
        !self.recursive_preds().is_empty()
    }

    /// Whether any rule uses negation.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(|r| r.has_negation())
    }

    /// Predicates reachable from the query predicate in the dependency
    /// graph (including the query predicate itself). Returns all predicates
    /// if the program has no query.
    pub fn reachable_from_query(&self) -> BTreeSet<PredRef> {
        let Some(q) = &self.query else {
            return self.all_preds();
        };
        let g = self.dependency_graph();
        let mut seen = BTreeSet::new();
        let mut work = vec![q.atom.pred.clone()];
        while let Some(p) = work.pop() {
            if !seen.insert(p.clone()) {
                continue;
            }
            if let Some(deps) = g.get(&p) {
                for d in deps {
                    if !seen.contains(d) {
                        work.push(d.clone());
                    }
                }
            }
        }
        seen
    }

    /// Indices of rules whose head predicate is `p`.
    pub fn rules_for(&self, p: &PredRef) -> Vec<usize> {
        self.rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| (r.head.pred == *p).then_some(i))
            .collect()
    }

    /// A copy of the program without the rule at `idx`.
    pub fn without_rule(&self, idx: usize) -> Program {
        let mut p = self.clone();
        p.rules.remove(idx);
        p
    }

    /// Render as parseable program text (one rule per line, query last).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for r in &self.rules {
            let _ = writeln!(out, "{r}");
        }
        if let Some(q) = &self.query {
            let _ = writeln!(out, "{q}");
        }
        out
    }
}

impl std::fmt::Display for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn tc() -> Program {
        parse_program(
            "query(X) :- a(X, Y).\n\
             a(X, Y) :- p(X, Z), a(Z, Y).\n\
             a(X, Y) :- p(X, Y).\n\
             ?- query(X).",
        )
        .unwrap()
        .program
    }

    #[test]
    fn idb_edb_split() {
        let p = tc();
        let idb: Vec<String> = p.idb_preds().iter().map(|p| p.to_string()).collect();
        let edb: Vec<String> = p.edb_preds().iter().map(|p| p.to_string()).collect();
        assert_eq!(idb, vec!["a", "query"]);
        assert_eq!(edb, vec!["p"]);
    }

    #[test]
    fn arity_inference_and_mismatch() {
        let p = tc();
        let ar = p.arities().unwrap();
        assert_eq!(ar[&PredRef::new("a")], 2);
        assert_eq!(ar[&PredRef::new("query")], 1);

        let bad = parse_program("a(X) :- p(X, Y).\na(X, Y) :- p(X, Y).").unwrap();
        assert!(matches!(
            bad.program.arities(),
            Err(AstError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn recursion_detection() {
        let p = tc();
        let rec = p.recursive_preds();
        assert!(rec.contains(&PredRef::new("a")));
        assert!(!rec.contains(&PredRef::new("query")));
        assert!(p.is_recursive());

        let nonrec = parse_program("q(X) :- p(X, Y).").unwrap().program;
        assert!(!nonrec.is_recursive());
    }

    #[test]
    fn mutual_recursion_via_scc() {
        let p = parse_program(
            "even(X) :- zero(X).\n\
             even(X) :- succ(Y, X), odd(Y).\n\
             odd(X) :- succ(Y, X), even(Y).",
        )
        .unwrap()
        .program;
        let rec = p.recursive_preds();
        assert!(rec.contains(&PredRef::new("even")));
        assert!(rec.contains(&PredRef::new("odd")));
        // SCCs come callees-first; the even/odd component exists with 2 members.
        let sccs = p.sccs();
        assert!(sccs.iter().any(|c| c.len() == 2));
    }

    #[test]
    fn reachability_from_query() {
        let p = parse_program(
            "q(X) :- a(X).\n\
             a(X) :- e(X, Y).\n\
             orphan(X) :- e(X, X).\n\
             ?- q(X).",
        )
        .unwrap()
        .program;
        let reach = p.reachable_from_query();
        assert!(reach.contains(&PredRef::new("q")));
        assert!(reach.contains(&PredRef::new("a")));
        assert!(reach.contains(&PredRef::new("e")));
        assert!(!reach.contains(&PredRef::new("orphan")));
    }

    #[test]
    fn text_roundtrip() {
        let p = tc();
        let reparsed = parse_program(&p.to_text()).unwrap().program;
        assert_eq!(p, reparsed);
    }

    #[test]
    fn without_rule_removes_by_index() {
        let p = tc();
        let q = p.without_rule(1);
        assert_eq!(q.rules.len(), 2);
        assert!(!q.rules.iter().any(|r| r.is_directly_recursive()));
    }
}
