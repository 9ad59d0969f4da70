//! The org schema every `serve-*` workload (and one `batch-run` file)
//! shares: a seeded generator, the query vocabulary, and an independent
//! oracle.
//!
//! The oracle is a closed-form model of the five derived predicates over a
//! manager tree — no Datalog evaluator — so a wrong answer from the engine
//! cannot also be the expected answer. (`xdl run` in turn has to reproduce
//! the model's five relations in full, see the driver.)

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::rng::SplitMix64;

/// Rules of the org schema. EDB: `mgr/2, emp/1, audit/1, cleared/1`.
///
/// `clean` has a second, positive rule over `flagged`. It is part of the
/// schema (a flagged employee can be cleared), and it also keeps `flagged`
/// positively consumed: at the commit this benchmark was written against,
/// the engine's boolean-cut retirement ignores negated consumers and drops
/// the `flagged` rule from `clean(X) :- emp(X), not flagged(X).` alone,
/// answering every employee (see README, "Findings").
pub const RULES: &str = "\
above(X, Y) :- mgr(X, Y).
above(X, Y) :- mgr(X, Z), above(Z, Y).
peer(X, Y) :- mgr(Z, X), mgr(Z, Y).
skip(X, Y) :- mgr(X, Z), mgr(Z, Y).
flagged(X) :- above(X, Y), audit(Y).
clean(X) :- emp(X), not flagged(X).
clean(X) :- flagged(X), cleared(X).
";

/// Fan-out of the manager tree.
pub const FANOUT: u32 = 4;

/// Employees in a complete `FANOUT`-ary tree of `levels` levels.
pub fn tree_size(levels: u32) -> u32 {
    (FANOUT.pow(levels) - 1) / (FANOUT - 1)
}

/// A derived predicate of the schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Pred {
    Above,
    Peer,
    Skip,
    Flagged,
    Clean,
}

impl Pred {
    pub fn name(self) -> &'static str {
        match self {
            Pred::Above => "above",
            Pred::Peer => "peer",
            Pred::Skip => "skip",
            Pred::Flagged => "flagged",
            Pred::Clean => "clean",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Pred::Above | Pred::Peer | Pred::Skip => 2,
            Pred::Flagged | Pred::Clean => 1,
        }
    }
}

/// One argument of a query atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// An employee id.
    Const(u32),
    /// A named variable: an output column.
    Var(&'static str),
    /// `_`: existential, projected away (adornment `d`).
    Wild,
}

/// A query over the org schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub pred: Pred,
    pub args: Vec<Arg>,
}

impl Query {
    pub fn new(pred: Pred, args: &[Arg]) -> Query {
        assert_eq!(args.len(), pred.arity(), "{} arity", pred.name());
        Query {
            pred,
            args: args.to_vec(),
        }
    }

    /// The whole relation: `?- above(A, B).`
    pub fn full(pred: Pred) -> Query {
        Query::new(pred, &[Arg::Var("A"), Arg::Var("B")][..pred.arity()])
    }

    /// `?- above(X, 17).`
    pub fn text(&self) -> String {
        let args: Vec<String> = self
            .args
            .iter()
            .map(|a| match a {
                Arg::Const(c) => c.to_string(),
                Arg::Var(v) => (*v).to_string(),
                Arg::Wild => "_".to_string(),
            })
            .collect();
        format!("?- {}({}).", self.pred.name(), args.join(", "))
    }

    /// The server's form key for this query: predicate plus existential
    /// adornment (`d` for `_`, `n` for everything else).
    pub fn form(&self) -> String {
        let ad: String = self
            .args
            .iter()
            .map(|a| if *a == Arg::Wild { 'd' } else { 'n' })
            .collect();
        format!("{}[{ad}]", self.pred.name())
    }
}

/// The org: a manager forest that starts as a complete tree and only ever
/// grows by leaves (every ingested `mgr(p, c)` names a fresh `c`), so it
/// stays a forest and the closed forms below stay valid.
#[derive(Debug, Clone)]
pub struct Org {
    /// Employees with an `emp` fact (the original tree).
    pub employees: u32,
    /// `parent[c]`; `NONE` for the root and for ids never seen.
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    pub audit: BTreeSet<u32>,
    pub cleared: BTreeSet<u32>,
    /// Employees with an audited strict descendant.
    flagged: BTreeSet<u32>,
}

const NONE: u32 = u32::MAX;

impl Org {
    /// A complete tree of `levels` levels. The seed places the `audit`
    /// marks (one employee in a hundred, on the two deepest levels so the
    /// flagged set stays near 4 % of the org for every seed) and the
    /// `cleared` marks (eight flagged employees).
    pub fn generate(levels: u32, seed: u64) -> Org {
        assert!(levels >= 3, "org needs at least three levels");
        let n = tree_size(levels);
        let mut org = Org {
            employees: n,
            parent: vec![NONE; n as usize],
            children: vec![Vec::new(); n as usize],
            audit: BTreeSet::new(),
            cleared: BTreeSet::new(),
            flagged: BTreeSet::new(),
        };
        for c in 1..n {
            org.link((c - 1) / FANOUT, c);
        }
        let deep = tree_size(levels - 2);
        let mut rng = SplitMix64::stream(seed, "org.audit");
        for a in rng.sample(u64::from(deep), u64::from(n), (n / 100).max(1) as usize) {
            org.audit.insert(a as u32);
        }
        for &a in &org.audit {
            let mut x = org.parent[a as usize];
            while x != NONE && org.flagged.insert(x) {
                x = org.parent[x as usize];
            }
        }
        let flagged: Vec<u32> = org.flagged.iter().copied().collect();
        let mut rng = SplitMix64::stream(seed, "org.cleared");
        for i in rng.sample(0, flagged.len() as u64, 8.min(flagged.len())) {
            org.cleared.insert(flagged[i as usize]);
        }
        org
    }

    fn link(&mut self, p: u32, c: u32) {
        let need = p.max(c) as usize + 1;
        if self.parent.len() < need {
            self.parent.resize(need, NONE);
            self.children.resize(need, Vec::new());
        }
        assert_eq!(self.parent[c as usize], NONE, "employee {c} has a manager");
        self.parent[c as usize] = p;
        self.children[p as usize].push(c);
    }

    /// Apply an acknowledged `mgr(p, c)` with a fresh `c`.
    pub fn add_edge(&mut self, p: u32, c: u32) {
        self.link(p, c);
    }

    /// First id of tree level `level` (root is level 0).
    pub fn level_start(level: u32) -> u32 {
        tree_size(level)
    }

    /// The EDB as `.dl` fact lines, in a fixed order.
    pub fn fact_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in 0..self.employees {
            out.push(format!("emp({e})."));
        }
        for c in 0..self.parent.len() as u32 {
            let p = self.parent[c as usize];
            if p != NONE {
                out.push(format!("mgr({p}, {c})."));
            }
        }
        out.extend(self.audit.iter().map(|a| format!("audit({a}).")));
        out.extend(self.cleared.iter().map(|a| format!("cleared({a}).")));
        out
    }

    fn ancestors(&self, x: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut p = self.parent_of(x);
        while p != NONE {
            out.push(p);
            p = self.parent[p as usize];
        }
        out
    }

    fn parent_of(&self, x: u32) -> u32 {
        self.parent.get(x as usize).copied().unwrap_or(NONE)
    }

    fn kids(&self, x: u32) -> &[u32] {
        self.children.get(x as usize).map_or(&[], Vec::as_slice)
    }

    fn descendants(&self, x: u32) -> Vec<u32> {
        let mut out = Vec::new();
        let mut stack: Vec<u32> = self.kids(x).to_vec();
        while let Some(y) = stack.pop() {
            out.push(y);
            stack.extend_from_slice(self.kids(y));
        }
        out
    }

    fn nodes(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.parent.len() as u32)
            .filter(|&x| self.parent[x as usize] != NONE || !self.children[x as usize].is_empty())
    }

    /// All tuples of `q.pred` that match `q`'s constants.
    fn matching(&self, q: &Query) -> Vec<Vec<u32>> {
        let c = |i: usize| match q.args[i] {
            Arg::Const(c) => Some(c),
            _ => None,
        };
        // Binary predicates: enumerate from whichever side is bound.
        let binary =
            |fwd: &dyn Fn(u32) -> Vec<u32>, back: &dyn Fn(u32) -> Vec<u32>| match (c(0), c(1)) {
                (Some(a), Some(b)) => {
                    if fwd(a).contains(&b) {
                        vec![vec![a, b]]
                    } else {
                        Vec::new()
                    }
                }
                (Some(a), None) => fwd(a).into_iter().map(|y| vec![a, y]).collect(),
                (None, Some(b)) => back(b).into_iter().map(|x| vec![x, b]).collect(),
                (None, None) => self
                    .nodes()
                    .flat_map(|x| fwd(x).into_iter().map(move |y| vec![x, y]))
                    .collect(),
            };
        let unary = |holds: &dyn Fn(u32) -> bool, all: Vec<u32>| match c(0) {
            Some(a) => {
                if holds(a) {
                    vec![vec![a]]
                } else {
                    Vec::new()
                }
            }
            None => all.into_iter().map(|x| vec![x]).collect(),
        };
        match q.pred {
            Pred::Above => binary(&|x| self.descendants(x), &|y| self.ancestors(y)),
            Pred::Peer => {
                let sibs = |x: u32| match self.parent_of(x) {
                    NONE => Vec::new(),
                    p => self.kids(p).to_vec(),
                };
                binary(&sibs, &sibs)
            }
            Pred::Skip => binary(
                &|x| {
                    self.kids(x)
                        .iter()
                        .flat_map(|&z| self.kids(z).iter().copied())
                        .collect()
                },
                &|y| match self.parent_of(y) {
                    NONE => Vec::new(),
                    z => match self.parent_of(z) {
                        NONE => Vec::new(),
                        x => vec![x],
                    },
                },
            ),
            Pred::Flagged => unary(
                &|x| self.flagged.contains(&x),
                self.flagged.iter().copied().collect(),
            ),
            Pred::Clean => {
                let clean = |x: u32| {
                    (x < self.employees && !self.flagged.contains(&x))
                        || (self.flagged.contains(&x) && self.cleared.contains(&x))
                };
                unary(&clean, (0..self.employees).filter(|&x| clean(x)).collect())
            }
        }
    }

    /// The payload `xdl run` / `QUERY` must produce for `q`, byte for byte:
    /// `true`/`false` when no variable is named, else the header of named
    /// variables and the distinct projected rows in ascending order.
    pub fn answer(&self, q: &Query) -> String {
        let keep: Vec<(usize, &str)> = q
            .args
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Arg::Var(v) => Some((i, *v)),
                _ => None,
            })
            .collect();
        let tuples = self.matching(q);
        if keep.is_empty() {
            return format!("{}\n", !tuples.is_empty());
        }
        let rows: BTreeSet<Vec<u32>> = tuples
            .into_iter()
            .map(|t| keep.iter().map(|&(i, _)| t[i]).collect())
            .collect();
        let header: Vec<&str> = keep.iter().map(|&(_, v)| v).collect();
        let mut out = String::with_capacity(16 + rows.len() * 8 * keep.len());
        out.push_str(&header.join(", "));
        out.push('\n');
        for row in rows {
            for (k, v) in row.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{v}");
            }
            out.push('\n');
        }
        out
    }

    /// Facts the rules derive over the current forest, per predicate —
    /// the closed forms the bound-tightness probe divides by.
    pub fn derived_count(&self, pred: Pred) -> usize {
        self.matching(&Query::full(pred)).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(pred: Pred, args: &[Arg]) -> Query {
        Query::new(pred, args)
    }

    #[test]
    fn tree_sizes() {
        assert_eq!(tree_size(3), 21);
        assert_eq!(tree_size(6), 1365);
        assert_eq!(tree_size(7), 5461);
        assert_eq!(tree_size(8), 21845);
        assert_eq!(Org::level_start(2), 5);
    }

    #[test]
    fn query_text_and_form() {
        let a = q(Pred::Above, &[Arg::Var("X"), Arg::Const(17)]);
        assert_eq!(a.text(), "?- above(X, 17).");
        assert_eq!(a.form(), "above[nn]");
        let b = q(Pred::Above, &[Arg::Const(3), Arg::Wild]);
        assert_eq!(b.text(), "?- above(3, _).");
        assert_eq!(b.form(), "above[nd]");
    }

    /// Oracle rendering round-trip on a three-level org (21 employees):
    /// answers worked out by hand.
    #[test]
    fn oracle_renders_like_xdl_run() {
        let mut org = Org::generate(3, 1);
        org.audit = [20].into_iter().collect();
        org.flagged = [0, 4].into_iter().collect();
        org.cleared = [4].into_iter().collect();
        // 20's managers: 4, then 0.
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Var("X"), Arg::Const(20)])),
            "X\n0\n4\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Const(4), Arg::Var("Y")])),
            "Y\n17\n18\n19\n20\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Const(4), Arg::Const(20)])),
            "true\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Const(20), Arg::Wild])),
            "false\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Var("X"), Arg::Wild])),
            "X\n0\n1\n2\n3\n4\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Peer, &[Arg::Const(6), Arg::Var("Y")])),
            "Y\n5\n6\n7\n8\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Peer, &[Arg::Const(0), Arg::Var("Y")])),
            "Y\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Skip, &[Arg::Var("X"), Arg::Const(9)])),
            "X\n0\n"
        );
        assert_eq!(org.answer(&q(Pred::Flagged, &[Arg::Var("X")])), "X\n0\n4\n");
        // clean: not flagged, or flagged and cleared — everyone but 0.
        let clean = org.answer(&q(Pred::Clean, &[Arg::Var("X")]));
        assert_eq!(clean.lines().count(), 1 + 20);
        assert!(!clean.contains("\n0\n"));
        assert!(clean.contains("\n4\n"));
        // Two named variables: lexicographic by number, not by text.
        let all = org.answer(&q(Pred::Above, &[Arg::Var("X"), Arg::Var("Y")]));
        assert!(all.starts_with("X, Y\n0, 1\n0, 2\n"));
        assert_eq!(all.lines().count(), 1 + 4 + 16 + 16);
        assert!(all.find("0, 9\n").unwrap() < all.find("0, 10\n").unwrap());
    }

    #[test]
    fn ingested_leaves_extend_the_model() {
        let mut org = Org::generate(3, 1);
        org.add_edge(20, 1000);
        assert_eq!(
            org.answer(&q(Pred::Above, &[Arg::Var("X"), Arg::Const(1000)])),
            "X\n0\n4\n20\n"
        );
        assert_eq!(
            org.answer(&q(Pred::Peer, &[Arg::Const(1000), Arg::Var("Y")])),
            "Y\n1000\n"
        );
        // No `emp` fact for an ingested leaf: it is not clean.
        assert_eq!(org.answer(&q(Pred::Clean, &[Arg::Const(1000)])), "false\n");
        assert_eq!(org.derived_count(Pred::Above), 4 + 16 + 16 + 3);
    }

    #[test]
    fn generator_is_seeded_and_sized() {
        let a = Org::generate(6, 1);
        let b = Org::generate(6, 1);
        let c = Org::generate(6, 2);
        assert_eq!(a.fact_lines(), b.fact_lines());
        assert_ne!(a.audit, c.audit);
        assert_eq!(a.audit.len(), 13);
        assert_eq!(a.cleared.len(), 8);
        assert_eq!(a.fact_lines().len(), 1365 + 1364 + 13 + 8);
    }
}
