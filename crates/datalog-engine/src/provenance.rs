//! Derivation-tree provenance.
//!
//! §1.1 of the paper defines the answer semantics via *derivation trees*:
//! every derived fact has a finite tree whose root is the fact, whose
//! leaves are base facts, and whose internal nodes are labeled by the rule
//! that generated them. The engine records the *first* justification of
//! each derived fact (sufficient for exhibiting one derivation tree, which
//! is all the paper's proofs need).

use std::collections::HashMap;

use datalog_ast::Value;

use crate::database::{Database, PredId};

/// One recorded justification: which rule fired, from which premise rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Justification {
    /// Index of the rule in the evaluated program.
    pub rule_idx: usize,
    /// The premise facts, as `(predicate, row-id)` pairs in body order.
    pub premises: Vec<(PredId, u32)>,
}

/// First-derivation provenance for one evaluation.
///
/// Equality compares the full fact → justification map.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Provenance {
    just: HashMap<(PredId, u32), Justification>,
}

/// A materialized derivation tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DerivationTree {
    /// A base (or seeded) fact: no recorded justification.
    Leaf {
        /// Rendered fact, e.g. `p(1, 2)`.
        fact: String,
    },
    /// A derived fact.
    Node {
        /// Rendered fact.
        fact: String,
        /// Rule index that generated the fact.
        rule_idx: usize,
        /// Subtrees for the body facts.
        children: Vec<DerivationTree>,
    },
}

impl DerivationTree {
    /// Height of the tree; a base fact "may be viewed as a derivation tree
    /// of height one" (§1.1).
    pub fn height(&self) -> usize {
        match self {
            DerivationTree::Leaf { .. } => 1,
            DerivationTree::Node { children, .. } => {
                1 + children.iter().map(|c| c.height()).max().unwrap_or(0)
            }
        }
    }

    /// Total number of nodes.
    pub fn size(&self) -> usize {
        match self {
            DerivationTree::Leaf { .. } => 1,
            DerivationTree::Node { children, .. } => {
                1 + children.iter().map(|c| c.size()).sum::<usize>()
            }
        }
    }

    /// Render as an indented outline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write as _;
        let pad = "  ".repeat(depth);
        match self {
            DerivationTree::Leaf { fact } => {
                let _ = writeln!(out, "{pad}{fact}   [base]");
            }
            DerivationTree::Node {
                fact,
                rule_idx,
                children,
            } => {
                let _ = writeln!(out, "{pad}{fact}   [rule {rule_idx}]");
                for c in children {
                    c.render_into(out, depth + 1);
                }
            }
        }
    }
}

impl Provenance {
    /// Empty provenance store.
    pub fn new() -> Provenance {
        Provenance::default()
    }

    /// Record the first justification of a fact (later ones are ignored).
    pub fn record(
        &mut self,
        pred: PredId,
        row: u32,
        rule_idx: usize,
        premises: Vec<(PredId, u32)>,
    ) {
        self.just
            .entry((pred, row))
            .or_insert(Justification { rule_idx, premises });
    }

    /// Drop every justification of `pred`'s rows (its relation was
    /// cleared for a recompute).
    pub(crate) fn forget(&mut self, pred: PredId) {
        self.just.retain(|&(p, _), _| p != pred);
    }

    /// Look up a recorded justification.
    pub fn justification(&self, pred: PredId, row: u32) -> Option<&Justification> {
        self.just.get(&(pred, row))
    }

    /// Number of recorded justifications.
    pub fn len(&self) -> usize {
        self.just.len()
    }

    /// Whether no justification was recorded.
    pub fn is_empty(&self) -> bool {
        self.just.is_empty()
    }

    /// Materialize the derivation tree for a fact given by value, or `None`
    /// if the fact is not in the database.
    pub fn derivation_tree(
        &self,
        db: &Database,
        pred: PredId,
        tuple: &[Value],
    ) -> Option<DerivationTree> {
        let rel = db.relation(pred);
        // Locate the row id (linear scan is fine: provenance is a debugging
        // / proof-exhibition facility, not a hot path).
        let row = rel.iter().position(|r| r == tuple)?;
        Some(self.tree_for(db, pred, row as u32))
    }

    fn tree_for(&self, db: &Database, pred: PredId, row: u32) -> DerivationTree {
        let fact = render_fact(db, pred, row);
        match self.just.get(&(pred, row)) {
            None => DerivationTree::Leaf { fact },
            Some(j) => DerivationTree::Node {
                fact,
                rule_idx: j.rule_idx,
                children: j
                    .premises
                    .iter()
                    .map(|&(p, r)| self.tree_for(db, p, r))
                    .collect(),
            },
        }
    }
}

fn render_fact(db: &Database, pred: PredId, row: u32) -> String {
    let pref = db.pred_ref(pred);
    let values = db.relation(pred).row(row as usize);
    if values.is_empty() {
        pref.to_string()
    } else {
        let args: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        format!("{pref}({})", args.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use datalog_ast::PredRef;

    #[test]
    fn record_keeps_first_justification() {
        let mut p = Provenance::new();
        p.record(PredId(0), 0, 1, vec![]);
        p.record(PredId(0), 0, 2, vec![(PredId(1), 3)]);
        assert_eq!(p.justification(PredId(0), 0).unwrap().rule_idx, 1);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn tree_materialization() {
        let mut db = Database::new();
        let e = db.register(&PredRef::new("e"), 2);
        let a = db.register(&PredRef::new("a"), 2);
        db.relation_mut(e).insert(&[Value::int(1), Value::int(2)]);
        db.relation_mut(e).insert(&[Value::int(2), Value::int(3)]);
        db.relation_mut(a).insert(&[Value::int(2), Value::int(3)]); // row 0
        db.relation_mut(a).insert(&[Value::int(1), Value::int(3)]); // row 1
        let mut p = Provenance::new();
        p.record(a, 0, 1, vec![(e, 1)]);
        p.record(a, 1, 0, vec![(e, 0), (a, 0)]);
        let tree = p
            .derivation_tree(&db, a, &[Value::int(1), Value::int(3)])
            .unwrap();
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.size(), 4);
        let s = tree.render();
        assert!(s.contains("a(1, 3)"));
        assert!(s.contains("[base]"));
        assert!(s.contains("[rule 0]"));
        // Missing fact: no tree.
        assert!(p
            .derivation_tree(&db, a, &[Value::int(9), Value::int(9)])
            .is_none());
    }
}
