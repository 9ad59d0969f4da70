//! [`FactSet`], [`Edb`] and [`AnswerSet`]: what goes into the engine and
//! what comes out.
//!
//! A `FactSet` is an order-insensitive map from predicates to sets of
//! tuples. It is deliberately based on `BTreeMap`/`BTreeSet` so that two
//! fact sets compare equal iff they contain the same facts and iterate
//! deterministically — essential for the equivalence oracles and tests.
//!
//! An [`Edb`] is the input of one evaluation: rows in flat per-predicate
//! batches, copied at most once on their way into a
//! [`Relation`](crate::Relation). Every entry point takes `impl Into<Edb>`,
//! so a `&FactSet`, the parser's fact table, a server snapshot and a
//! resident's delta batch all reach the same loader.

use std::collections::{BTreeMap, BTreeSet};

use datalog_ast::{Atom, FactTable, PredRef, Value};

/// An immutable-ish collection of ground facts grouped by predicate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactSet {
    map: BTreeMap<PredRef, BTreeSet<Vec<Value>>>,
}

impl FactSet {
    /// Empty fact set.
    pub fn new() -> FactSet {
        FactSet::default()
    }

    /// Build from the parser's fact table.
    pub fn from_parsed(parsed: &FactTable) -> FactSet {
        let mut fs = FactSet::new();
        for batch in parsed.batches() {
            for row in batch.rows() {
                fs.insert(batch.pred.clone(), row.to_vec());
            }
        }
        fs
    }

    /// Insert a fact; returns `true` if it was new.
    pub fn insert(&mut self, pred: PredRef, tuple: Vec<Value>) -> bool {
        self.map.entry(pred).or_default().insert(tuple)
    }

    /// Insert a ground atom.
    ///
    /// # Panics
    /// Panics if the atom is not ground.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        let values = atom
            .ground_values()
            .expect("insert_atom requires a ground atom");
        self.insert(atom.pred.clone(), values)
    }

    /// Membership test.
    pub fn contains(&self, pred: &PredRef, tuple: &[Value]) -> bool {
        self.map.get(pred).is_some_and(|s| s.contains(tuple))
    }

    /// Membership test for a ground atom.
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        match atom.ground_values() {
            Some(values) => self.contains(&atom.pred, &values),
            None => false,
        }
    }

    /// Tuples of one predicate (empty slice view if absent).
    pub fn tuples(&self, pred: &PredRef) -> impl Iterator<Item = &Vec<Value>> + '_ {
        self.map.get(pred).into_iter().flatten()
    }

    /// Number of tuples for one predicate.
    pub fn count(&self, pred: &PredRef) -> usize {
        self.map.get(pred).map_or(0, |s| s.len())
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.map.values().map(|s| s.len()).sum()
    }

    /// Whether there are no facts at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predicates that have at least one fact.
    pub fn preds(&self) -> impl Iterator<Item = &PredRef> + '_ {
        self.map.keys()
    }

    /// Iterate over all facts as `(pred, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PredRef, &Vec<Value>)> + '_ {
        self.map
            .iter()
            .flat_map(|(p, set)| set.iter().map(move |t| (p, t)))
    }

    /// All constants appearing in any fact (the active domain contribution
    /// of this fact set).
    pub fn active_domain(&self) -> BTreeSet<Value> {
        self.iter().flat_map(|(_, t)| t.iter().copied()).collect()
    }

    /// Union in another fact set.
    pub fn extend(&mut self, other: &FactSet) {
        for (p, t) in other.iter() {
            self.insert(p.clone(), t.clone());
        }
    }

    /// Restrict to a single predicate's facts.
    pub fn restrict_to(&self, pred: &PredRef) -> FactSet {
        let mut fs = FactSet::new();
        if let Some(set) = self.map.get(pred) {
            fs.map.insert(pred.clone(), set.clone());
        }
        fs
    }

    /// Render one line per fact, sorted (for snapshots and diffing).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (p, t) in self.iter() {
            let args: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            if args.is_empty() {
                let _ = writeln!(out, "{p}.");
            } else {
                let _ = writeln!(out, "{p}({}).", args.join(", "));
            }
        }
        out
    }
}

/// The input rows of one evaluation: flat, arity-strided batches in
/// ascending `(PredRef, arity)` order, one per predicate — a predicate has
/// a second only when its rows disagree on the arity, which the loader
/// refuses. A batch holds at least one row and may hold duplicates and
/// rows in any order; the engine's one loader (`eval::load_input`) checks
/// its arity and loads it in tuple order through a sorted permutation of
/// its row ids, dropping duplicates.
#[derive(Debug)]
pub struct Edb {
    pub(crate) batches: Vec<Batch>,
}

/// One predicate's input rows at one arity: row `i` is
/// `values[i * arity..(i + 1) * arity]`.
#[derive(Debug)]
pub(crate) struct Batch {
    pub(crate) pred: PredRef,
    pub(crate) arity: usize,
    /// Row count (a zero-arity batch stores no values).
    pub(crate) len: usize,
    pub(crate) values: Vec<Value>,
}

impl Batch {
    pub(crate) fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }
}

impl Edb {
    /// Rows grouped into one batch per predicate and arity, each batch's
    /// rows in the order given.
    pub(crate) fn from_rows<'a>(rows: impl IntoIterator<Item = (&'a PredRef, &'a [Value])>) -> Edb {
        let mut batches: Vec<Batch> = Vec::new();
        for (pred, row) in rows {
            let at = batches.binary_search_by(|b| (&b.pred, b.arity).cmp(&(pred, row.len())));
            let i = at.unwrap_or_else(|i| {
                let batch = Batch {
                    pred: pred.clone(),
                    arity: row.len(),
                    len: 0,
                    values: Vec::new(),
                };
                batches.insert(i, batch);
                i
            });
            let batch = &mut batches[i];
            batch.values.extend_from_slice(row);
            batch.len += 1;
        }
        Edb { batches }
    }
}

impl From<&FactSet> for Edb {
    /// Copies every fact (a `FactSet` stays usable by its caller). Each
    /// batch comes out in tuple order, so the loader does not sort it.
    fn from(facts: &FactSet) -> Edb {
        Edb::from_rows(facts.iter().map(|(pred, t)| (pred, &t[..])))
    }
}

impl From<FactTable> for Edb {
    /// Moves the parser's fact table in: each batch's values become an
    /// input batch without being copied.
    fn from(facts: FactTable) -> Edb {
        let batches = facts
            .into_batches()
            .into_iter()
            .filter(|b| !b.is_empty())
            .map(|b| Batch {
                len: b.len(),
                pred: b.pred,
                arity: b.arity,
                values: b.values,
            })
            .collect();
        Edb { batches }
    }
}

impl FromIterator<(PredRef, Vec<Value>)> for FactSet {
    fn from_iter<I: IntoIterator<Item = (PredRef, Vec<Value>)>>(iter: I) -> FactSet {
        let mut fs = FactSet::new();
        for (p, t) in iter {
            fs.insert(p, t);
        }
        fs
    }
}

/// The answer to a query: the set of distinct bindings for the query's
/// *named* variables, in first-occurrence order. Wildcard variables are
/// existential outputs and are projected away (deduplicated).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerSet {
    /// Names of the output columns (query variable names).
    pub columns: Vec<String>,
    /// Distinct answer tuples, sorted.
    pub rows: BTreeSet<Vec<Value>>,
}

impl AnswerSet {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// No answers?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A zero-column answer set is a boolean: true iff the (empty) row is
    /// present.
    pub fn as_bool(&self) -> Option<bool> {
        self.columns.is_empty().then_some(!self.rows.is_empty())
    }
}

/// One line of cells separated by `", "`, each written straight to the
/// formatter.
fn write_line<T: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    cells: impl IntoIterator<Item = T>,
) -> std::fmt::Result {
    for (i, cell) in cells.into_iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{cell}")?;
    }
    f.write_str("\n")
}

/// The header line of column names, then one line per answer. `xdl run`
/// prints this and the server sends it, so it is the byte-identity
/// surface between them.
impl std::fmt::Display for AnswerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write_line(f, &self.columns)?;
        for row in &self.rows {
            write_line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::PredRef;

    fn p() -> PredRef {
        PredRef::new("p")
    }

    #[test]
    fn insert_and_contains() {
        let mut fs = FactSet::new();
        assert!(fs.insert(p(), vec![Value::int(1), Value::int(2)]));
        assert!(!fs.insert(p(), vec![Value::int(1), Value::int(2)]));
        assert!(fs.contains(&p(), &[Value::int(1), Value::int(2)]));
        assert!(!fs.contains(&p(), &[Value::int(2), Value::int(1)]));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs.count(&p()), 1);
    }

    #[test]
    fn equality_is_order_insensitive() {
        let mut a = FactSet::new();
        a.insert(p(), vec![Value::int(1)]);
        a.insert(p(), vec![Value::int(2)]);
        let mut b = FactSet::new();
        b.insert(p(), vec![Value::int(2)]);
        b.insert(p(), vec![Value::int(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn active_domain_collects_all_values() {
        let mut fs = FactSet::new();
        fs.insert(p(), vec![Value::int(1), Value::sym("a")]);
        fs.insert(PredRef::new("q"), vec![Value::int(2)]);
        let dom = fs.active_domain();
        assert_eq!(dom.len(), 3);
        assert!(dom.contains(&Value::sym("a")));
    }

    #[test]
    fn atom_roundtrip() {
        let mut fs = FactSet::new();
        let a = Atom::fact(p(), vec![Value::int(1)]);
        assert!(fs.insert_atom(&a));
        assert!(fs.contains_atom(&a));
        let nonground = Atom::app("p", &["X"]);
        assert!(!fs.contains_atom(&nonground));
    }

    #[test]
    fn boolean_answer() {
        let mut yes = AnswerSet::default();
        yes.rows.insert(vec![]);
        assert_eq!(yes.as_bool(), Some(true));
        let no = AnswerSet::default();
        assert_eq!(no.as_bool(), Some(false));
        let mut unary = AnswerSet {
            columns: vec!["X".into()],
            rows: BTreeSet::new(),
        };
        unary.rows.insert(vec![Value::int(1)]);
        assert_eq!(unary.as_bool(), None);
    }

    /// The rendering before cells were written straight to the formatter:
    /// one `String` per cell, joined. The reference `Display` is held to.
    fn joined(a: &AnswerSet) -> String {
        let mut out = format!("{}\n", a.columns.join(", "));
        for row in &a.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.push_str(&cells.join(", "));
            out.push('\n');
        }
        out
    }

    #[test]
    fn display_matches_the_joined_rendering() {
        let answers = |columns: &[&str], rows: &[&[Value]]| AnswerSet {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: rows.iter().map(|r| r.to_vec()).collect(),
        };
        let (int, sym) = (Value::int, Value::sym);
        let cases = [
            // Booleans: zero columns, false then true.
            answers(&[], &[]),
            answers(&[], &[&[]]),
            // Zero rows under named columns.
            answers(&["X", "Y"], &[]),
            answers(&["X"], &[&[int(-7)], &[int(0)], &[sym("bob")]]),
            answers(
                &["X", "Y", "Z"],
                &[
                    &[int(-3), sym("café"), int(12)],
                    &[sym("a b"), int(-42), sym("Alice")],
                ],
            ),
        ];
        for a in &cases {
            assert_eq!(a.to_string(), joined(a), "{a:?}");
        }
        assert_eq!(cases[1].to_string(), "\n\n");
        assert_eq!(cases[3].to_string(), "X\n-7\n0\nbob\n");
    }

    #[test]
    fn restrict_and_extend() {
        let mut fs = FactSet::new();
        fs.insert(p(), vec![Value::int(1)]);
        fs.insert(PredRef::new("q"), vec![Value::int(2)]);
        let only_p = fs.restrict_to(&p());
        assert_eq!(only_p.len(), 1);
        let mut other = FactSet::new();
        other.insert(p(), vec![Value::int(9)]);
        other.extend(&fs);
        assert_eq!(other.len(), 3);
    }
}
