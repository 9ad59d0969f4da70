//! The parser's fact table: each predicate's facts as flat rows.
//!
//! A fact statement is read straight into its predicate's [`FactBatch`]:
//! its values are appended to one arity-strided vector and its statement's
//! position to a vector beside it, so a fact is never an atom, a term list
//! or a tuple of its own between the source text and the engine's
//! relations, which take the batches over by move.

use crate::pred::PredRef;
use crate::term::Value;

/// The facts of one predicate at one arity, in source order. Row `i` is
/// `values[i * arity..(i + 1) * arity]`, and `spans[i]` is the 1-based
/// `(line, col)` of its statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactBatch {
    /// The (possibly adorned) predicate.
    pub pred: PredRef,
    /// Values per row.
    pub arity: usize,
    /// The rows, arity-strided.
    pub values: Vec<Value>,
    /// One statement position per row; its length is the row count (a
    /// zero-arity batch stores no values).
    pub spans: Vec<(u32, u32)>,
}

impl FactBatch {
    /// An empty batch.
    pub fn new(pred: PredRef, arity: usize) -> FactBatch {
        FactBatch {
            pred,
            arity,
            values: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the batch holds no row.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[Value] {
        &self.values[i * self.arity..(i + 1) * self.arity]
    }

    /// The rows in source order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        (0..self.len()).map(move |i| self.row(i))
    }
}

/// A source text's facts: one [`FactBatch`] per predicate and arity, in
/// `(PredRef, arity)` order. A predicate has two batches only when its
/// facts disagree on the arity, which the engine's loader and the server's
/// `LOAD` refuse and `xdl lint` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FactTable {
    batches: Vec<FactBatch>,
}

impl FactTable {
    /// An empty table.
    pub fn new() -> FactTable {
        FactTable::default()
    }

    /// The table of `batches`, put in `(PredRef, arity)` order; no two may
    /// share a predicate and an arity.
    pub(crate) fn from_batches(mut batches: Vec<FactBatch>) -> FactTable {
        batches.sort_unstable_by(|a, b| (&a.pred, a.arity).cmp(&(&b.pred, b.arity)));
        FactTable { batches }
    }

    /// The table of one fact, `pred(row)`, at position 1:1.
    pub fn one(pred: PredRef, row: Vec<Value>) -> FactTable {
        let batch = FactBatch {
            pred,
            arity: row.len(),
            values: row,
            spans: vec![(1, 1)],
        };
        FactTable {
            batches: vec![batch],
        }
    }

    /// The batches, in `(PredRef, arity)` order.
    pub fn batches(&self) -> &[FactBatch] {
        &self.batches
    }

    /// The batches, moved out.
    pub fn into_batches(self) -> Vec<FactBatch> {
        self.batches
    }

    /// Each predicate's batches, one group per predicate.
    pub fn by_pred(&self) -> impl Iterator<Item = &[FactBatch]> + '_ {
        let mut rest = &self.batches[..];
        std::iter::from_fn(move || {
            let first = rest.first()?;
            let n = rest.iter().take_while(|b| b.pred == first.pred).count();
            let (group, tail) = rest.split_at(n);
            rest = tail;
            Some(group)
        })
    }

    /// The predicates with at least one fact, in order.
    pub fn preds(&self) -> impl Iterator<Item = &PredRef> + '_ {
        self.by_pred().map(|group| &group[0].pred)
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.batches.iter().map(FactBatch::len).sum()
    }

    /// Whether there are no facts.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }
}

/// The table as `(pred, rows)` pairs, one per batch, each row its own
/// vector — for callers that keep facts as tuples.
impl IntoIterator for FactTable {
    type Item = (PredRef, FactRows);
    type IntoIter =
        std::iter::Map<std::vec::IntoIter<FactBatch>, fn(FactBatch) -> (PredRef, FactRows)>;

    fn into_iter(self) -> Self::IntoIter {
        self.batches.into_iter().map(|b| {
            let rows = FactRows {
                arity: b.arity,
                left: b.len(),
                values: b.values.into_iter(),
            };
            (b.pred, rows)
        })
    }
}

/// One batch's rows as vectors, in source order.
#[derive(Debug)]
pub struct FactRows {
    arity: usize,
    left: usize,
    values: std::vec::IntoIter<Value>,
}

impl Iterator for FactRows {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        self.left = self.left.checked_sub(1)?;
        Some(self.values.by_ref().take(self.arity).collect())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for FactRows {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::int(v)).collect()
    }

    #[test]
    fn batches_are_ordered_by_predicate_and_arity() {
        let (p, q) = (PredRef::new("p"), PredRef::new("q"));
        let batch = |pred: &PredRef, rows: &[&[i64]], lines: &[u32]| FactBatch {
            pred: pred.clone(),
            arity: rows[0].len(),
            values: rows.iter().flat_map(|r| ints(r)).collect(),
            spans: lines.iter().map(|&l| (l, 1)).collect(),
        };
        let t = FactTable::from_batches(vec![
            batch(&q, &[&[1], &[2]], &[1, 3]),
            batch(&p, &[&[1, 2], &[3, 4]], &[2, 5]),
            batch(&q, &[&[]], &[4]),
        ]);
        assert_eq!(t.len(), 5);
        let shape: Vec<(&PredRef, usize, usize)> = t
            .batches()
            .iter()
            .map(|b| (&b.pred, b.arity, b.len()))
            .collect();
        let mut want = vec![(&p, 2, 2), (&q, 0, 1), (&q, 1, 2)];
        want.sort();
        assert_eq!(shape, want);
        assert_eq!(t.by_pred().count(), 2);
        assert_eq!(t.preds().collect::<Vec<_>>().len(), 2);
        let ps = t.batches().iter().find(|b| b.pred == p).unwrap();
        assert_eq!(
            ps.rows().collect::<Vec<_>>(),
            [&ints(&[1, 2])[..], &ints(&[3, 4])[..]]
        );
        let qs = t.batches().iter().find(|b| b.pred == q && b.arity == 1);
        assert_eq!(qs.unwrap().spans, vec![(1, 1), (3, 1)]);
        // By value: one pair per batch, each row a vector.
        let rows: Vec<(PredRef, Vec<Vec<Value>>)> =
            t.into_iter().map(|(p, rows)| (p, rows.collect())).collect();
        assert!(rows.contains(&(p, vec![ints(&[1, 2]), ints(&[3, 4])])));
        assert!(rows.contains(&(q.clone(), vec![vec![]])));
        let one = FactTable::one(q.clone(), ints(&[7]));
        assert_eq!(one.batches(), [batch(&q, &[&[7]], &[1])]);
    }
}
